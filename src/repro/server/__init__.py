"""Group-commit oracle frontend: batching without semantic change.

Why this layer exists
=====================

The paper's status oracle "executes the conflict detection algorithm in
a critical section" (§6.3) and owes its reported throughput to two
amortizations:

* the critical section is entered once for many queued commit requests,
  not once per request;
* the decisions are made durable in *groups* — Appendix A's BookKeeper
  policy batches records until 1 KB accumulates or 5 ms elapse, so one
  replicated ledger write persists ~32 commit records.

The seed :class:`~repro.core.status_oracle.StatusOracle` is faithful to
the *algorithms* but pays every cost per request.  This package restores
the amortization as a thin frontend layered over any oracle:

:class:`OracleFrontend`
    accepts begin/commit/abort requests from many logical client
    sessions, coalesces them into bounded batches (``max_batch`` count
    bound, ``flush_interval`` time bound in injected/simulated time),
    decides a whole batch inside one critical section, and persists the
    batch as a single ``group-commit`` WAL record
    (:data:`repro.wal.GROUP_COMMIT_RECORD`), which
    :meth:`~repro.core.status_oracle.StatusOracle.recover_from` replays.

:class:`ClientSession`
    the async client surface: ``commit()``/``abort()`` return a
    :class:`CommitFuture` that resolves when the batch flushes (group
    commit — no request is acknowledged before its decision is queued
    for durability).

Design rules
============

1. **The frontend never changes what is decided.**  Batch decisions are
   computed in submission order with exactly the backend's conflict
   rules, so the outcome — every commit/abort decision, every commit
   timestamp, the final ``lastCommit`` map, the commit table, and the
   ``OracleStats`` counters — is identical to feeding the unbatched
   backend the same requests in batch order.  Every bundled backend
   (plain SI/WSI, bounded/Tmax, partitioned) supplies a ``decide_batch``
   engine that owns its policy semantics; the frontend routes whole
   batches through it.
2. **Read-only transactions stay free** (§4.1 condition 3 / §5.1): a
   commit request with an empty write set resolves immediately — no
   conflict check, no commit timestamp, no batch slot — and a batch of
   only such requests writes no WAL record.
3. **One WAL record per batch.**  At Appendix A's 32 B per decision the
   default 32-request batch fills exactly one 1 KB ledger entry, mapping
   one frontend flush onto one BookKeeper write.

The CommitEngine contract: what a backend must provide
======================================================

The frontend is written against
:class:`~repro.core.engine.CommitEngine`, not against any particular
protocol.  A backend earns a seat behind the serving stack (and the HA
tier, and the simulator, and the benchmarks) by honouring five clauses:

* **Timestamps** — ``begin()`` returns strictly increasing start
  timestamps from the engine's ``timestamp_oracle``; an optional
  ``lease(n)`` reserves a contiguous block for the frontend's
  begin-lease amortization (expose ``lease = None`` to opt out, as the
  SSI engine does — its prune horizon needs to see every active
  transaction).
* **Decisions** — ``commit(request) -> CommitResult`` and
  ``abort(start_ts)`` decide one request; ``_decide_batch(batch,
  payload_commits, payload_aborts, errors, results=None)`` decides a
  whole flush *with outcomes identical to the sequential calls in batch
  order* — the load-bearing clause, pinned per engine by the hypothesis
  equivalence suite.  The inherited ``decide_batch`` template owns the
  WAL group record and error re-raise around it.
* **Durability** — ``apply_wal_record(record)`` and
  ``seal_recovery(max_ts)`` let ``recover_from(wal)`` (inherited)
  rebuild the engine from the shared log; the timestamp floor re-seeds
  above everything durable so no timestamp is ever reused.
* **Observability** — ``stats`` (an ``OracleStats``), ``commit_table``,
  and ``level`` tell sessions, checkers, and benches what happened.
* **Routing hints** — ``naive_read_only`` declares whether read-only
  requests with read sets are free (the frontend fast-path) or must
  reach the engine (SSI's rw-antidependency tracking).

Three engines ship against the contract:
:class:`~repro.core.status_oracle.StatusOracle` (the paper's lock-free
SI/WSI oracle, the reference implementation),
:class:`~repro.percolator.PercolatorEngine` (lock-column 2PC with
batched prewrite/finalize and crash-orphan lock cleanup), and
:class:`~repro.ssi.SSIEngine` (Cahill SSI with a bulk per-batch
rw-antidependency pass).  :func:`~repro.core.engine.make_engine`
(``REPRO_ENGINE``) selects one by name; benchmark E23 races all three
through this very frontend.

The hot path: where a commit decision's time goes
=================================================

§6.3 claims the critical section is microseconds-cheap; in Python the
interpreter, not the conflict logic, sets that cost.  A per-request
``commit()`` call pays, per decision: the method-dispatch wrapper, a
closed-check, the ``rows_to_check`` policy hook, a per-row ``lastCommit``
probe loop, ``tso.next()``, the ``_install`` hook, a commit-table call,
four-plus stats increments, a WAL ``append``, and a ``CommitResult``
allocation.  The batch-decide engine
(:meth:`repro.core.status_oracle.StatusOracle.decide_batch`, rewired
into :meth:`OracleFrontend.flush`) amortizes all of it per flush: state
is locally bound once per batch, the no-conflict common case collapses
to one C-speed ``keys().isdisjoint`` sweep per request, write sets
install via one ``dict.update(dict.fromkeys(...))``, stats are tallied
in locals and written back once, and the whole batch persists as a
single pre-assembled group-commit record.  Benchmark E17 measures the
batching win over the unbatched oracle (>= 3x at batch 32); benchmark
E18 isolates the in-critical-section win of ``decide_batch`` over the
per-request flush loop (>= 1.5x at batch 32, typically ~2x).  The
partitioned engine additionally decides the whole flush — single- and
cross-partition requests alike — with one bulk check round and one bulk
install round per involved partition (the cross-partition batch
protocol), the per-RPC amortization a distributed deployment of §6.3
footnote 6 needs.

The second cost the interpreter adds is one no profile of the commit
path shows, because it runs inside whoever happens to allocate:
CPython's cyclic collector walks every *tracked* object the process
keeps, and before PR 13 two of every three such objects were log payload
— the WAL kept each committed request's write set as the request's own
``frozenset`` (sets are always tracked, and so is every tuple that holds
one).  Measured inside the end-to-end benchmark's timed loop that was
32 % of a ``ycsb-uniform`` repetition's wall time, and its pauses were
the p99.  Two rules keep it off the commit path now, pinned by
``tests/server/test_allocation_budget.py``:

* **Nothing retained per durable decision is tracked.**  Group-commit
  records have one normal form
  (:func:`~repro.wal.bookkeeper.group_commit_payload`): tuples all the
  way down, frozen once at the WAL boundary, which the collector
  untracks the first time it meets them; the request and its frozensets
  die with the batch.  ``FlushedBatch.committed_payload`` is the
  record's own payload object.
* **Five tracked objects per in-flight request** (six on the HA path):
  the two footprint frozensets, the ``CommitRequest`` (slotted, no
  ``__dict__``), the slotted ``CommitFuture`` and the ``(request,
  future)`` batch item — plus the ``HAFuture``, which doubles as the
  failover retry-set entry.  ``ClientSession.commit()`` reaches the
  pending batch in one frontend call: no closure, no helper frames, and
  the session's tally rides the future's owner slot instead of a
  per-request callback list.

The gain comes from owning fewer tracked objects, never from collector
settings (the ``no-gc-tuning`` lint pass), so it holds in any process
that embeds the stack.  What remains is the floor a client sets itself:
one tracked object per future it keeps.

Executor choice: who drives the partition rounds
================================================

The partitioned backend's protocol rounds run through a pluggable
:class:`~repro.core.executor.PartitionExecutor`
(``PartitionedOracle(executor=...)``; ``REPRO_EXECUTOR`` sets the
default).  Pick by where the round time goes:

* ``serial`` (default) — rounds run inline on the coordinator.  Right
  whenever rounds are pure Python dict scans: the GIL serializes those
  anyway, so a thread pool would add handoff cost and win nothing.
* ``parallel`` — rounds fan out over a thread pool and join at the
  merge barrier (each partition shard has its own lock).  Right when a
  round *releases the GIL* — a real per-partition RPC to a remote
  commit-table shard, or any C-level wait — because then the flush pays
  roughly one round-trip per *phase* instead of one per partition.
  Benchmark E21 measures exactly this with an injected per-round
  latency (``PartitionedOracle(round_latency=...)``): >= 1.5x at 4
  partitions on cross-heavy workloads, typically ~3x.

Either way decisions are identical — the equivalence suite pins
parallel ≡ serial exactly — and per-flush observability rides
``FlushedBatch.protocol_rounds`` / ``FrontendStats``: executor
wall-clock per phase plus the max rounds any one partition drove (<= 2
under the protocol), so overlap is measured, not inferred.
``OracleFrontend.close()`` propagates executor shutdown to an owned
executor, so no worker threads dangle after a deployment tears down.

Sharding-policy selection: where a row lives
============================================

Row placement is a :class:`~repro.core.sharding.ShardingPolicy`
(``PartitionedOracle(sharding=...)``), chosen by workload shape:

* :class:`~repro.core.sharding.HashSharding` — uniform spread, zero
  locality assumptions; the default.  Multi-row footprints go mostly
  cross-partition, which the batch protocol amortizes but cannot
  eliminate.
* :class:`~repro.core.sharding.RangeSharding` — contiguous key bands;
  right when co-accessed keys are *nearby* (range scans, clustered
  schemas).  Watch for hot bands under skew.
* :class:`~repro.core.sharding.DirectorySharding` — explicit group →
  partition affinity; right when transactions stay inside known key
  groups (per-user, per-tenant rows).  Converts cross traffic into
  aligned traffic outright: E21's group-local leg drives
  ``cross_partition_fraction()`` to ~0.

Placement is policy, the protocol rounds are mechanism, and the two
never interact — any policy composes with any executor.

The *begin* direction of the hot loop is amortized the same way:
``OracleFrontend(begin_lease=n)`` leases a contiguous block of ``n``
start timestamps from the backend (one critical-section entry, durably
reserved through Appendix A's reservation protocol *before* any begin is
served) and serves ``begin()`` from the block with two attribute touches
— plus ``begin_many()`` for sessions opening transactions in bulk, and
per-*session* leases (``ClientSession(begin_lease=n)``) that shard the
frontend's single local block for thread-per-session deployments.  A
WAL-owning frontend also *adopts* the reservation stream of a backend
TSO that persists nothing itself (the partitioned oracle's shared TSO),
so the no-reuse guarantee holds for every bundled deployment shape.
Benchmark E20 measures it (leased begin >= 1.5x per-call at lease 32,
typically ~2.5x).  Lease sizing is a two-sided trade-off:

* a frontend crash (or close) loses the unserved remainder of its block
  — a permanent *timestamp gap*, which is harmless for correctness
  (recovery resumes strictly above the persisted reservation mark; reuse
  is impossible) but wastes up to ``n - 1`` timestamps per crash;
* a lease-served begin carries the snapshot of its *refill* time, so
  under heavy write contention a large lease can slightly raise abort
  rates (the transaction looks older than a per-call begin would) —
  exactly the staleness-vs-throughput dial Omid-lineage deployments
  tune.  The equivalence suite pins that when begins precede the
  decided commits, decisions are identical at every lease size.

High availability: the replicated serving tier
==============================================

Appendix A's failure story — "another fresh instance of the status
oracle could still recreate the memory state from the write-ahead log
and continue servicing the commit requests" — is lifted to *this* layer
by :class:`ReplicatedFrontend` (:mod:`repro.server.ha`): N candidate
:class:`~repro.server.ha.FrontendHost`\\ s behind a ZooKeeper leader
election, sharing one replicated WAL.  Three design decisions carry it:

* **Settlement moves from flush to durability.**  A single frontend may
  equate "decided" with "acknowledged" — nothing else can take over —
  but a replicated tier must not acknowledge a decision the next leader
  might not recover.  :class:`~repro.server.ha.HAFuture` therefore
  resolves from the WAL-sync listener (the decision is on a ledger
  quorum), at the cost of one WAL sync of latency.  Decision *errors*
  still settle at flush — they are permanent and never reach the WAL.
* **Warm standbys make takeover O(delta).**  Every standby host tails
  the shared WAL (:class:`~repro.wal.bookkeeper.WALTail`), applying
  records as they become durable; at promotion only the un-polled
  suffix is replayed, then
  :meth:`~repro.core.status_oracle.StatusOracle.seal_recovery` re-seeds
  the timestamp oracle above everything durable.  Benchmark E22
  measures warm vs cold takeover (>= 5x at >= 10k records; in practice
  the gap grows with history length, since the delta does not).
* **In-flight requests survive, exactly once.**  A request whose
  decision never became durable — in the crashed leader's open batch,
  or flushed but un-synced — is resubmitted against the new leader with
  its **original start timestamp** under a bounded-exponential
  :class:`RetryPolicy`; a request whose decision *did* sync settled
  already and left the retry set, so nothing is ever decided twice.
  Crashing a leader mid-lease also gaps (never reuses) the begin-lease
  block, same as a plain frontend crash.  The hypothesis failover
  property pins history equivalence: when begins precede decisions, a
  crashed-and-retried run decides every request identically to an
  uncrashed one.

Admission control rides the same tier: ``max_queue_depth`` bounds the
decisions in flight (pending + flushed-but-not-yet-durable); beyond it,
submissions fail fast with :class:`~repro.core.errors.Overloaded` and
:class:`ClientSession`'s retry policy backs off-and-resubmits.  E22's
overload leg shows 2x-capacity offered load sustaining the 1x
throughput with the queue bounded — shedding, not collapse.

How equivalence is tested
=========================

``tests/server/test_equivalence_properties.py`` drives random workloads
(hypothesis) through a frontend and replays the *same* requests, in the
order the frontend decided them, against an unbatched reference oracle —
for SI, WSI, and the bounded (Tmax) oracle — asserting equal decisions,
commit timestamps, ``lastCommit`` state and stats; a second family of
properties calls ``decide_batch`` directly (mid-batch conflict and
client aborts, read-only requests, all four oracle kinds, WAL-replay
equivalence against the sequential per-record log).  The stress tests
add timestamp-uniqueness and per-batch monotonicity invariants, and the
recovery tests crash the frontend mid-batch to check that WAL replay
restores exactly the durable prefix.  The begin-lease legs assert that
leased-begin histories match per-call-begin histories (same decisions,
strictly increasing start timestamps) and that no timestamp is ever
reissued across ``recover_from`` — including a crash mid-lease, where
the unserved remainder becomes a gap, never reuse.  Benchmarks E17/E18
(``benchmarks/test_e17_group_commit.py``, ``test_e18_batch_decide.py``)
measure the point of it all: the batched frontend sustains multiples of
the unbatched oracle's wall-clock ops/sec, and the batch-decide engine
multiplies the per-request flush loop again.
"""

from repro.server.frontend import (
    CLIENT_ABORT,
    DEFAULT_FLUSH_INTERVAL,
    DEFAULT_MAX_BATCH,
    CommitFuture,
    FlushedBatch,
    FrontendStats,
    FutureArena,
    OracleFrontend,
)
from repro.server.ha import (
    FrontendHost,
    HAFuture,
    ReplicatedFrontend,
    ReplicatedOracleFacade,
)
from repro.server.retry import RetryPolicy, call_with_retry
from repro.server.session import ClientSession

__all__ = [
    "OracleFrontend",
    "ClientSession",
    "CommitFuture",
    "FlushedBatch",
    "FrontendStats",
    "FutureArena",
    "ReplicatedFrontend",
    "ReplicatedOracleFacade",
    "FrontendHost",
    "HAFuture",
    "RetryPolicy",
    "call_with_retry",
    "CLIENT_ABORT",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_FLUSH_INTERVAL",
]
