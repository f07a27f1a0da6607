"""Partitioned status oracles: the paper's scale-out footnote, implemented.

§6.3, footnote 6: "the reported performance is for one status oracle
implemented on a simple dual-core machine.  To get a higher throughput,
one could partition the database and use a status oracle for each
partition."

:class:`PartitionedOracle` shards the ``lastCommit`` state by row hash
across N independent conflict-detection partitions while keeping a
single shared timestamp oracle, so timestamps still form one global
commit order and snapshot semantics are unchanged.  Rows are placed by a
process-independent :class:`~repro.core.sharding.ShardingPolicy` (by
default :func:`~repro.core.sharding.stable_hash` modulo the partition
count): every frontend, replica and recovered instance must agree on
which partition owns a row, which Python's salted builtin ``hash()``
cannot guarantee.  Commit handling:

* a transaction whose footprint touches **one** partition is decided by
  that partition alone — the common case the footnote envisions, and
  the source of the throughput scaling;
* a **cross-partition** transaction runs a two-phase decision: every
  involved partition validates its share of the checked rows through the
  shared bulk primitive
  (:meth:`~repro.core.status_oracle.StatusOracle.check_share`, phase 1);
  only if *all* shares pass is the commit timestamp assigned and every
  partition's ``lastCommit`` share installed (phase 2).  Because checks
  precede any update and the commit timestamp is allocated once, the
  outcome is identical to what a single monolithic oracle would decide —
  a property the test suite checks by differential execution.

* a **group-commit batch** (``decide_batch``, inherited from
  :class:`~repro.core.engine.CommitEngine`, over
  :meth:`PartitionedOracle._decide_batch`) decides the *whole* batch —
  single-partition and cross-partition requests alike — with one bulk
  protocol round per involved partition per flush, in three phases:

  1. **validate** — each involved partition checks all of its shares for
     the batch against its ``lastCommit`` in one round (one RPC per
     partition per flush in a distributed deployment), reporting the
     first conflicting row per share;
  2. **merge** — the coordinator resolves in-batch conflicts and
     assigns commit timestamps in batch order using only batch-local
     knowledge: rows written by an earlier *committed* batch member sit
     in their partition's *staged install share* until phase 3, and any
     checked row found there conflicts (every batch member began before
     any batch commit timestamp is issued, so the writer's Tc always
     exceeds the reader's Ts); the commit table, payloads and futures
     are filled along the way;
  3. **install** — every partition's staged share is bulk-installed
     once (one install RPC per partition per flush), each row at its
     last in-batch writer's Tc.

  ``lastCommit`` never holds a provisional value, so an error escaping
  mid-batch leaves only fully-applied prefixes behind, exactly like
  sequential :meth:`commit` calls.  Decisions, timestamps, conflict
  rows, per-partition stats, commit table — all land exactly as the
  sequential path would leave them; the hypothesis suite in
  ``tests/server`` pins this for mixed single/cross batches, client
  aborts, read-only requests and mid-batch commit-table errors.

The isolation policy (which rows are checked) is inherited per-partition
from the usual SI/WSI oracles, so the partitioned deployment serves
either level.

Two axes of the deployment are pluggable (the pluggable-executor PR),
and they are deliberately orthogonal — placement policy vs round
mechanism, the narrow interface the MetaSys line of work argues for:

* **who drives the rounds** — the batch protocol's per-partition
  validation and install rounds are extracted into closures dispatched
  through a :class:`~repro.core.executor.PartitionExecutor`.  Each
  partition shard carries its own lock, so rounds on *different*
  partitions are safe to overlap: :class:`~repro.core.executor.SerialExecutor`
  (default) runs them inline exactly as before, while
  :class:`~repro.core.executor.ParallelExecutor` fans them out over a
  thread pool and joins at the existing merge barrier.  Round work that
  releases the GIL — a real per-partition RPC, or the ``round_latency``
  sleep benchmark E21 injects to model one — then overlaps for real
  wall-clock; the executor choice never changes decisions.
* **where a row lives** — routing goes through a
  :class:`~repro.core.sharding.ShardingPolicy` (``sharding=``, the one
  placement option): :class:`~repro.core.sharding.HashSharding` (the
  default), :class:`~repro.core.sharding.RangeSharding` (contiguous key
  bands), or :class:`~repro.core.sharding.DirectorySharding` (explicit
  group affinity) — the lever that converts cross-partition traffic
  into aligned traffic instead of merely amortizing it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.racecheck import active_checker, make_lock
from repro.core.commit_table import CommitTable
from repro.core.engine import CommitEngine
from repro.core.errors import OracleClosed
from repro.core.executor import (
    PartitionExecutor,
    SerialExecutor,
    make_executor,
)
from repro.core.sharding import (
    INT_IDENTITY_BOUND,
    HashSharding,
    ShardingPolicy,
    stable_hash,
)
from repro.core.lastcommit import ArrayLastCommit
from repro.core.status_oracle import (
    CLIENT_ABORT,
    CommitRequest,
    CommitResult,
    OracleStats,
    StatusOracle,
    make_oracle,
)
from repro.core.timestamps import TimestampOracle

RowKey = Hashable


@dataclass
class BatchRounds:
    """Protocol-round counters of the batch-decide engine.

    One *check round* is one per-partition bulk validation pass (phase
    1) and one *install round* one per-partition bulk install (phase 3)
    — each maps to a single RPC per partition per flush in a distributed
    deployment, which is the whole point of the protocol: a flush of 32
    requests over 4 partitions costs at most 8 rounds instead of up to
    64 per-request partition visits.
    """

    flushes: int = 0
    check_rounds: int = 0
    install_rounds: int = 0
    single_requests: int = 0
    cross_requests: int = 0
    #: most rounds driven on any one partition this flush (<= 2 under
    #: the protocol: one validation plus one install) — the per-flush
    #: occupancy bound that makes E21's overlap claim observable: with a
    #: parallel executor the flush's round wall-clock tracks this, not
    #: check_rounds + install_rounds.
    max_partition_rounds: int = 0
    #: executor wall-clock of the phase-1 validation fan-out (seconds).
    validate_wall: float = 0.0
    #: executor wall-clock of the phase-3 install fan-out (seconds).
    install_wall: float = 0.0

    def add(self, other: "BatchRounds") -> None:
        self.flushes += other.flushes
        self.check_rounds += other.check_rounds
        self.install_rounds += other.install_rounds
        self.single_requests += other.single_requests
        self.cross_requests += other.cross_requests
        if other.max_partition_rounds > self.max_partition_rounds:
            self.max_partition_rounds = other.max_partition_rounds
        self.validate_wall += other.validate_wall
        self.install_wall += other.install_wall


class PartitionedOracle(CommitEngine):
    """N conflict-detection partitions behind one timestamp oracle.

    A :class:`~repro.core.engine.CommitEngine` with the same ``begin`` /
    ``commit`` / ``abort`` / ``decide_batch`` surface as
    :class:`~repro.core.status_oracle.StatusOracle`, so the transaction
    client, the frontend and the benchmarks use it interchangeably.  It
    owns no WAL (``_wal`` stays ``None``): the group-commit frontend
    supplies durability.

    Args:
        level: isolation level, ``"si"`` or ``"wsi"``.
        num_partitions: how many conflict-detection shards.
        timestamp_oracle: the shared TSO (one is created if omitted).
        sharding: a :class:`~repro.core.sharding.ShardingPolicy`, which
            must place rows deterministically across processes; defaults
            to ``HashSharding()`` (``stable_hash`` modulo the partition
            count).
        executor: who drives the batch protocol's per-partition rounds —
            ``"serial"`` (default), ``"parallel"``, or a
            :class:`~repro.core.executor.PartitionExecutor` instance.
            When omitted, the ``REPRO_EXECUTOR`` environment variable
            picks the default.  An executor *built here* is owned and
            shut down by :meth:`close`; a passed-in instance stays the
            caller's.  Executor choice never changes decisions.
        round_latency: injected latency (seconds) slept at the start of
            every batch-protocol validation/install round, modeling the
            per-partition commit-table RPC of a distributed deployment
            (``time.sleep`` releases the GIL, so a parallel executor
            overlaps it for real — benchmark E21's lever).  Zero
            (default) keeps rounds free; the per-request ``commit()``
            path never sleeps.
    """

    def __init__(
        self,
        level: str = "wsi",
        num_partitions: int = 4,
        timestamp_oracle: Optional[TimestampOracle] = None,
        sharding: Optional[ShardingPolicy] = None,
        executor: Any = None,
        round_latency: float = 0.0,
        lastcommit: Any = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if round_latency < 0:
            raise ValueError("round_latency must be >= 0")
        if lastcommit is not None and not isinstance(lastcommit, str):
            # A concrete store instance would be *shared* across shards,
            # which breaks the per-shard interner premise — only a kind
            # string (resolved per shard) is meaningful here.
            raise ValueError(
                "PartitionedOracle takes a lastcommit kind string "
                "('dict'/'array'), not a store instance"
            )
        self.level = level
        self._tso = timestamp_oracle or TimestampOracle()
        self._sharding = sharding or HashSharding()
        # Routing fast path: the default hash placement inlines the
        # per-row policy call (stable_hash % n, with small non-negative
        # ints hashing to themselves) in _split / _single_partition_of.
        self._fast_hash = type(self._sharding) is HashSharding
        self.round_latency = round_latency
        # The executor drives the batch protocol's per-partition rounds;
        # only an executor built *here* is owned (shut down on close).
        self._owns_executor = not isinstance(executor, PartitionExecutor)
        self._executor: PartitionExecutor = make_executor(
            executor, max_workers=num_partitions
        )
        # Every partition shares the TSO (one global commit order) and
        # gets its own lastCommit + stats; their private commit tables
        # are unused — the partitioned deployment keeps one authoritative
        # commit table, like the monolithic oracle.  Under the array
        # backend each shard gets its *own* interner (ids are per-shard
        # dense, never shared — the shared-nothing premise of the
        # partition-server design), built fresh per shard by
        # make_lastcommit inside make_oracle.
        self.partitions: List[StatusOracle] = [
            make_oracle(level, timestamp_oracle=self._tso,
                        lastcommit=lastcommit)
            for _ in range(num_partitions)
        ]
        # One lock per shard, held for the duration of that shard's
        # round closure: rounds on different partitions may overlap
        # freely (the parallel executor's licence), rounds on the same
        # partition serialize.  The coordinator itself (merge pass,
        # per-request commit()) stays single-threaded by construction.
        # Locks come from repro.analysis.racecheck, so REPRO_RACECHECK=1
        # runs lock-order/guard checking on the real protocol locks.
        # guarded-by: _last_commit -> _shard_locks
        self._shard_locks: List[threading.Lock] = [
            make_lock(f"shard[{i}]") for i in range(num_partitions)
        ]
        rc = active_checker()
        if rc is not None:
            for i in range(num_partitions):
                rc.register_state(f"shard[{i}].lastCommit", f"shard[{i}]")
                # The array backend's interner mutates on install (a new
                # row key assigns a slot id), so it shares the shard
                # lock's discipline and is checked as its own state.
                if isinstance(self.partitions[i]._last_commit,
                              ArrayLastCommit):
                    rc.register_state(
                        f"shard[{i}].interner", f"shard[{i}]"
                    )
        self.commit_table = CommitTable()
        self.stats = OracleStats()
        self.cross_partition_commits = 0
        self.cross_partition_aborts = 0
        self.single_partition_commits = 0
        self.single_partition_aborts = 0
        #: accumulated protocol rounds across every decide_batch call.
        self.round_stats = BatchRounds()
        #: rounds of the most recent decide_batch call (the frontend
        #: copies this onto its FlushedBatch).
        self.last_flush_rounds: Optional[BatchRounds] = None
        self._closed = False

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def partition_of(self, row: RowKey) -> int:
        return self._sharding.partition_of(row, len(self.partitions))

    def _split(self, rows: FrozenSet[RowKey]) -> Dict[int, List[RowKey]]:
        num = len(self.partitions)
        shares: Dict[int, List[RowKey]] = {}
        setdefault = shares.setdefault
        # _split is hot (E18/E19): with the default placement, small
        # non-negative integer rows hash to themselves, so the per-row
        # stable_hash call is inlined away for them (its identity rule,
        # bound included so cross-type numeric equality holds).
        # Shares are lists (the input is a set, so rows are already
        # unique): they are cheaper to build and to scan than sets, and
        # their order — the footprint's iteration order restricted to
        # the partition — is what both decision paths scan, keeping
        # conflict rows identical across them.
        if self._fast_hash:
            for row in rows:
                if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                    p = row % num
                else:
                    p = stable_hash(row) % num
                setdefault(p, []).append(row)
        else:
            p_of = self._sharding.partition_of
            for row in rows:
                setdefault(p_of(row, num), []).append(row)
        return shares

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def begin(self) -> int:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        return self._tso.next()

    def lease(self, n: int) -> Tuple[int, int]:
        """Lease a contiguous block of ``n`` start timestamps from the
        shared TSO (the begin-side counterpart of :meth:`decide_batch`;
        see :meth:`repro.core.status_oracle.StatusOracle.lease`).  The
        block stays one global commit order: every partition's commit
        timestamps are assigned from the same cursor, above the block."""
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        return self._tso.lease(n)

    def commit(self, request: CommitRequest) -> CommitResult:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")

        # Read-only fast path, identical to the monolithic oracle
        # (§4.1 condition 3 / §5.1: an empty write set never aborts,
        # whether or not the client submitted its read set).
        if request.is_read_only:
            self.stats.commits += 1
            self.stats.read_only_commits += 1
            return CommitResult(True, request.start_ts, commit_ts=None)

        pid = self._single_partition_of(request)
        if pid >= 0:
            # The common case the §6.3 footnote envisions: the whole
            # footprint lives in one partition — decided there directly,
            # with no share splitting or share-request construction.
            return self._commit_single(request, pid)
        return self._commit_cross(request)

    def _single_partition_of(self, request: CommitRequest) -> int:
        """The single partition owning the whole footprint, or -1.

        Under SI the checked rows *are* the write set, so only WSI needs
        the second (read-set) scan.
        """
        num = len(self.partitions)
        if num == 1:
            return 0
        if not self._fast_hash:
            # Non-default policy: every row through partition_of.
            p_of = self._sharding.partition_of
            pid = -1
            for row in request.write_set:
                p = p_of(row, num)
                if pid < 0:
                    pid = p
                elif p != pid:
                    return -1
            if self.level == "wsi":
                for row in request.read_set:
                    p = p_of(row, num)
                    if pid < 0:
                        pid = p
                    elif p != pid:
                        return -1
            return pid
        # Same inlined integer fast path as _split: this scan runs for
        # every non-read-only request, batched or not.
        pid = -1
        for row in request.write_set:
            if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                p = row % num
            else:
                p = stable_hash(row) % num
            if pid < 0:
                pid = p
            elif p != pid:
                return -1
        if self.level == "wsi":
            for row in request.read_set:
                if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                    p = row % num
                else:
                    p = stable_hash(row) % num
                if pid < 0:
                    pid = p
                elif p != pid:
                    return -1
        return pid

    def _commit_single(self, request: CommitRequest, pid: int) -> CommitResult:
        """Decide a single-partition request against one shard directly."""
        partition = self.partitions[pid]
        lc = partition._last_commit
        lc_get = lc.get
        start = request.start_ts
        checked = 0
        conflict_row = None
        for row in self.rows_to_check(request):
            checked += 1
            last = lc_get(row)
            if last is not None and last > start:
                conflict_row = row
                break
        partition.stats.rows_checked += checked
        if conflict_row is not None:
            reason = "rw-conflict" if self.level == "wsi" else "ww-conflict"
            self.stats.aborts += 1
            self.stats.conflict_aborts += 1
            self.single_partition_aborts += 1
            self.commit_table.record_abort(start)
            return CommitResult(
                False, start, reason=reason, conflict_row=conflict_row
            )
        commit_ts = self._tso.next()
        for row in request.write_set:
            # lint: skip=guarded-by -- coordinator-only serial path; no
            # shard rounds are in flight during a direct commit().
            lc[row] = commit_ts
        self.stats.rows_updated += len(request.write_set)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        self.single_partition_commits += 1
        return CommitResult(True, start, commit_ts=commit_ts)

    def _commit_cross(self, request: CommitRequest) -> CommitResult:
        """Two-phase decision for one cross-partition footprint.

        Phase 1 hands each involved partition its share of the checked
        rows through the shared bulk primitive
        (:meth:`~repro.core.status_oracle.StatusOracle.check_share`);
        phase 2 assigns Tc once and installs every write share.  The
        batch engine runs the same share validation, amortized over a
        whole flush (one round per partition per batch instead of one
        visit per partition per request).
        """
        start = request.start_ts
        check_shares = self._split(self.rows_to_check(request))
        # Under SI the checked rows *are* the write set: one split
        # serves both phases.
        write_shares = (
            self._split(request.write_set)
            if self.level == "wsi"
            else check_shares
        )

        # Phase 1: every involved partition validates its share (for SI
        # the write share, for WSI the read share).
        for pid in sorted(check_shares):
            partition = self.partitions[pid]
            row, checked = partition.check_share(check_shares[pid], start)
            partition.stats.rows_checked += checked
            if row is not None:
                reason = "rw-conflict" if self.level == "wsi" else "ww-conflict"
                self.stats.aborts += 1
                self.stats.conflict_aborts += 1
                self.cross_partition_aborts += 1
                self.commit_table.record_abort(start)
                return CommitResult(
                    False, start, reason=reason, conflict_row=row
                )

        # Phase 2: decision is commit — assign Tc once, install shares.
        commit_ts = self._tso.next()
        for pid, rows in write_shares.items():
            self.partitions[pid]._install(rows, commit_ts)
            self.stats.rows_updated += len(rows)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        self.cross_partition_commits += 1
        return CommitResult(True, start, commit_ts=commit_ts)

    def abort(self, start_ts: int) -> None:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        self.commit_table.record_abort(start_ts)
        self.stats.aborts += 1

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        if self.level == "si":
            return request.write_set
        return request.read_set

    # ------------------------------------------------------------------
    # per-partition round closures: the executor's unit of work
    # ------------------------------------------------------------------
    def _validation_round(self, pid: int, group: list) -> Callable[[], list]:
        """Build one partition's phase-1 bulk validation round.

        The closure sleeps the injected ``round_latency`` (the modeled
        per-partition RPC), takes its shard's lock, and scans every
        share of the batch against this shard's ``lastCommit`` — the
        :meth:`StatusOracle.check_share` scan inlined with locally-bound
        state plus the C-speed ``isdisjoint`` prefilter (a share
        touching no ever-written row, the common case under a large
        keyspace, costs one membership sweep).  It returns ``(entry,
        pid, conflict_row)`` verdicts instead of writing entry slots so
        all entry mutation stays on the coordinator thread.
        """
        partition = self.partitions[pid]
        lock = self._shard_locks[pid]
        delay = self.round_latency
        rc = active_checker()
        shard_state = f"shard[{pid}].lastCommit"

        def validation_round() -> list:
            if delay:
                time.sleep(delay)
            verdicts = []
            with lock:
                if rc is not None:
                    rc.access(shard_state)
                lc = partition._last_commit
                if lc.__class__ is ArrayLastCommit:
                    # Vectorised share scan: same first-conflict-in-
                    # share-order verdict as the probe loop below.
                    scan = lc.scan_conflict
                    for entry, share, start in group:
                        row, _ = scan(share, start)
                        if row is not None:
                            verdicts.append((entry, pid, row))
                    return verdicts
                lc_get = lc.get
                lc_isdisjoint = lc.keys().isdisjoint
                for entry, share, start in group:
                    if lc_isdisjoint(share):
                        continue
                    for row in share:
                        last = lc_get(row)
                        if last is not None and last > start:
                            verdicts.append((entry, pid, row))
                            break
            return verdicts

        return validation_round

    def _install_round(
        self, pid: int, staged: Dict[RowKey, int]
    ) -> Callable[[], None]:
        """Build one partition's phase-3 bulk install round: sleep the
        injected round latency, take the shard lock, land the staged
        share in one ``dict.update``."""
        partition = self.partitions[pid]
        lock = self._shard_locks[pid]
        delay = self.round_latency
        rc = active_checker()
        shard_state = f"shard[{pid}].lastCommit"

        def install_round() -> None:
            if delay:
                time.sleep(delay)
            with lock:
                if rc is not None:
                    rc.access(shard_state)
                partition._last_commit.update(staged)

        return install_round

    # ------------------------------------------------------------------
    # the batch-decide fast path: one bulk round per partition per flush.
    # ``decide_batch`` itself is the template inherited from
    # :class:`~repro.core.engine.CommitEngine`; with ``_wal`` None it
    # writes no record (the group-commit frontend supplies durability).
    # ------------------------------------------------------------------
    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """Batch engine: the cross-partition batch protocol.

        The whole batch — single-partition, cross-partition, read-only
        and client-abort items alike — is decided with **one bulk round
        per involved partition per flush** (the module docstring walks
        through the three phases); no item falls back to a per-request
        decision.  In a distributed deployment this is one validation
        RPC and one install RPC per partition per flush, instead of one
        partition visit per request — §6.3 footnote 6's amortization,
        now independent of workload shape.

        Correctness of deferred timestamping: a check that hits a row
        written by an *earlier committed* batch member always conflicts
        regardless of the writer's commit timestamp — every batch member
        began before any batch commit timestamp is issued — so the merge
        pass consults each partition's *staged install share* (written
        rows awaiting the phase-3 bulk install, keyed exactly like
        ``lastCommit``) alongside the validation round's verdicts,
        scanning each request's checked rows in the sequential order
        (first conflicting row and per-partition ``rows_checked`` counts
        included).  Commit timestamps are assigned in batch order inside
        the same pass; a row written by several batch members ends
        staged at its last writer's Tc, which is the value the single
        bulk install lands — as sequential installs would leave it.
        ``lastCommit`` never holds a provisional value, so an error
        escaping mid-batch leaves only fully-applied prefixes behind,
        exactly like sequential :meth:`commit` calls.  Per-request
        commit-table errors are isolated to their request, as in the
        monolithic engines.
        """
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        ct = self.commit_table
        # Replicas subscribed to the commit table must see every decision,
        # so only bypass its record methods when nobody is listening (the
        # monolithic engines' fast path, duplicated here per the inline
        # convention).
        fast_ct = not ct._subscribers
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        partitions = self.partitions
        num = len(partitions)
        wsi = self.level == "wsi"
        reason_tag = "rw-conflict" if wsi else "ww-conflict"
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        fromkeys = dict.fromkeys

        # ---- routing ------------------------------------------------
        # One entry per item: [kind, req, fut, route, lc_conflict].
        # kind: "ca" client abort | "ro" read-only | "sp"
        # single-partition | "xp" cross-partition.  Entry layout (flat —
        # one unpack per pass):
        #   sp: [kind, req, fut, pid,          check_rows, None,         lc]
        #   xp: [kind, req, fut, check_shares, check_pids, write_shares, lc]
        # where lc is filled by the validation round — the first
        # lastCommit-conflicting row (sp) or {pid: row} (xp).
        run: List[list] = []
        run_append = run.append
        # Per-partition work list of the validation round, batch order.
        shard_groups: List[Optional[list]] = [None] * num
        single_requests = cross_requests = 0
        for item in batch:
            req, fut = item if item.__class__ is tuple else (item, None)
            if req.__class__ is not CommitRequest:
                run_append(["ca", req, fut, None, None, None, None])
                continue
            if not req.write_set:
                run_append(["ro", req, fut, None, None, None, None])
                continue
            pid = self._single_partition_of(req)
            if pid >= 0:
                single_requests += 1
                rows = req.read_set if wsi else req.write_set
                entry = ["sp", req, fut, pid, rows, None, None]
                run_append(entry)
                group = shard_groups[pid]
                if group is None:
                    group = shard_groups[pid] = []
                group.append((entry, rows, req.start_ts))
                continue
            cross_requests += 1
            check_shares = self._split(
                req.read_set if wsi else req.write_set
            )
            write_shares = self._split(req.write_set) if wsi else check_shares
            entry = [
                "xp", req, fut,
                check_shares, sorted(check_shares), write_shares,
                None,
            ]
            run_append(entry)
            start = req.start_ts
            for spid, share in check_shares.items():
                group = shard_groups[spid]
                if group is None:
                    group = shard_groups[spid] = []
                group.append((entry, share, start))

        # ---- phase 1: one bulk validation round per partition -------
        # Each involved partition checks all of its shares for the batch
        # against lastCommit (the state as of batch start — installs
        # happen in phase 3, so round order between partitions is
        # irrelevant) in one round *closure* dispatched through the
        # executor — inline under SerialExecutor, overlapped across
        # partitions under ParallelExecutor (each round holds its own
        # shard lock and only reads its shard, so ordering between
        # partitions never matters).  Verdicts — the first conflicting
        # row per share — come back with the join and are applied to the
        # entries by the coordinator, single-threaded.  rows_checked is
        # NOT counted here: the merge pass attributes it in
        # sequential-equivalent order, stopping where a sequential scan
        # would have stopped.
        check_rounds = 0
        validate_wall = 0.0
        # Serial rounds with no injected latency take the pre-executor
        # inline loop — zero closure/dispatch cost on the measured hot
        # path (E18/E19), byte-identical state evolution; any other
        # executor/latency combination goes through the round closures.
        # Per the engines' inline convention this duplicates the
        # _validation_round scan: change one, change both (the
        # hypothesis suite pins serial ≡ parallel to keep it honest).
        serial_inline = (
            self.round_latency == 0.0
            and type(self._executor) is SerialExecutor
        )
        if serial_inline:
            t0 = perf_counter()
            for pid in range(num):
                group = shard_groups[pid]
                if group is None:
                    continue
                check_rounds += 1
                lc = partitions[pid]._last_commit
                lc_get = lc.get
                lc_isdisjoint = lc.keys().isdisjoint
                for entry, share, start in group:
                    if lc_isdisjoint(share):
                        continue
                    for row in share:
                        last = lc_get(row)
                        if last is not None and last > start:
                            if entry[0] == "sp":
                                entry[6] = row
                            else:
                                conf = entry[6]
                                if conf is None:
                                    conf = entry[6] = {}
                                conf[pid] = row
                            break
            validate_wall = perf_counter() - t0
        else:
            validate_tasks = []
            for pid in range(num):
                group = shard_groups[pid]
                if group is not None:
                    check_rounds += 1
                    validate_tasks.append(self._validation_round(pid, group))
            if validate_tasks:
                t0 = perf_counter()
                verdict_lists = self._executor.run(validate_tasks)
                validate_wall = perf_counter() - t0
                for verdicts in verdict_lists:
                    for entry, pid, row in verdicts:
                        if entry[0] == "sp":
                            entry[6] = row
                        else:
                            conf = entry[6]
                            if conf is None:
                                conf = entry[6] = {}
                            conf[pid] = row

        # ---- phase 2: merge + assignment in batch order -------------
        # installs[pid] doubles as the staged install share *and* the
        # in-batch pending state: a key is a row some earlier committed
        # batch member wrote, so finding a checked row there is a
        # conflict; its value is the last writer's Tc, which phase 3
        # bulk-installs.  checked_by[pid] counts rows examined exactly
        # as the sequential scan would (early stop at the first
        # conflict, later partitions of a cross request unvisited).
        installs: List[Optional[Dict[RowKey, int]]] = [None] * num
        # Union of every staged row across partitions: one C-speed
        # membership sweep decides the no-in-batch-conflict common case
        # per request (a row lives in exactly one partition, so a hit in
        # the union is always a hit in the row's own partition).
        staged: Set[RowKey] = set()
        staged_iso = staged.isdisjoint
        staged_update = staged.update
        checked_by = [0] * num
        st = self.stats
        commits = conflict_aborts = client_aborts = ro_commits = 0
        single_commits = single_aborts = cross_commits = cross_aborts = 0
        rows_updated = 0
        nxt = tso._next
        reserved = tso._reserved_until
        issued = 0
        try:
            for kind, req, fut, a, b, c, lc_conf in run:
                if kind == "ca":
                    try:
                        if fast_ct:
                            if req in ct_commits:
                                raise ValueError(
                                    f"txn {req} already committed; "
                                    "cannot abort"
                                )
                            ct_aborted.add(req)
                        else:
                            ct.record_abort(req)
                    except Exception as exc:
                        errors.append((req, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    client_aborts += 1
                    pa_append(req)
                    if fut is not None:
                        fut._reason = CLIENT_ABORT
                    if res_append is not None:
                        res_append(
                            CommitResult(False, req, reason=CLIENT_ABORT)
                        )
                    continue
                start = req.start_ts
                if kind == "ro":
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                # merge: decide against the validation verdict plus the
                # staged installs of earlier committed batch members.
                conflict_row = None
                if kind == "sp":
                    pid = a
                    rows = b
                    if lc_conf is None and staged_iso(rows):
                        checked_by[pid] += len(rows)
                    else:
                        inst = installs[pid]
                        checked = 0
                        for row in rows:
                            checked += 1
                            if (inst is not None and row in inst) or (
                                lc_conf is not None and row == lc_conf
                            ):
                                conflict_row = row
                                break
                        checked_by[pid] += checked
                else:
                    check_shares, check_pids, write_shares = a, b, c
                    if lc_conf is None and staged_iso(
                        req.read_set if wsi else req.write_set
                    ):
                        for pid in check_pids:
                            checked_by[pid] += len(check_shares[pid])
                    else:
                        # Suspected conflict: re-scan in the sequential
                        # order (sorted partitions, share order within)
                        # so the conflict row and per-partition
                        # rows_checked land exactly as commit() would.
                        for pid in check_pids:
                            share = check_shares[pid]
                            lc_row = (
                                None if lc_conf is None else lc_conf.get(pid)
                            )
                            inst = installs[pid]
                            checked = 0
                            for row in share:
                                checked += 1
                                if (inst is not None and row in inst) or (
                                    lc_row is not None and row == lc_row
                                ):
                                    conflict_row = row
                                    break
                            checked_by[pid] += checked
                            if conflict_row is not None:
                                break
                if conflict_row is not None:
                    try:
                        if fast_ct:
                            if start in ct_commits:
                                raise ValueError(
                                    f"txn {start} already committed; "
                                    "cannot abort"
                                )
                            ct_aborted.add(start)
                        else:
                            ct.record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    conflict_aborts += 1
                    if kind == "sp":
                        single_aborts += 1
                    else:
                        cross_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = reason_tag
                        fut._row = conflict_row
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start,
                                reason=reason_tag, conflict_row=conflict_row,
                            )
                        )
                    continue
                # commit: assign Tc (inlined tso.next with the same
                # reservation protocol), stage the install shares.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                ws = req.write_set
                staged_update(ws)
                if kind == "sp":
                    inst = installs[a]
                    if inst is None:
                        installs[a] = fromkeys(ws, cts)
                    else:
                        inst.update(fromkeys(ws, cts))
                else:
                    # write shares are tiny (a few rows each): direct
                    # assignment beats a fromkeys dict per share.
                    for pid, share in write_shares.items():
                        inst = installs[pid]
                        if inst is None:
                            inst = installs[pid] = {}
                        for row in share:
                            inst[row] = cts
                rows_updated += len(ws)
                try:
                    if fast_ct:
                        if cts <= start:
                            raise ValueError(
                                f"commit_ts {cts} must exceed start_ts {start}"
                            )
                        if start in ct_aborted:
                            raise ValueError(
                                f"txn {start} already aborted; cannot commit"
                            )
                        ct_commits[start] = cts
                    else:
                        ct.record_commit(start, cts)
                except Exception as exc:
                    # Same partial effects as the unbatched oracle, which
                    # installs the write set and consumes Tc before its
                    # commit-table write raises — but here the error stays
                    # with this request instead of killing the batch.
                    errors.append((start, exc))
                    if fut is not None:
                        fut._error = exc
                    if res_append is not None:
                        res_append(None)
                    continue
                commits += 1
                if kind == "sp":
                    single_commits += 1
                else:
                    cross_commits += 1
                pc_append((start, cts, ws))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                if res_append is not None:
                    res_append(CommitResult(True, start, commit_ts=cts))
        finally:
            # ---- phase 3: one bulk install round per partition ------
            # As in the monolithic engines, this runs even if an error
            # escapes mid-batch (e.g. a timestamp-reservation WAL
            # failure): the staged prefix is exactly what sequential
            # commit() calls would have installed before failing.  Each
            # install is a round closure (disjoint shard, own lock) —
            # the second executor fan-out; rows_checked attribution is
            # coordinator-side accounting, not an RPC, so it stays
            # inline after the join.
            install_rounds = 0
            install_wall = 0.0
            max_partition_rounds = 0
            if serial_inline:
                # Inline twin of _install_round (see the phase-1 note).
                t0 = perf_counter()
                for pid in range(num):
                    inst = installs[pid]
                    if inst is not None:
                        install_rounds += 1
                        # lint: skip=guarded-by -- serial_inline twin of
                        # _install_round: single-threaded by its guard.
                        partitions[pid]._last_commit.update(inst)
                    occupancy = (
                        (shard_groups[pid] is not None) + (inst is not None)
                    )
                    if occupancy > max_partition_rounds:
                        max_partition_rounds = occupancy
                install_wall = perf_counter() - t0
            else:
                install_tasks = []
                for pid in range(num):
                    inst = installs[pid]
                    if inst is not None:
                        install_rounds += 1
                        install_tasks.append(self._install_round(pid, inst))
                    occupancy = (
                        (shard_groups[pid] is not None) + (inst is not None)
                    )
                    if occupancy > max_partition_rounds:
                        max_partition_rounds = occupancy
                if install_tasks:
                    t0 = perf_counter()
                    self._executor.run(install_tasks)
                    install_wall = perf_counter() - t0
            for pid in range(num):
                n = checked_by[pid]
                if n:
                    partitions[pid].stats.rows_checked += n
            tso._next = nxt
            tso._issued += issued
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.rows_updated += rows_updated
            self.single_partition_commits += single_commits
            self.cross_partition_commits += cross_commits
            self.single_partition_aborts += single_aborts
            self.cross_partition_aborts += cross_aborts
            rounds = BatchRounds(
                flushes=1,
                check_rounds=check_rounds,
                install_rounds=install_rounds,
                single_requests=single_requests,
                cross_requests=cross_requests,
                max_partition_rounds=max_partition_rounds,
                validate_wall=validate_wall,
                install_wall=install_wall,
            )
            self.last_flush_rounds = rounds
            self.round_stats.add(rounds)
        return (
            commits + ro_commits,
            conflict_aborts + client_aborts,
            sum(checked_by),
            rows_updated,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def last_commit(self, row: RowKey) -> Optional[int]:
        return self.partitions[self.partition_of(row)].last_commit(row)

    @property
    def timestamp_oracle(self) -> TimestampOracle:
        return self._tso

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def sharding(self) -> ShardingPolicy:
        return self._sharding

    @property
    def executor(self) -> PartitionExecutor:
        return self._executor

    def cross_partition_fraction(self) -> float:
        """Fraction of *decisions* (commits and conflict aborts alike)
        whose footprint crossed partitions.  Counting only commits would
        report a misleading ~0 on a heavily-conflicting cross-partition
        workload; read-only commits and client aborts involve no
        partition and are excluded."""
        cross = self.cross_partition_commits + self.cross_partition_aborts
        total = (
            cross
            + self.single_partition_commits
            + self.single_partition_aborts
        )
        return cross / total if total else 0.0

    def shutdown_executor(self) -> None:
        """Join an *owned* executor's worker threads (idempotent).

        The oracle stays usable afterwards: rounds fall back to a fresh
        :class:`~repro.core.executor.SerialExecutor`, which decides
        identically (executor choice is performance policy, never
        semantics).  A passed-in executor instance is left running — its
        creator owns its lifecycle.  :meth:`close` calls this, and
        :meth:`repro.server.OracleFrontend.close` propagates it, so no
        worker thread dangles after tests tear a deployment down.
        """
        if self._owns_executor and not isinstance(self._executor, SerialExecutor):
            self._executor.shutdown()
            self._executor = SerialExecutor()

    def close(self) -> None:
        self._closed = True
        self.shutdown_executor()
