"""The group-commit oracle frontend: batched conflict detection.

§6.3 reports that "the current implementation of status oracle executes
the conflict detection algorithm in a critical section" and that the
oracle reaches its throughput only because the per-request costs —
entering the critical section, and above all persisting the decision via
BookKeeper — are *amortized* over many concurrent commit requests.  The
seed :class:`~repro.core.status_oracle.StatusOracle` pays every one of
those costs per request; :class:`OracleFrontend` restores the paper's
amortization:

* commit/abort requests from many logical client sessions are coalesced
  into bounded batches (a count bound, ``max_batch``, and a flush
  interval in injected time, mirroring the WAL's own 1 KB / 5 ms policy
  from Appendix A);
* conflict detection for the whole batch runs inside **one** critical
  section, in submission order, through the backend's own
  :meth:`~repro.core.status_oracle.StatusOracle.decide_batch` engine —
  one bulk pass, not one ``commit()`` call per request — so the
  decisions are observationally identical to feeding the unbatched
  oracle the same requests in batch order (the property suite in
  ``tests/server`` proves this for SI, WSI, the bounded and the
  partitioned oracle);
* the batch's decisions are persisted as a **single**
  :data:`~repro.wal.bookkeeper.GROUP_COMMIT_RECORD` WAL record, and the
  per-request futures resolve only at flush time — group commit.

The frontend never changes *what* is decided, only *when* the decision
is computed and persisted — the same thin-frontend property MetaSys-style
metadata layers rely on, and the property this repo's equivalence tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.analysis.racecheck import active_checker, make_lock
from repro.core.engine import CommitEngine
from repro.core.errors import DecisionPending, OracleClosed, Overloaded
from repro.core.status_oracle import (
    CLIENT_ABORT,
    CommitRequest,
    CommitResult,
)
from repro.wal.bookkeeper import BookKeeperWAL, group_commit_payload

#: Default batch bound: 32 decisions fill exactly one 1 KB WAL entry at
#: Appendix A's 32 B per record, so one frontend batch maps onto one
#: BookKeeper ledger write.
DEFAULT_MAX_BATCH = 32
#: Default flush interval mirrors the WAL's 5 ms time trigger.
DEFAULT_FLUSH_INTERVAL = 0.005


@dataclass
class FlushedBatch:
    """One frontend batch: created when the batch opens, filled at flush.

    ``on_flush`` listeners receive it after the group-commit WAL record
    is queued but *before* ``flushed`` flips true (i.e. before any future
    reports done), so a simulator can attach a durability event first.
    The decision payloads are the group-commit record's normal form
    (:func:`~repro.wal.bookkeeper.group_commit_payload`: tuples all the
    way down, ``rows`` included) in decision order — with a WAL attached
    ``committed_payload`` *is* ``record.payload[0]``, not a copy, so a
    batch pinned by a client's future costs the collector nothing the
    log does not already hold.  Callback-style clients (and the
    throughput bench's ``submit_commit_nowait`` path) read outcomes from
    here without per-request future objects.
    """

    flushed: bool = False
    seq: int = 0
    trigger: str = ""  # "count" | "timer" | "force" | "close" | "failed"
    #: How many batch items (commit requests + client aborts) this batch
    #: admitted — the admission-control unit released when the batch is
    #: durable (read-only fast-path requests never join a batch).
    requests: int = 0
    #: Futures of this batch, in submission order (nowait submissions
    #: contribute none); populated at submit time, emptied once the
    #: batch resolves so one retained future doesn't pin its siblings.
    #: ``on_flush`` listeners see the full list.
    futures: List["CommitFuture"] = None  # type: ignore[assignment]
    commits: int = 0
    aborts: int = 0
    rows_checked: int = 0
    rows_updated: int = 0
    wal_written: bool = False
    #: ``(start_ts, commit_ts, rows)`` per committed request, in order.
    committed_payload: Tuple = ()
    #: aborted start timestamps, in order.
    aborted_payload: Tuple = ()
    #: ``(start_ts, exception)`` per request whose decision raised (e.g.
    #: aborting an already-committed transaction) — the error is isolated
    #: to that request; the rest of the batch decides normally.
    errors: Tuple = ()
    #: Free slot for integrators (repro.sim stores the durability event).
    #: When a flush listener sets this, the batch's admission-control
    #: slots stay held until :meth:`OracleFrontend.mark_durable` is
    #: called (deferred durability); otherwise they release at flush.
    durable_event: Any = None
    #: True once this batch's admission slots were given back.
    released: bool = False
    #: True once some future of this batch registered a done-callback.
    has_callbacks: bool = False
    #: Per-partition protocol rounds this flush cost, when the backend
    #: is a :class:`~repro.core.partitioned.PartitionedOracle` decided
    #: through its batch engine (a
    #: :class:`~repro.core.partitioned.BatchRounds`); ``None`` for
    #: monolithic backends and per-request mode.  In a distributed
    #: deployment each check/install round is one RPC to one partition —
    #: this is the amortization the cross-partition batch protocol buys.
    protocol_rounds: Any = None

    @property
    def size(self) -> int:
        return self.commits + self.aborts


class CommitFuture:
    """The pending outcome of a batched commit (or abort) request.

    Resolved when the batch containing the request flushes.  Reading the
    outcome before resolution raises :class:`DecisionPending`; register a
    callback via :meth:`add_done_callback` to be notified at flush (the
    discrete-event simulator bridges this to an engine event).
    """

    # Slotted, every field initialised in __init__: a future is exactly
    # one object to the allocator and to the cyclic collector.  With
    # class-level defaults and lazily-set instance attributes CPython
    # gave every settled future a materialised (and collector-tracked)
    # ``__dict__`` on top — ~270 B and one more object for the collector
    # to walk per handle a client keeps, for the life of the handle.
    __slots__ = (
        "start_ts",
        "batch",
        "_done",  # true only for futures settled outside a batch flush
        "_committed",
        "_commit_ts",
        "_reason",
        "_row",
        "_error",
        "_result",
        "_cbs",
        "_owner",
    )

    def __init__(self, start_ts: int) -> None:
        self.start_ts = start_ts
        self.batch: Optional[FlushedBatch] = None
        self._done = False  # lint: skip=future-discipline -- initial state, not a settle
        self._committed = False
        self._commit_ts: Optional[int] = None
        self._reason = ""
        self._row: Any = None
        self._error: Optional[BaseException] = None
        self._result: Optional[CommitResult] = None  # lint: skip=future-discipline -- initial state
        self._cbs: Optional[List[Callable[["CommitFuture"], None]]] = None
        #: The :class:`~repro.server.session.ClientSession` that tallies
        #: this future's outcome (see :meth:`_attach_owner`).
        self._owner: Any = None

    @property
    def done(self) -> bool:
        if self._done:
            return True
        batch = self.batch
        return batch is not None and batch.flushed

    @property
    def error(self) -> Optional[BaseException]:
        """The exception this request's decision raised, if any (the
        unbatched oracle would have raised it at the call site)."""
        return self._error

    @property
    def committed(self) -> bool:
        if not self.done:
            raise DecisionPending(f"txn {self.start_ts}: batch not yet flushed")
        if self._error is not None:
            raise self._error
        return self._committed

    @property
    def commit_ts(self) -> Optional[int]:
        if not self.done:
            raise DecisionPending(f"txn {self.start_ts}: batch not yet flushed")
        if self._error is not None:
            raise self._error
        return self._commit_ts

    def result(self) -> CommitResult:
        """The decision as a :class:`CommitResult` (built lazily)."""
        if not self.done:
            raise DecisionPending(f"txn {self.start_ts}: batch not yet flushed")
        if self._error is not None:
            raise self._error
        result = self._result
        if result is None:
            # lint: skip=future-discipline -- blessed: lazy result cache
            # built from already-settled decision fields, not a settle.
            result = self._result = CommitResult(
                self._committed,
                self.start_ts,
                commit_ts=self._commit_ts,
                reason=self._reason,
                conflict_row=self._row,
            )
        return result

    def outcome(self) -> str:
        """The resolved outcome as a public tag — ``"committed"``,
        ``"read-only"`` (committed with no commit timestamp, §5.1),
        ``"aborted"``, or ``"error"`` (the decision raised; the exception
        is on :attr:`error`).

        Unlike :attr:`committed` / :meth:`result`, this never re-raises
        the decision error — tally/bookkeeping callers (e.g.
        :meth:`~repro.server.session.ClientSession`'s done-callback) can
        classify every resolution through one stable surface instead of
        reading future internals.
        """
        if not self.done:
            raise DecisionPending(f"txn {self.start_ts}: batch not yet flushed")
        if self._error is not None:
            return "error"
        if self._committed:
            return "read-only" if self._commit_ts is None else "committed"
        return "aborted"

    def add_done_callback(self, fn: Callable[["CommitFuture"], None]) -> None:
        if self.done:
            fn(self)
            return
        if self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)
        self.batch.has_callbacks = True

    def _attach_owner(self, owner: Any) -> None:
        """Have ``owner._tally(self)`` called at settle, ahead of the
        callbacks the client registers.

        The session's half of :meth:`add_done_callback`: the future
        carries its owner in a slot instead of a per-request
        ``[bound method]`` list, so the session's bookkeeping allocates
        nothing between ``commit()`` and the pending batch.
        """
        batch = self.batch
        if self._done or (batch is not None and batch.flushed):
            owner._tally(self)
            return
        self._owner = owner
        if batch is not None:  # an HAFuture outlives any one batch
            batch.has_callbacks = True

    def _fire_callbacks(self) -> None:
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._tally(self)
        cbs = self._cbs
        if cbs:
            self._cbs = None
            for fn in cbs:
                fn(self)


class FutureArena:
    """Freelist of :class:`CommitFuture` objects for high-rate ingest.

    The throughput-bound ingest paths (bulk load, log apply, benchmark
    E17's nowait drivers) either forgo futures entirely
    (``submit_commit_nowait``) or, when the client does want a handle
    per request, allocate one ``CommitFuture`` per submission — at
    batch-128 flush rates that is pure allocator churn, since every
    future dies as soon as its outcome is read.  The arena recycles
    them: :meth:`~OracleFrontend.submit_commit_pooled` draws from the
    freelist and the client hands the future back with
    :meth:`~OracleFrontend.recycle_future` once it has read the
    outcome.

    Reset is re-running ``__init__`` on the recycled object: it
    restores every per-decision field (and drops the ``batch``
    back-reference, so a pooled future never pins a resolved batch).
    Recycling a pending future is refused: its batch still owns it.
    """

    __slots__ = ("_free", "allocated", "reused", "recycled")

    def __init__(self) -> None:
        self._free: List[CommitFuture] = []
        #: futures constructed because the freelist was empty.
        self.allocated = 0
        #: acquisitions served from the freelist.
        self.reused = 0
        #: futures handed back (``recycled - reused`` = freelist depth).
        self.recycled = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self, start_ts: int) -> CommitFuture:
        """A fresh-looking future for ``start_ts`` (recycled if possible)."""
        free = self._free
        if free:
            future = free.pop()
            future.__init__(start_ts)
            self.reused += 1
        else:
            future = CommitFuture(start_ts)
            self.allocated += 1
        return future

    def release(self, future: CommitFuture) -> None:
        """Return a *settled* future to the freelist.

        The caller asserts it holds the only live reference; reading a
        recycled future afterwards observes a later request's outcome
        (the usual arena contract).
        """
        if not future.done:
            raise ValueError(
                f"txn {future.start_ts}: cannot recycle a pending future "
                "(its batch still owns it)"
            )
        self.recycled += 1
        self._free.append(future)


@dataclass
class FrontendStats:
    """Batching behaviour counters (the backend oracle keeps the
    protocol-level :class:`~repro.core.status_oracle.OracleStats`)."""

    batches: int = 0
    batched_requests: int = 0
    read_only_fast_path: int = 0
    client_aborts: int = 0
    #: How many timestamp leases were taken from the backend: one per
    #: local lease refill plus one per ``begin_many`` shortfall (0 when
    #: ``begin_lease=1`` and only per-call ``begin()`` is used).
    begin_leases: int = 0
    flushes_by_count: int = 0
    flushes_by_timer: int = 0
    flushes_by_force: int = 0
    #: ``close()``'s final flush, counted apart from explicit forces —
    #: a deployment that sees many close-flushes is tearing frontends
    #: down mid-batch, a different signal than callers forcing flushes.
    flushes_by_close: int = 0
    max_batch_seen: int = 0
    #: Batches whose flush died mid-decision or mid-WAL-append: every
    #: future of such a batch resolves with the error (never a permanent
    #: ``DecisionPending``), and nothing was persisted.
    flush_failures: int = 0
    #: Requests failed by :meth:`OracleFrontend.fail_pending` — a host
    #: crash taking the open batch with it (the HA tier retries them
    #: against the next leader).
    crashed_requests: int = 0
    #: Submissions shed by admission control (typed ``Overloaded``).
    overload_rejections: int = 0
    #: High-water mark of decisions in flight (pending + flushed batches
    #: not yet durable); bounded by ``max_queue_depth`` when set.
    max_inflight_seen: int = 0
    #: Totals of the partitioned batch protocol's per-partition rounds
    #: (zero for monolithic backends): check rounds are phase-1 bulk
    #: validations, install rounds phase-3 bulk installs — one RPC each
    #: per partition per flush in a distributed deployment.
    partition_check_rounds: int = 0
    partition_install_rounds: int = 0
    cross_partition_requests: int = 0
    #: Executor wall-clock spent fanning each protocol phase out
    #: (seconds, accumulated across flushes), plus the most rounds any
    #: one partition drove in a single flush (<= 2 under the protocol).
    #: Together these make benchmark E21's overlap claim observable:
    #: under a parallel executor the phase wall-clock tracks the
    #: per-partition occupancy, not the total round count.
    partition_validate_seconds: float = 0.0
    partition_install_seconds: float = 0.0
    max_partition_rounds_seen: int = 0

    def avg_batch_size(self) -> float:
        """Mean decisions per batch; 0.0 before any flush (never raises
        on an empty workload)."""
        return self.batched_requests / self.batches if self.batches else 0.0


class OracleFrontend:
    """Batches begin/commit/abort traffic in front of a commit engine.

    Args:
        backend: the engine that owns the conflict-detection state — any
            :class:`~repro.core.engine.CommitEngine`: a plain SI/WSI
            :class:`~repro.core.status_oracle.StatusOracle`, a
            :class:`~repro.core.status_oracle.BoundedStatusOracle`, a
            :class:`~repro.core.partitioned.PartitionedOracle`, a
            :class:`~repro.percolator.engine.PercolatorEngine`, or an
            :class:`~repro.ssi.engine.SSIEngine`.  The frontend touches
            only the engine contract (see :mod:`repro.core.engine`), so
            foreign backends that duck-type it also work.
        max_batch: flush as soon as this many decisions are pending.
        flush_interval: flush a non-empty batch this many (injected-time)
            seconds after it opened — drive via ``clock``+``tick()`` or
            hand the simulator's scheduler in via ``scheduler``.
        clock: callable returning the current time; defaults to a manual
            clock advanced with :meth:`advance_time`.
        scheduler: optional ``(delay, callback)`` scheduling hook (the
            sim passes ``engine.call_in``) used to fire the flush-interval
            trigger without polling.
        wal: where group-commit records go.  Defaults to the backend's
            WAL; pass one explicitly to give a WAL-less backend (e.g. the
            partitioned oracle) group durability.
        begin_lease: how many start timestamps to lease from the backend
            per refill of the frontend's local begin lease.  The default
            (1) keeps per-call semantics: every ``begin()`` is one
            ``backend.begin()`` round-trip into the critical section.
            With ``n > 1`` the frontend takes ``backend.lease(n)`` once
            per ``n`` begins and serves the block locally — the
            begin-side twin of the batch-decide amortization (benchmark
            E20).  Timestamps unserved when the frontend closes (or
            crashes) become gaps, never reuse: the lease is durably
            reserved before it is served — through the backend's own
            WAL, or through this frontend's WAL for backends whose TSO
            persists nothing itself (the partitioned oracle; see the
            reservation-adoption block in ``__init__``).
        max_queue_depth: admission-control bound on decisions in flight
            (pending in the open batch plus flushed batches whose
            durability is still outstanding, see :meth:`mark_durable`).
            A submit that would exceed the bound is shed with a typed
            :class:`~repro.core.errors.Overloaded` rejection instead of
            queueing without bound — under sustained over-capacity
            offered load the frontend keeps serving at capacity with
            bounded queue depth (and hence bounded latency) while
            clients back off and retry
            (:class:`~repro.server.retry.RetryPolicy`).  ``None`` (the
            default) disables admission control and costs the submit
            path nothing.  Benchmark E22 measures the degradation mode.
        per_request: force the pre-``decide_batch`` decision path — one
            ``backend.commit()`` / ``backend.abort()`` call per batch item
            inside the critical section.  This is the benchmark E18
            baseline (and the fallback for backends without a
            ``_decide_batch`` engine).  Best paired with a WAL-less
            backend plus an explicit ``wal=`` (as E18 does): a backend
            that owns a WAL appends per-record inside ``commit()``, so the
            frontend then skips its group record to avoid double logging.

    Backends that implement the batch-decide engine hook
    (:meth:`~repro.core.engine.CommitEngine._decide_batch` — plain
    SI/WSI, bounded, partitioned, Percolator, SSI) decide the whole
    batch in one bulk pass with locally-bound state and batched stats
    accounting; that is where the group-commit speed-ups (benchmarks
    E17/E18, and E23's per-engine shootout) come from.
    """

    def __init__(
        self,
        backend: Any,
        max_batch: int = DEFAULT_MAX_BATCH,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        clock: Optional[Callable[[], float]] = None,
        scheduler: Optional[Callable[[float, Callable[[], None]], None]] = None,
        wal: Optional[BookKeeperWAL] = None,
        begin_lease: int = 1,
        per_request: bool = False,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if flush_interval <= 0:
            raise ValueError("flush_interval must be > 0")
        if begin_lease < 1:
            raise ValueError("begin_lease must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        self._backend = backend
        # Begin-lease state: [_lease_next, _lease_hi] is the unserved
        # remainder of the current lease; empty (next > hi) forces the
        # refill path, which is also where the closed check lives —
        # close() empties the lease, so the begin() fast path stays two
        # attribute touches.  Foreign backends without a lease() surface
        # degrade to per-call begins regardless of ``begin_lease``.
        self._lease_fn = getattr(backend, "lease", None)
        self._begin_lease = begin_lease if self._lease_fn is not None else 1
        self._lease_next = 1
        self._lease_hi = 0
        self._max_batch = max_batch
        self._flush_interval = flush_interval
        self._manual_time = 0.0
        self._clock = clock or (lambda: self._manual_time)
        self._scheduler = scheduler
        self._wal = wal if wal is not None else getattr(backend, "_wal", None)
        # Begin-path durability: a backend TSO that persists no
        # reservation marks (the partitioned oracle's shared TSO, or an
        # explicitly-passed bare TimestampOracle) would let recovery
        # reissue served begins — including lease blocks.  When this
        # frontend owns the WAL, adopt the TSO's reservation stream into
        # it: ts-reserve records, flushed before any covered timestamp
        # is served, exactly like StatusOracle._log_ts_reservation.
        tso = getattr(backend, "timestamp_oracle", None)
        if (
            self._wal is not None
            and tso is not None
            and not tso.persists_reservations
        ):
            frontend_wal = self._wal

            def _log_reservation(high_water: int) -> None:
                frontend_wal.append("ts-reserve", high_water, size=8)
                frontend_wal.flush()

            tso.attach_wal(_log_reservation)
        # The backend's batch-decide engine hook (every CommitEngine
        # supplies one); foreign backends fall back to per-request.
        self._engine = (
            None if per_request else getattr(backend, "_decide_batch", None)
        )
        self._per_request = self._engine is None
        # In per-request mode a CommitEngine backend that owns a WAL
        # already appends one record per decision inside commit(); the
        # frontend must not also write a group record for the same batch.
        self._backend_logs_wal = (
            self._per_request
            and isinstance(backend, CommitEngine)
            and getattr(backend, "_wal", None) is not None
        )
        # §4.1 condition 3: an empty write set commits immediately at
        # submit time — unless the backend runs the E16 naive ablation,
        # in which case only fully-empty footprints take the fast path.
        self._ro_exempt = not getattr(backend, "naive_read_only", False)
        # Backends that track active transactions (SSI's prune horizon)
        # must learn when a fast-path request ends, or the bypassed
        # start pins their active set forever.
        self._release_start = getattr(backend, "release_start", None)
        # Batch items: a raw CommitRequest (nowait commit), a raw int
        # (nowait client abort), or a (CommitRequest | int, CommitFuture)
        # pair for future-style submissions.  The open-batch *swap*
        # (flush / fail_pending taking the batch) is the handoff point
        # shared with whatever drives the drain, so it happens under
        # _flush_lock; appends are single-writer on the submit side.
        self._flush_lock = make_lock("frontend-flush")
        self._rc = active_checker()
        if self._rc is not None:
            self._rc.register_state("frontend.pending", "frontend-flush")
        self._pending: List[Any] = []  # guarded-by: _flush_lock
        self._open_cell: Optional[FlushedBatch] = None
        self._batch_opened_at: Optional[float] = None
        # Admission control: decisions admitted but not yet released
        # (released at flush, or at mark_durable when a flush listener
        # defers durability).  Tracked only when bounded, so the
        # unbounded submit path pays a single attribute check.
        self._max_queue_depth = max_queue_depth
        self._inflight = 0
        self._batch_seq = 0
        self._flush_listeners: List[Callable[[FlushedBatch], None]] = []
        #: CommitFuture freelist behind submit_commit_pooled /
        #: recycle_future (see :class:`FutureArena`).
        self.future_arena = FutureArena()
        self.stats = FrontendStats()
        self._closed = False

    # ------------------------------------------------------------------
    # client surface
    #
    # The four submit_* methods deliberately inline the same short
    # enqueue/trigger sequence instead of sharing a helper: submit is on
    # the measured hot path (benchmark E17's >=3x bar), and one extra
    # Python call per request costs more than the duplication saves.
    # Change one, change all four.
    # ------------------------------------------------------------------
    @property
    def backend(self) -> Any:
        return self._backend

    @property
    def wal(self) -> Optional[BookKeeperWAL]:
        return self._wal

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def begin_lease_remaining(self) -> int:
        """Unserved timestamps left in the local begin lease."""
        remaining = self._lease_hi - self._lease_next + 1
        return remaining if remaining > 0 else 0

    def session(
        self, name: Optional[str] = None, begin_lease: int = 1
    ) -> "ClientSession":
        from repro.server.session import ClientSession

        return ClientSession(self, name=name, begin_lease=begin_lease)

    def begin(self) -> int:
        """Serve a start timestamp immediately.

        With the default ``begin_lease=1`` every call is one
        ``backend.begin()`` round-trip (the paper already amortizes the
        *persistence* of begins, Appendix A; the round-trip itself is
        what the lease removes).  With ``begin_lease=n`` the common case
        is two attribute touches on the local lease; one
        ``backend.lease(n)`` refill pays for the next ``n`` begins.
        """
        ts = self._lease_next
        if ts <= self._lease_hi:
            self._lease_next = ts + 1
            return ts
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        if self._begin_lease == 1:
            return self._backend.begin()
        lo, hi = self._lease_fn(self._begin_lease)
        self.stats.begin_leases += 1
        self._lease_next = lo + 1
        self._lease_hi = hi
        return lo

    def begin_many(self, n: int) -> List[int]:
        """Serve ``n`` start timestamps in one call.

        Drains the local lease first, then leases exactly the shortfall
        in a single ``backend.lease()`` round-trip — equivalent to ``n``
        back-to-back :meth:`begin` calls (nothing else can consume the
        TSO mid-call), but with one critical-section entry regardless of
        ``begin_lease``.
        """
        if n < 1:
            raise ValueError("begin_many needs n >= 1")
        nxt = self._lease_next
        take = min(n, self._lease_hi - nxt + 1)
        if take > 0:
            out = list(range(nxt, nxt + take))
            self._lease_next = nxt + take
        else:
            out = []
        short = n - len(out)
        if short:
            if self._closed:
                raise OracleClosed("oracle frontend is closed")
            if self._lease_fn is None:
                out.extend(self._backend.begin() for _ in range(short))
            else:
                lo, hi = self._lease_fn(short)
                self.stats.begin_leases += 1
                out.extend(range(lo, hi + 1))
        return out

    def submit_commit(self, request: CommitRequest) -> CommitFuture:
        """Queue a commit request; returns its future.

        Read-only requests (empty write set, §4.1 condition 3 / §5.1)
        resolve immediately — they touch no oracle state and cost no WAL
        write, so they never wait on a batch.
        """
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        future = CommitFuture(request.start_ts)
        if not request.write_set and (self._ro_exempt or not request.read_set):
            backend_stats = self._backend.stats
            backend_stats.commits += 1
            backend_stats.read_only_commits += 1
            self.stats.read_only_fast_path += 1
            if self._release_start is not None:
                self._release_start(request.start_ts)
            future._committed = True
            # lint: skip=future-discipline -- blessed: read-only fast path
            # settles inline, before the future ever escapes the submit.
            future._done = True
            return future
        if self._max_queue_depth is not None:
            self._admit()
        pending = self._pending
        pending.append((request, future))  # lint: skip=guarded-by -- single-writer submit side
        if len(pending) == 1:
            self._open_batch()
        cell = self._open_cell
        future.batch = cell
        cell.futures.append(future)
        if len(pending) >= self._max_batch:
            self.flush(trigger="count")
        return future

    def submit_commit_pooled(self, request: CommitRequest) -> CommitFuture:
        """:meth:`submit_commit` drawing the future from the arena.

        The ingest-path variant for clients that want a handle per
        request without per-request allocation: the returned future
        comes from :attr:`future_arena` when possible, and the caller
        hands it back with :meth:`recycle_future` after reading the
        outcome.  Semantics are otherwise identical to
        :meth:`submit_commit` (read-only fast path included).
        """
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        if not request.write_set and (self._ro_exempt or not request.read_set):
            backend_stats = self._backend.stats
            backend_stats.commits += 1
            backend_stats.read_only_commits += 1
            self.stats.read_only_fast_path += 1
            if self._release_start is not None:
                self._release_start(request.start_ts)
            future = self.future_arena.acquire(request.start_ts)
            future._committed = True
            # lint: skip=future-discipline -- blessed: read-only fast path
            # settles inline, before the future ever escapes the submit.
            future._done = True
            return future
        if self._max_queue_depth is not None:
            self._admit()  # may shed: acquire the future only once admitted
        future = self.future_arena.acquire(request.start_ts)
        pending = self._pending
        pending.append((request, future))  # lint: skip=guarded-by -- single-writer submit side
        if len(pending) == 1:
            self._open_batch()
        cell = self._open_cell
        future.batch = cell
        cell.futures.append(future)
        if len(pending) >= self._max_batch:
            self.flush(trigger="count")
        return future

    def recycle_future(self, future: CommitFuture) -> None:
        """Hand a settled future back to :attr:`future_arena`."""
        self.future_arena.release(future)

    def submit_commit_nowait(self, request: CommitRequest) -> None:
        """Queue a commit request without a future (callback-style).

        The decision is still computed, persisted and counted exactly as
        for :meth:`submit_commit`; the outcome is delivered through the
        batch itself — ``on_flush`` listeners read it from
        :attr:`FlushedBatch.committed_payload` / ``aborted_payload``.
        This is the ingest path for throughput-bound clients (bulk load,
        log apply, benchmark E17) that track transactions by start
        timestamp rather than per-request handles.
        """
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        if not request.write_set and (self._ro_exempt or not request.read_set):
            backend_stats = self._backend.stats
            backend_stats.commits += 1
            backend_stats.read_only_commits += 1
            self.stats.read_only_fast_path += 1
            if self._release_start is not None:
                self._release_start(request.start_ts)
            return
        if self._max_queue_depth is not None:
            self._admit()
        pending = self._pending
        pending.append(request)  # lint: skip=guarded-by -- single-writer submit side
        if len(pending) == 1:
            self._open_batch()
        if len(pending) >= self._max_batch:
            self.flush(trigger="count")

    def submit_abort(self, start_ts: int) -> CommitFuture:
        """Queue a client-initiated abort; resolves at batch flush so the
        abort record rides the same group-commit WAL write."""
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        if self._max_queue_depth is not None:
            self._admit()
        future = CommitFuture(start_ts)
        pending = self._pending
        pending.append((start_ts, future))  # lint: skip=guarded-by -- single-writer submit side
        self.stats.client_aborts += 1
        if len(pending) == 1:
            self._open_batch()
        cell = self._open_cell
        future.batch = cell
        cell.futures.append(future)
        if len(pending) >= self._max_batch:
            self.flush(trigger="count")
        return future

    def submit_abort_nowait(self, start_ts: int) -> None:
        """Queue a client-initiated abort without a future."""
        if self._closed:
            raise OracleClosed("oracle frontend is closed")
        if self._max_queue_depth is not None:
            self._admit()
        pending = self._pending
        pending.append(start_ts)  # lint: skip=guarded-by -- single-writer submit side
        self.stats.client_aborts += 1
        if len(pending) == 1:
            self._open_batch()
        if len(pending) >= self._max_batch:
            self.flush(trigger="count")

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Claim one in-flight slot or shed the request (``Overloaded``).

        Called only when ``max_queue_depth`` is set — the submit paths
        gate on that so the unbounded configuration pays one attribute
        check.  A slot covers the request from submit until its batch
        is durable (flush, or :meth:`mark_durable` when a listener
        defers durability), so the bound caps the queue *depth*, not
        just the open batch.
        """
        inflight = self._inflight
        if inflight >= self._max_queue_depth:
            self.stats.overload_rejections += 1
            raise Overloaded(inflight, self._max_queue_depth)
        inflight += 1
        self._inflight = inflight
        if inflight > self.stats.max_inflight_seen:
            self.stats.max_inflight_seen = inflight

    def _release(self, cell: FlushedBatch) -> None:
        """Give a batch's admission slots back (idempotent)."""
        if self._max_queue_depth is None or cell.released:
            return
        cell.released = True
        self._inflight -= cell.requests

    def mark_durable(self, batch: FlushedBatch) -> None:
        """Release a flushed batch's admission slots at durability.

        When an ``on_flush`` listener sets :attr:`FlushedBatch.durable_event`
        (the simulator modelling the WAL write), the batch's requests
        stay counted against ``max_queue_depth`` until the integration
        layer calls this — in flight means *not yet durable*, not merely
        *not yet decided*.  No-op when admission control is disabled or
        the batch already released its slots.
        """
        self._release(batch)

    @property
    def inflight(self) -> int:
        """Decisions currently counted against ``max_queue_depth``
        (pending in the open batch + flushed-not-yet-durable); stays 0
        when admission control is disabled."""
        return self._inflight

    # ------------------------------------------------------------------
    # flush triggers
    # ------------------------------------------------------------------
    def _open_batch(self) -> None:
        self._batch_seq += 1
        self._open_cell = FlushedBatch(seq=self._batch_seq, futures=[])
        self._batch_opened_at = self._clock()
        if self._scheduler is not None:
            cell = self._open_cell
            self._scheduler(self._flush_interval, lambda: self._timer_fired(cell))

    def _timer_fired(self, cell: FlushedBatch) -> None:
        # Fire only if the batch that armed this timer is still open.
        if self._open_cell is cell and self._pending:
            self.flush(trigger="timer")

    def tick(self) -> bool:
        """Fire the flush-interval trigger if it has elapsed (polling
        alternative to ``scheduler`` for manual-clock callers)."""
        if not self._pending:
            return False
        if self._clock() - self._batch_opened_at >= self._flush_interval:
            self.flush(trigger="timer")
            return True
        return False

    def advance_time(self, dt: float) -> None:
        """Advance the internal manual clock (standalone mode only)."""
        self._manual_time += dt

    def on_flush(self, listener: Callable[[FlushedBatch], None]) -> None:
        """Register a listener called with each :class:`FlushedBatch`
        after its WAL record is queued but *before* futures resolve."""
        self._flush_listeners.append(listener)

    # ------------------------------------------------------------------
    # the flush itself: one critical section per batch
    # ------------------------------------------------------------------
    def flush(self, trigger: str = "force") -> Optional[FlushedBatch]:
        """Process every pending request and resolve its future.

        Everything in here happens atomically with respect to other
        batches — this *is* the §6.3 critical section, entered once per
        batch instead of once per request.
        """
        with self._flush_lock:
            if self._rc is not None:
                self._rc.access("frontend.pending")
            batch = self._pending
            if not batch:
                return None
            self._pending = []
            cell = self._open_cell
            self._open_cell = None
            self._batch_opened_at = None
        cell.requests = len(batch)

        payload_commits: List[Tuple[int, int, Any]] = []
        payload_aborts: List[int] = []
        errors: List[Tuple[int, BaseException]] = []
        rounds = None
        # A crash anywhere between here and the WAL append must not
        # strand the batch's futures in permanent DecisionPending: the
        # unbatched oracle would have raised at the call site, so the
        # batched one resolves every future with the error instead (the
        # per-request errors list still isolates *decision* errors to
        # their own request — this except is for the engine or the WAL
        # dying, which dooms the whole batch).
        try:
            if self._per_request:
                counters = self._process_per_request(
                    batch, payload_commits, payload_aborts, errors
                )
            else:
                # The backend's batch-decide engine: one bulk pass over
                # the whole batch (see StatusOracle.decide_batch).
                # Futures are filled in directly; payloads come back in
                # decision order.
                counters = self._engine(
                    batch, payload_commits, payload_aborts, errors, None
                )
                # The partitioned engine reports how many per-partition
                # protocol rounds the flush cost (BatchRounds);
                # monolithic engines have no such notion, leaving None.
                rounds = getattr(self._backend, "last_flush_rounds", None)
            commits, aborts, rows_checked, rows_updated = counters

            # One group-commit record for the whole batch (§6.3 /
            # Appendix A amortization).  Batches that decided nothing
            # durable — e.g. all requests were read-only — write no
            # record at all; in per-request mode a WAL-owning backend
            # already logged each decision itself.  The loop-built
            # triples still carry the request's frozenset as ``rows``;
            # group_commit_payload re-tuples them — what outlives the
            # flush (the log, FlushedBatch) must be invisible to the
            # cyclic collector, which never untracks a set — and
            # append_decisions goes through it and owns the size rule.
            wal = self._wal
            wal_written = False
            if (
                wal is not None
                and (payload_commits or payload_aborts)
                and not self._backend_logs_wal
            ):
                payload = wal.append_decisions(payload_commits, payload_aborts)
                wal_written = True
            else:
                payload = group_commit_payload(payload_commits, payload_aborts)
        except Exception as exc:
            self.stats.flush_failures += 1
            self._abandon_batch(cell, exc)
            raise

        stats = self.stats
        stats.batches += 1
        stats.batched_requests += len(batch)
        if len(batch) > stats.max_batch_seen:
            stats.max_batch_seen = len(batch)
        if trigger == "count":
            stats.flushes_by_count += 1
        elif trigger == "timer":
            stats.flushes_by_timer += 1
        elif trigger == "close":
            stats.flushes_by_close += 1
        else:
            stats.flushes_by_force += 1
        if rounds is not None:
            stats.partition_check_rounds += rounds.check_rounds
            stats.partition_install_rounds += rounds.install_rounds
            stats.cross_partition_requests += rounds.cross_requests
            stats.partition_validate_seconds += rounds.validate_wall
            stats.partition_install_seconds += rounds.install_wall
            if rounds.max_partition_rounds > stats.max_partition_rounds_seen:
                stats.max_partition_rounds_seen = rounds.max_partition_rounds
            cell.protocol_rounds = rounds

        cell.trigger = trigger
        cell.commits = commits
        cell.aborts = aborts
        cell.rows_checked = rows_checked
        cell.rows_updated = rows_updated
        cell.wal_written = wal_written
        cell.committed_payload, cell.aborted_payload = payload
        cell.errors = tuple(errors)
        for listener in self._flush_listeners:
            listener(cell)
        # Admission slots release at flush unless a listener attached a
        # durability event — then they stay held until mark_durable(),
        # so "in flight" spans submit through durable.
        if cell.durable_event is None:
            self._release(cell)
        # Group commit: this single flag resolves every future of the
        # batch at once, after the WAL record is queued (and after the
        # listeners had a chance to attach durability hooks).
        cell.flushed = True
        if cell.has_callbacks:
            for fut in cell.futures:
                fut._fire_callbacks()
        # Release the sibling-future list: a long-lived future handle
        # should keep its batch's outcome payloads alive, not every other
        # future of the batch.
        cell.futures = []
        return cell

    def _abandon_batch(self, cell: FlushedBatch, exc: BaseException) -> None:
        """Resolve a doomed batch: every unresolved future gets ``exc``.

        Used on the two crash paths — a flush that died mid-decision or
        mid-WAL-append, and :meth:`fail_pending` (host crash).  Futures
        that already carry a per-request decision error keep it; everyone
        else resolves with the batch-level error, so no future is ever a
        permanent ``DecisionPending``.  Nothing from the batch was made
        durable, and its admission slots are given back.
        """
        cell.trigger = "failed"
        for fut in cell.futures:
            if fut._error is None:
                fut._error = exc
        cell.flushed = True
        if cell.has_callbacks:
            for fut in cell.futures:
                fut._fire_callbacks()
        cell.futures = []
        self._release(cell)

    def fail_pending(self, exc: BaseException) -> int:
        """Crash path: fail the open batch without deciding anything.

        A host crash takes the open batch with it — those requests were
        never decided, never persisted, and would otherwise wait forever
        on a flush that can no longer happen.  Their futures resolve
        with ``exc`` (the HA tier then retries them against the next
        leader with their original start timestamps).  Returns how many
        requests were failed.
        """
        with self._flush_lock:
            if self._rc is not None:
                self._rc.access("frontend.pending")
            batch = self._pending
            if not batch:
                return 0
            self._pending = []
            cell = self._open_cell
            self._open_cell = None
            self._batch_opened_at = None
        cell.requests = len(batch)
        self.stats.crashed_requests += len(batch)
        self._abandon_batch(cell, exc)
        return len(batch)

    def _process_per_request(self, batch, payload_commits, payload_aborts,
                             errors):
        """The pre-``decide_batch`` decision path: one ``backend.commit``
        / ``backend.abort`` call per batch item inside the critical
        section.  Kept as the benchmark E18 baseline — it quantifies the
        per-request interpreter overhead the batch engine removes — and
        as the fallback for foreign backends without an engine."""
        backend = self._backend
        backend_stats = getattr(backend, "stats", None)
        # The partitioned oracle counts checked rows in its per-partition
        # stats, not the top-level ones — sum both so every backend kind
        # reports the same FlushedBatch.rows_checked as its engine mode.
        partitions = getattr(backend, "partitions", ())

        def rows_checked_now():
            total = backend_stats.rows_checked if backend_stats is not None else 0
            for partition in partitions:
                total += partition.stats.rows_checked
            return total

        rows_checked_before = rows_checked_now()
        commits = aborts = rows_updated = 0
        for item in batch:
            req, fut = item if item.__class__ is tuple else (item, None)
            try:
                if req.__class__ is not CommitRequest:
                    backend.abort(req)
                    aborts += 1
                    payload_aborts.append(req)
                    if fut is not None:
                        fut._reason = CLIENT_ABORT
                    continue
                result = backend.commit(req)
            except Exception as exc:
                start = req if req.__class__ is not CommitRequest else req.start_ts
                errors.append((start, exc))
                if fut is not None:
                    fut._error = exc
                continue
            if result.committed:
                commits += 1
                if result.commit_ts is not None:
                    # Read-only commits (commit_ts None) cost no WAL
                    # payload; only write commits are made durable.
                    rows_updated += len(req.write_set)
                    payload_commits.append(
                        (req.start_ts, result.commit_ts, req.write_set)
                    )
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = result.commit_ts
            else:
                aborts += 1
                payload_aborts.append(req.start_ts)
                if fut is not None:
                    fut._reason = result.reason
                    fut._row = result.conflict_row
            # Futures are left in exactly the state the batch engines
            # leave them: outcome fields set, ``_result`` built lazily
            # on first read — so a resolved future is indistinguishable
            # across decision paths (pinned by tests/server).
        return (
            commits,
            aborts,
            rows_checked_now() - rows_checked_before,
            rows_updated,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the open batch (and the WAL) and stop accepting work.

        The backend oracle stays open — the frontend is a layer over it,
        not its owner — but a partitioned backend's *owned* round
        executor is shut down (worker threads joined; the backend falls
        back to serial rounds, deciding identically), so tearing down a
        frontend never leaves dangling threads."""
        if self._closed:
            return
        self.flush(trigger="close")
        if self._wal is not None:
            self._wal.flush()
        # Drop the unserved lease remainder: those timestamps become
        # gaps (they were durably reserved, so nothing can reuse them),
        # and an emptied lease routes begin() to the closed check.
        self._lease_next, self._lease_hi = 1, 0
        self._closed = True
        shutdown_executor = getattr(self._backend, "shutdown_executor", None)
        if shutdown_executor is not None:
            shutdown_executor()

    @property
    def closed(self) -> bool:
        return self._closed
