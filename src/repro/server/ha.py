"""The high-availability serving tier: replicated group-commit frontends.

Appendix A sketches the failure story for the status oracle: "the same
status oracle after recovery, or another fresh instance of the status
oracle could still recreate the memory state from the write-ahead log
and continue servicing the commit requests."  In the deployment this
needs an arbiter so exactly one instance serves at a time — the
ZooKeeper leader election (:class:`~repro.coord.zookeeper.LeaderElection`).
This module is that story's one implementation: N candidate
:class:`FrontendHost`\\ s over a shared (replicated) WAL, the elected
one serving the group-commit
:class:`~repro.server.frontend.OracleFrontend` clients actually talk to.
It also closes the client-visible gaps that recovering the oracle
alone leaves open:

* **Takeover temperature** — a *cold* host replays the entire WAL
  through :meth:`~repro.core.engine.CommitEngine.recover_from` (cost
  grows with history); a *warm* one runs a standby engine that tails
  the shared WAL (:class:`~repro.wal.bookkeeper.WALTail`), so takeover
  applies only the un-polled suffix: O(delta), not a full replay
  (benchmark E22's failover leg), then
  :meth:`~repro.core.engine.CommitEngine.seal_recovery` re-seeds the
  timestamp oracle above everything durable.
* **Request survival** — a client's in-flight request must not strand
  when the leader dies mid-batch.  :class:`ReplicatedFrontend` hands
  out futures that resolve only at *durability* (the WAL sync for the
  batch that carried the decision); a request whose decision never
  became durable is transparently resubmitted against the next leader
  — with its **original start timestamp**, so no timestamp is ever
  reused — under a bounded-exponential
  :class:`~repro.server.retry.RetryPolicy`.
* **No double-decide** — a decision that *did* reach a ledger quorum
  settles its future from the WAL-sync listener and leaves the retry
  set before any failover; only never-durable requests are retried, and
  the new leader recovers exactly the durable prefix, so a retry can
  never contradict persisted state.
* **Admission control** — ``max_queue_depth`` flows through to each
  promoted frontend, shedding over-capacity load with a typed
  :class:`~repro.core.errors.Overloaded` instead of unbounded queueing
  (E22's overload leg).

Durability-time settlement is deliberately *later* than the plain
frontend's flush-time settlement: a single-host deployment equates
"decided" with "will survive" because there is nothing else to take
over, but a replicated tier must not acknowledge a decision the next
leader might not recover.  The cost is one WAL sync of latency; the
drive loop (:meth:`ReplicatedFrontend.flush`) bounds it.  Synchronous
callers that want inline decisions use :class:`ReplicatedOracleFacade`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.engine import CommitEngine, default_engine_kind, make_engine
from repro.core.errors import OracleClosed, Overloaded
from repro.core.status_oracle import CommitRequest, CommitResult
from repro.coord.zookeeper import LeaderElection, Session, ZooKeeper
from repro.server.frontend import CommitFuture, FlushedBatch, OracleFrontend
from repro.server.retry import RetryPolicy
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL, WALTail


class HAFuture(CommitFuture):
    """A commit/abort future that resolves at *durability*.

    The plain :class:`CommitFuture` resolves when its batch flushes —
    correct for one host, premature for a replicated tier (a flushed
    but un-synced decision dies with the leader).  An ``HAFuture``
    stays pending across any number of failovers and retries of the
    underlying request; it resolves when the decision's WAL record is
    on a ledger quorum (or with an error once the request is known
    never to resolve: a decision error, or the retry policy spent).
    The outcome surface is identical to :class:`CommitFuture`.

    It is also the tier's one tracking object per not-yet-durable
    request: :class:`ReplicatedFrontend` keeps it in the failover retry
    set and reads the fields below.  They are dropped at settle, so a
    handle the client retains pins neither the request's footprint nor
    the batch that decided it.
    """

    __slots__ = ("retries", "_request", "_inner", "_attempts", "_durable")

    def __init__(self, start_ts: int) -> None:
        CommitFuture.__init__(self, start_ts)
        #: How many times the request was resubmitted after a leader crash.
        self.retries = 0
        #: What to resubmit: the ``CommitRequest``, or the start
        #: timestamp for a client abort.
        self._request: Any = None
        #: The current submission's CommitFuture.  None while a submit
        #: call is in flight — a WAL sync can fire *inside* submit (the
        #: count-trigger flush filling a 1 KB entry), before the caller
        #: has the inner future; ``_settle`` then defers via ``_durable``.
        self._inner: Optional[CommitFuture] = None
        self._attempts = 0
        self._durable = False

    def add_done_callback(self, fn: Callable[["CommitFuture"], None]) -> None:
        # No batch backref: this future outlives any one batch.
        if self._done:
            fn(self)
            return
        if self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)

    def _settle_from(self, inner: CommitFuture) -> None:
        """Adopt the (durable) outcome of the request's inner future."""
        self._committed = inner._committed
        self._commit_ts = inner._commit_ts
        self._reason = inner._reason
        self._row = inner._row
        self._error = inner._error
        self._request = self._inner = None
        self._done = True  # lint: skip=future-discipline -- blessed settle
        self._fire_callbacks()

    def _settle_error(self, exc: BaseException) -> None:
        self._error = exc
        self._request = self._inner = None
        self._done = True  # lint: skip=future-discipline -- blessed settle
        self._fire_callbacks()


class CatchUpCadence:
    """Clock-driven scheduling for warm-standby catch-up polls.

    A commit-count modulus ("every Nth commit") would couple the poll
    rate to throughput: an idle deployment never polls (takeover delta
    grows unbounded in time) and a hot one polls more often than the
    tail needs.  The cadence is a *time* policy instead: :meth:`due`
    answers whether ``interval`` seconds have elapsed on ``clock`` —
    wall clock, the simulator's injected clock, or a test's manual
    counter — since the last poll it approved.
    :class:`ReplicatedFrontend` (``catch_up_interval=``) consults it on
    its submit/flush drive paths.
    """

    def __init__(self, interval: float, clock: Callable[[], float]) -> None:
        if interval <= 0:
            raise ValueError("catch-up interval must be > 0")
        self.interval = interval
        self._clock = clock
        self._last = clock()

    def due(self) -> bool:
        now = self._clock()
        if now - self._last >= self.interval:
            self._last = now
            return True
        return False


class FrontendHost:
    """One candidate machine that can serve the group-commit tier.

    The host joins the election at construction.  When elected it
    recovers a commit engine — warm: drain its standby's remaining WAL
    delta and seal; cold: one full ``recover_from`` replay — and builds
    an :class:`OracleFrontend` over it with this deployment's
    batching/admission configuration (``frontend_config``), registering
    ``on_flush`` (the owning :class:`ReplicatedFrontend`'s decision-error
    listener) on it.

    With ``warm=True`` the host keeps a standby engine that tails the
    shared WAL (call :meth:`catch_up` periodically).
    ``recovered_records`` reports the records applied *during takeover*
    (the whole log when cold, the remaining delta when warm),
    ``standby_records`` those applied while standing by, and
    ``takeover_seconds`` the wall-clock the promotion cost — the
    failover metrics benchmark E22 tracks.
    """

    def __init__(
        self,
        host_id: int,
        zookeeper: ZooKeeper,
        wal: BookKeeperWAL,
        level: str = "wsi",
        warm: bool = True,
        engine: str = "oracle",
        frontend_config: Optional[Dict[str, Any]] = None,
        on_flush: Optional[Callable[[FlushedBatch], None]] = None,
    ) -> None:
        self.host_id = host_id
        self.level = level
        self.engine = engine
        self._wal = wal
        self._frontend_config = dict(frontend_config or {})
        self._on_flush = on_flush
        self.frontend: Optional[OracleFrontend] = None
        self.oracle: Optional[CommitEngine] = None
        self.recovered_records = 0
        #: Records applied while standing by (warm mode), i.e. *before*
        #: the takeover they made cheap.
        self.standby_records = 0
        self.takeover_seconds = 0.0
        self._standby: Optional[CommitEngine] = None
        self._tail: Optional[WALTail] = None
        self._standby_max_ts = 0
        if warm:
            self._standby = self._make_engine()
            self._tail = WALTail(wal)
        self.session: Session = zookeeper.connect()
        # Last: the first host constructed wins the election inside this
        # call and promotes at once, so everything above must be set.
        self.election = LeaderElection(
            self.session,
            election_path="/status-oracle",
            on_elected=self._become_active,
        )

    def _make_engine(self) -> CommitEngine:
        # The engine-factory hook: every layer above speaks the
        # CommitEngine contract, so the HA tier is protocol-agnostic —
        # any engine with WAL recovery hooks can be replicated.
        return make_engine(self.engine, level=self.level, wal=self._wal)

    # ------------------------------------------------------------------
    # warm standby
    # ------------------------------------------------------------------
    def catch_up(self) -> int:
        """Apply records that became durable since the last poll.

        No-op (returns 0) for cold hosts, for the active leader — its
        engine *produces* the records; only standbys consume them — and
        for a crashed host.  Call this on whatever cadence the
        deployment can afford; whatever is not yet polled when the
        leader dies is the takeover delta.
        """
        standby = self._standby
        if standby is None:
            return 0
        applied = 0
        for record in self._tail.poll():
            self._standby_max_ts = max(
                self._standby_max_ts, standby.apply_wal_record(record)
            )
            applied += 1
        self.standby_records += applied
        return applied

    @property
    def standby_lag(self) -> int:
        """Durable WAL entries the standby has not yet applied."""
        return self._tail.lag if self._tail is not None else 0

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def _become_active(self) -> None:
        """Leader callback: recover the engine and start serving.

        Cold: one full WAL replay — ``recover_from`` both applies and
        counts the records in a single pass.  Warm: drain the tail's
        remaining delta into the standby engine, then seal its
        timestamp floor.  Then the frontend is built over the recovered
        engine through the module-global ``OracleFrontend`` name — the
        one place a tracer can patch to reach every leader's frontend.
        """
        started = time.perf_counter()
        oracle = self._standby
        if oracle is not None:
            self.recovered_records = self.catch_up()
            # The takeover delta is recovery work, not standby work:
            # keep the two tallies disjoint (standby_records is what the
            # warm tail saved; recovered_records what promotion cost).
            self.standby_records -= self.recovered_records
            self._standby = self._tail = None
            oracle.seal_recovery(self._standby_max_ts)
        else:
            oracle = self._make_engine()
            self.recovered_records = oracle.recover_from(self._wal)
        self.takeover_seconds = time.perf_counter() - started
        self.oracle = oracle
        self.frontend = OracleFrontend(
            oracle, wal=self._wal, **self._frontend_config
        )
        if self._on_flush is not None:
            self.frontend.on_flush(self._on_flush)

    @property
    def is_active(self) -> bool:
        return self.election.is_leader and self.oracle is not None

    def crash(self) -> None:
        """The host dies: its memory — frontend, engine, standby and
        WAL tail — is gone, and its session expires (the ephemeral
        election node vanishes, so the next candidate promotes)."""
        self.frontend = self.oracle = None
        self._standby = self._tail = None
        self.session.close()


class ReplicatedFrontend:
    """N warm-standby frontend candidates behind one client surface.

    Duck-types the :class:`OracleFrontend` client surface that
    :class:`~repro.server.session.ClientSession` uses (``closed``,
    ``begin``, ``begin_many``, ``submit_commit``, ``submit_abort``), so
    sessions run unchanged over a replicated tier.  Differences from a
    single frontend:

    * futures are :class:`HAFuture` — resolved at WAL durability, not
      at batch flush;
    * :meth:`kill_active` crashes the leader: the un-synced WAL buffer
      is lost, the open batch's futures fail *inside the dead host*,
      the next candidate is promoted (O(delta) when ``warm``), and
      every not-yet-durable client request is resubmitted against the
      new leader with its original start timestamp;
    * the deployment drive loop is :meth:`flush` (force batch + WAL
      out, settling durable futures) plus :meth:`standby_catch_up`
      (advance the standbys' WAL tails).

    Args:
        num_hosts: candidate frontends (the leader serves; the rest
            stand by).
        level: conflict-detection level for the oracle engine
            ("si"/"wsi"; ignored by the non-oracle engines).
        engine: which commit protocol each host runs —
            :func:`~repro.core.engine.make_engine` kind ("oracle",
            "percolator", "ssi"; ``None`` resolves through
            ``REPRO_ENGINE`` — the ``make check`` axis).  The whole
            tier is protocol-agnostic: hosts recover through the
            engine's own WAL hooks.
        warm: run standbys with WAL tails (True, the point of the
            tier); False forces cold full-replay takeovers — the E22
            baseline.
        catch_up_interval: when set, drive warm-standby catch-up from
            ``clock`` — once the interval elapses, the next submit or
            :meth:`flush` syncs the WAL and polls every standby tail
            (the PR-6 commit-count modulus, replaced by a time policy;
            see :class:`CatchUpCadence`).
        clock: time source for the cadence (wall clock by default;
            pass the simulator's clock in a simulation).
        retry_policy: pacing/bounds for post-failover resubmission; a
            request still not durable after ``max_attempts`` submissions
            fails its future with the last crash error.
        sleep: optional callable receiving each retry backoff delay
            (injected time; accounting-only when omitted).
        max_batch / flush_interval / begin_lease / max_queue_depth:
            forwarded to each promoted :class:`OracleFrontend`.
    """

    def __init__(
        self,
        num_hosts: int = 3,
        level: str = "wsi",
        warm: bool = True,
        engine: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        max_batch: Optional[int] = None,
        flush_interval: Optional[float] = None,
        begin_lease: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        catch_up_interval: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if engine is None:
            engine = default_engine_kind()
        self.zookeeper = ZooKeeper()
        self.wal = BookKeeperWAL()
        self._cadence: Optional[CatchUpCadence] = None
        if catch_up_interval is not None:
            self._cadence = CatchUpCadence(
                catch_up_interval, clock or time.monotonic
            )
        self._retry_policy = retry_policy or RetryPolicy()
        self._sleep = sleep
        self._inflight: Dict[int, HAFuture] = {}
        self._closed = False
        self.failovers = 0
        #: Requests resubmitted after a leader crash (sum over crashes).
        self.retried_requests = 0
        #: Requests whose retry budget ran out (futures failed).
        self.failed_after_retries = 0
        #: Injected-time seconds of retry backoff accrued.
        self.backoff_seconds = 0.0
        frontend_config: Dict[str, Any] = {}
        if max_batch is not None:
            frontend_config["max_batch"] = max_batch
        if flush_interval is not None:
            frontend_config["flush_interval"] = flush_interval
        if begin_lease is not None:
            frontend_config["begin_lease"] = begin_lease
        if max_queue_depth is not None:
            frontend_config["max_queue_depth"] = max_queue_depth
        # Durability listener first: from the very first batch, records
        # reaching a ledger quorum settle their futures (and leave the
        # retry set — the no-double-decide invariant).
        self.wal.on_sync(self._on_durable)
        self.hosts: List[FrontendHost] = [
            FrontendHost(
                i,
                self.zookeeper,
                self.wal,
                level=level,
                warm=warm,
                engine=engine,
                frontend_config=frontend_config,
                # Decision errors are permanent (retrying re-raises the
                # same error), so they settle at flush, not at
                # durability — they never reach the WAL.
                on_flush=self._on_flush_errors,
            )
            for i in range(num_hosts)
        ]

    # ------------------------------------------------------------------
    # leader plumbing
    # ------------------------------------------------------------------
    def active_host(self) -> FrontendHost:
        for host in self.hosts:
            if host.is_active:
                return host
        raise OracleClosed("no active frontend (all hosts down?)")

    @property
    def active_frontend(self) -> OracleFrontend:
        return self.active_host().frontend

    def standby_catch_up(self) -> int:
        """Poll every standby's WAL tail once; returns records applied."""
        return sum(host.catch_up() for host in self.hosts)

    # ------------------------------------------------------------------
    # client surface (ClientSession-compatible)
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def begin(self) -> int:
        if self._closed:
            raise OracleClosed("replicated frontend is closed")
        return self.active_frontend.begin()

    def begin_many(self, n: int) -> List[int]:
        if self._closed:
            raise OracleClosed("replicated frontend is closed")
        return self.active_frontend.begin_many(n)

    def submit_commit(self, request: CommitRequest) -> HAFuture:
        """Queue a commit request; the future resolves at durability.

        Read-only requests (§4.1 condition 3) resolve immediately, as
        on the plain frontend — they touch no durable state, so there
        is nothing a failover could lose.  ``Overloaded`` rejections
        propagate to the caller (the session's retry policy backs off).
        """
        if self._closed:
            raise OracleClosed("replicated frontend is closed")
        future = HAFuture(request.start_ts)
        future._request = request
        self._submit_tracked(future, self.active_frontend)
        return future

    def submit_abort(self, start_ts: int) -> HAFuture:
        """Queue a client abort; the future resolves at durability."""
        if self._closed:
            raise OracleClosed("replicated frontend is closed")
        future = HAFuture(start_ts)
        future._request = start_ts
        self._submit_tracked(future, self.active_frontend)
        return future

    def _submit_tracked(self, future: HAFuture, frontend: OracleFrontend) -> None:
        """One (re)submission of a future's request against ``frontend``.

        The future is registered in the retry set *before* the inner
        submit with ``_inner=None``: the submit itself can flush the
        batch (count trigger) and even sync the WAL (1 KB entry), in
        which case :meth:`_settle` fires mid-call — it finds the future,
        flags ``_durable``, and the settle completes here once the inner
        future is in hand.  Exceptions (``Overloaded``, a closed
        frontend) deregister the future and propagate.
        """
        start_ts = future.start_ts
        request = future._request
        is_commit = request.__class__ is CommitRequest
        future._inner = None
        future._durable = False
        future._attempts += 1
        self._inflight[start_ts] = future
        try:
            if is_commit:
                inner = frontend.submit_commit(request)
            else:
                inner = frontend.submit_abort(request)
        except BaseException:
            self._inflight.pop(start_ts, None)
            raise
        if is_commit and inner.batch is None:
            # Read-only fast path: decided at submit, nothing durable
            # (and nothing a failover could lose) — resolve immediately.
            self._inflight.pop(start_ts, None)
            future._settle_from(inner)
            return
        future._inner = inner
        if future._durable:
            # The WAL sync raced the submit (already deregistered).
            future._settle_from(inner)
        self._maybe_catch_up()

    def _maybe_catch_up(self) -> None:
        """Clock-driven warm-standby catch-up (see ``catch_up_interval``)."""
        if self._cadence is not None and self._cadence.due():
            self.wal.flush()
            self.standby_catch_up()

    def session(self, name: Optional[str] = None, begin_lease: int = 1,
                retry_policy: Optional[RetryPolicy] = None,
                sleep: Optional[Callable[[float], None]] = None):
        from repro.server.session import ClientSession

        return ClientSession(
            self, name=name, begin_lease=begin_lease,
            retry_policy=retry_policy, sleep=sleep,
        )

    @property
    def inflight_count(self) -> int:
        """Client requests not yet durable (the failover retry set)."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # drive loop
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force the open batch and the WAL out.

        After this returns, every request submitted before the call has
        settled its future (durable outcome or decision error) — the
        replicated tier's group-commit barrier.
        """
        host = self.active_host()
        if host.frontend is not None:
            host.frontend.flush()
        self.wal.flush()
        self._maybe_catch_up()

    def close(self) -> None:
        """Flush everything out and stop accepting requests."""
        if self._closed:
            return
        host = None
        try:
            host = self.active_host()
        except OracleClosed:
            pass
        if host is not None and host.frontend is not None:
            host.frontend.close()
            self.wal.flush()
        self._closed = True

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _on_durable(self, records) -> None:
        """WAL-sync listener: settle every request a synced batch
        decided.  The inner future is already resolved (its batch
        flushed before the record could sync), so settlement is a copy."""
        for record in records:
            if record.kind != GROUP_COMMIT_RECORD:
                continue
            commits, aborts = record.payload
            for start_ts, _commit_ts, _rows in commits:
                self._settle(start_ts)
            for start_ts in aborts:
                self._settle(start_ts)

    def _settle(self, start_ts: int) -> None:
        future = self._inflight.pop(start_ts, None)
        if future is None:
            return
        inner = future._inner
        if inner is None:
            # Sync fired inside the submit call itself; the submit path
            # completes the settle once it has the inner future.
            future._durable = True
            return
        future._settle_from(inner)

    def _on_flush_errors(self, cell: FlushedBatch) -> None:
        for start_ts, exc in cell.errors:
            future = self._inflight.pop(start_ts, None)
            if future is not None:
                future._settle_error(exc)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill_active(self) -> FrontendHost:
        """Crash the leader; promote the next host; retry the in-flight.

        The crash sequence mirrors a real host loss: the WAL's buffered
        (never-acked) records die first, then the host's open batch
        fails inside the dead frontend, then the session expires and
        the election promotes the next candidate (warm: O(delta)
        catch-up).  Finally every client request that never became
        durable — crashed open-batch requests *and* flushed-but-unsynced
        ones alike — is resubmitted against the new leader with its
        original start timestamp, paced by the retry policy.
        """
        victim = self.active_host()
        crash_exc = OracleClosed(
            f"frontend host {victim.host_id} crashed mid-batch"
        )
        self.wal.drop_pending()
        if victim.frontend is not None:
            victim.frontend.fail_pending(crash_exc)
        victim.crash()
        self.failovers += 1
        self._retry_inflight(crash_exc)
        return victim

    def _retry_inflight(self, crash_exc: BaseException) -> None:
        if not self._inflight:
            return
        try:
            frontend = self.active_frontend
        except OracleClosed:
            # No survivor: every outstanding request fails permanently.
            for future in list(self._inflight.values()):
                self._inflight.pop(future.start_ts, None)
                future._settle_error(crash_exc)
                self.failed_after_retries += 1
            return
        policy = self._retry_policy
        # Snapshot the retry set: resubmission re-registers each future
        # in turn, and a resubmit's own count-flush can sync the WAL and
        # settle earlier ones mid-loop (each record only ever names
        # requests whose future already holds its *new* inner future).
        for future in list(self._inflight.values()):
            if future._attempts >= policy.max_attempts:
                self._inflight.pop(future.start_ts, None)
                future._settle_error(crash_exc)
                self.failed_after_retries += 1
                continue
            delay = policy.delay_for(future._attempts)
            self.backoff_seconds += delay
            if self._sleep is not None:
                self._sleep(delay)
            self.retried_requests += 1
            future.retries += 1
            try:
                self._submit_tracked(future, frontend)
            except Overloaded as exc:
                # The new leader shed the retry: surface it rather than
                # silently dropping the request from the retry set.
                future._settle_error(exc)
                self.failed_after_retries += 1


class _ActiveCommitStatus:
    """Commit-status source that queries the *current* leader per lookup.

    §2.2 lists three homes for the start->commit mapping; this is the
    "stored in the status oracle" one — readers pay a (simulated) round
    trip per visibility check but are never stale.  It is the right
    source for a replicated deployment: a client-side replica
    (:class:`~repro.core.commit_table.ClientCommitView`) subscribes to
    one oracle's broadcast stream and goes silent at failover, making
    every post-takeover commit invisible; this source re-routes to the
    new leader's recovered table automatically.
    """

    def __init__(self, replicated: "ReplicatedFrontend") -> None:
        self._replicated = replicated

    def _table(self):
        return self._replicated.active_host().oracle.commit_table

    # CommitStatusSource protocol -------------------------------------
    def commit_timestamp(self, start_ts: int) -> Optional[int]:
        return self._table().commit_timestamp(start_ts)

    def is_aborted(self, start_ts: int) -> bool:
        return self._table().is_aborted(start_ts)

    def is_committed(self, start_ts: int) -> bool:
        return self._table().is_committed(start_ts)


class ReplicatedOracleFacade:
    """A synchronous oracle-shaped view over a :class:`ReplicatedFrontend`.

    :class:`~repro.core.transaction.TransactionManager` (and anything
    else written against the sequential
    :class:`~repro.core.engine.CommitEngine` call surface) expects
    ``begin()`` / ``commit(request) -> CommitResult`` / ``abort(start)``
    to return decisions inline.  The replicated tier instead hands out
    futures that settle at WAL durability.  The facade bridges the two:
    each ``commit``/``abort`` submits, drives :meth:`ReplicatedFrontend.
    flush` until the future settles, and unwraps the result — so every
    decision it returns is already durable on the ledger quorum.

    The price is batching: a single synchronous caller serializes on its
    own requests, so batches only form across *concurrent* facade users
    (e.g. several :class:`~repro.core.transaction.Transaction` objects
    committed by interleaved application threads in the real system).
    The facade is the convenience path ``create_system(replicated=N)``
    exposes; latency-sensitive clients should speak futures directly.
    """

    def __init__(self, replicated: "ReplicatedFrontend") -> None:
        self._replicated = replicated
        #: Failover-proof commit-status source for snapshot readers —
        #: pass as ``TransactionManager(..., commit_source=...)``.
        self.commit_status = _ActiveCommitStatus(replicated)

    # -- passthroughs the transaction layer reads --------------------
    @property
    def replicated(self) -> "ReplicatedFrontend":
        return self._replicated

    def _active_oracle(self):
        return self._replicated.active_host().oracle

    @property
    def level(self) -> str:
        return self._active_oracle().level

    @property
    def naive_read_only(self) -> bool:
        return getattr(self._active_oracle(), "naive_read_only", False)

    @property
    def stats(self):
        return self._active_oracle().stats

    @property
    def commit_table(self):
        return self._active_oracle().commit_table

    @property
    def timestamp_oracle(self):
        return self._active_oracle().timestamp_oracle

    @property
    def closed(self) -> bool:
        return self._replicated.closed

    # -- the sequential call surface ---------------------------------
    def begin(self) -> int:
        return self._replicated.begin()

    def commit(self, request: CommitRequest) -> CommitResult:
        future = self._replicated.submit_commit(request)
        if not future.done:
            self._replicated.flush()
        return future.result()

    def abort(self, start_ts: int) -> None:
        future = self._replicated.submit_abort(start_ts)
        if not future.done:
            self._replicated.flush()
        if future.error is not None:
            raise future.error

    def close(self) -> None:
        self._replicated.close()
