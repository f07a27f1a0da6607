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
  the shared WAL (:class:`~repro.wal.bookkeeper.WALTail`) after every
  sync, so takeover applies only what the last sync left un-polled
  (benchmark E22's failover leg), then
  :meth:`~repro.core.engine.CommitEngine.seal_recovery` re-seeds the
  timestamp oracle above everything durable.
* **Request survival** — a client's in-flight request must not strand
  when the leader dies mid-batch.  Clients hold the leader frontend's
  own :class:`~repro.server.frontend.CommitFuture`, which resolves only
  once its batch's group-commit record is synced; a flushed request is
  therefore durable, and the crashed leader's open batch is the whole
  retry set.  Its futures move, unsettled, into the next leader's batch
  — each request with its **original start timestamp**, so no timestamp
  is ever reused — under a bounded-exponential
  :class:`~repro.server.retry.RetryPolicy`.
* **No double-decide** — a request leaves the open batch only by being
  decided *and* made durable, and the new leader recovers exactly the
  durable prefix, so a retry can never contradict persisted state.
* **Admission control** — ``max_queue_depth`` flows through to each
  promoted frontend, shedding over-capacity load with a typed
  :class:`~repro.core.errors.Overloaded` instead of unbounded queueing
  (E22's overload leg).

Settlement is the plain frontend's: a future reports done when its
batch is durable, which is exactly what the next leader recovers, so
the tier adds no future and no per-request bookkeeping of its own (one
flush listener orders a batch's acknowledgements as its group-commit
record lists them: commits, then aborts).  Standby catch-up runs after the settling submit or
:meth:`ReplicatedFrontend.flush` returns, outside every request's
latency.  Synchronous callers that want inline decisions use
:class:`ReplicatedOracleFacade`.
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
from repro.wal.bookkeeper import BookKeeperWAL, WALTail


def _settle_in_record_order(cell: FlushedBatch) -> None:
    """Flush listener on every leader: a batch's futures settle in the
    order its group-commit record lists the decisions — commits, then
    aborts, each in decision order.  That is the tier's acknowledgement
    order for a synced record, and order-sensitive readers depend on it
    (the end-to-end benchmark pins a decision CRC over it)."""
    if cell.commits and cell.aborts:
        futures = cell.futures
        cell.futures = [f for f in futures if f._committed] + [
            f for f in futures if not f._committed
        ]


class FrontendHost:
    """One candidate machine that can serve the group-commit tier.

    The host joins the election at construction.  When elected it
    recovers a commit engine — warm: drain its standby's remaining WAL
    delta and seal; cold: one full ``recover_from`` replay — and builds
    an :class:`OracleFrontend` over it with this deployment's
    batching/admission configuration (``frontend_config``).  It hands
    itself to ``on_leader_change`` when it starts serving and when it
    crashes while serving, so the owning :class:`ReplicatedFrontend`
    can cache ``host.frontend`` (None after the crash).

    With ``warm=True`` the host keeps a standby engine that tails the
    shared WAL (call :meth:`catch_up` after each sync).
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
        on_leader_change: Optional[Callable[["FrontendHost"], None]] = None,
    ) -> None:
        self.host_id = host_id
        self.level = level
        self.engine = engine
        self._wal = wal
        self._frontend_config = dict(frontend_config or {})
        self._on_leader_change = on_leader_change
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
        for a crashed host.  :class:`ReplicatedFrontend` calls it after
        every sync; whatever is not yet polled when the leader dies is
        the takeover delta.
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
        if self._on_leader_change is not None:
            self._on_leader_change(self)

    @property
    def is_active(self) -> bool:
        return self.election.is_leader and self.oracle is not None

    def crash(self) -> None:
        """The host dies: its memory — frontend, engine, standby and
        WAL tail — is gone, and its session expires (the ephemeral
        election node vanishes, so the next candidate promotes)."""
        was_serving = self.frontend is not None
        self.frontend = self.oracle = None
        self._standby = self._tail = None
        if was_serving and self._on_leader_change is not None:
            self._on_leader_change(self)  # before a successor promotes
        self.session.close()


class ReplicatedFrontend:
    """N warm-standby frontend candidates behind one client surface.

    Duck-types the :class:`OracleFrontend` client surface that
    :class:`~repro.server.session.ClientSession` uses (``closed``,
    ``begin``, ``begin_many``, ``submit_commit``, ``submit_abort``), so
    sessions run unchanged over a replicated tier.  Differences from a
    single frontend:

    * submits go to whichever host leads now, and the future handed
      out is that leader frontend's own — it survives a failover;
    * :meth:`kill_active` crashes the leader: the un-synced WAL buffer
      is lost, the open batch is detached unsettled, the next candidate
      is promoted (O(delta) when ``warm``), and the detached requests
      are re-enqueued into the new leader with their original start
      timestamps and futures;
    * after a submit or :meth:`flush` during which the WAL synced, every
      warm standby polls its tail (:meth:`standby_catch_up`), so a
      takeover replays at most what arrived since the last sync.

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
        retry_policy: pacing/bounds for post-failover resubmission; a
            request still in a crashed leader's open batch after
            ``max_attempts`` submissions fails its future with the
            crash error.
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
    ) -> None:
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if engine is None:
            engine = default_engine_kind()
        self.zookeeper = ZooKeeper()
        self.wal = BookKeeperWAL()
        self._retry_policy = retry_policy or RetryPolicy()
        self._sleep = sleep
        self._closed = False
        #: The leader's frontend (None while no host serves): set at
        #: every promotion, cleared when the serving host crashes.
        self._frontend: Optional[OracleFrontend] = None
        #: ``wal.flush_count`` at the last standby poll.
        self._polled_syncs = 0
        self.failovers = 0
        #: Requests resubmitted after a leader crash (sum over crashes).
        self.retried_requests = 0
        #: Resubmissions so far per start timestamp, for the requests
        #: the latest failover moved to the next leader.
        self.retries: Dict[int, int] = {}
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
        self.hosts: List[FrontendHost] = [
            FrontendHost(
                i,
                self.zookeeper,
                self.wal,
                level=level,
                warm=warm,
                engine=engine,
                frontend_config=frontend_config,
                on_leader_change=self._leader_changed,
            )
            for i in range(num_hosts)
        ]

    # ------------------------------------------------------------------
    # leader plumbing
    # ------------------------------------------------------------------
    def _leader_changed(self, host: FrontendHost) -> None:
        frontend = self._frontend = host.frontend
        if frontend is not None:
            frontend.on_flush(_settle_in_record_order)

    def active_host(self) -> FrontendHost:
        for host in self.hosts:
            if host.is_active:
                return host
        raise OracleClosed("no active frontend (all hosts down?)")

    @property
    def active_frontend(self) -> OracleFrontend:
        frontend = self._frontend
        if frontend is None:
            raise self._unavailable()
        return frontend

    def standby_catch_up(self) -> int:
        """Poll every standby's WAL tail once; returns records applied."""
        self._polled_syncs = self.wal.flush_count
        return sum(host.catch_up() for host in self.hosts)

    # ------------------------------------------------------------------
    # client surface (ClientSession-compatible)
    #
    # Each call goes to the cached leader frontend, then tails the
    # standbys if the WAL synced meanwhile: the batch that synced has
    # settled its futures by then, and the open batch is empty, so no
    # request waits on standby work.  The poll goes through the
    # instance attribute, where a tracer may have wrapped it.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _unavailable(self) -> OracleClosed:
        if self._closed:
            return OracleClosed("replicated frontend is closed")
        return OracleClosed("no active frontend (all hosts down?)")

    def begin(self) -> int:
        frontend = self._frontend
        if frontend is None or self._closed:
            raise self._unavailable()
        return frontend.begin()

    def begin_many(self, n: int) -> List[int]:
        frontend = self._frontend
        if frontend is None or self._closed:
            raise self._unavailable()
        return frontend.begin_many(n)

    def submit_commit(self, request: CommitRequest) -> CommitFuture:
        """Queue a commit request on the leader; the future resolves
        when its batch is durable (read-only requests at once, as on
        the plain frontend).  ``Overloaded`` rejections propagate to the
        caller (the session's retry policy backs off)."""
        frontend = self._frontend
        if frontend is None or self._closed:
            raise self._unavailable()
        future = frontend.submit_commit(request)
        if self.wal.flush_count != self._polled_syncs:
            self.standby_catch_up()
        return future

    def submit_abort(self, start_ts: int) -> CommitFuture:
        """Queue a client abort; the future resolves when durable."""
        frontend = self._frontend
        if frontend is None or self._closed:
            raise self._unavailable()
        future = frontend.submit_abort(start_ts)
        if self.wal.flush_count != self._polled_syncs:
            self.standby_catch_up()
        return future

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
        """Client requests not yet durable: the leader's open batch,
        which is the failover retry set."""
        frontend = self._frontend
        return frontend.pending_count if frontend is not None else 0

    # ------------------------------------------------------------------
    # drive loop
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force the open batch out.

        After this returns, every request submitted before the call has
        settled its future (durable outcome or decision error) — the
        replicated tier's group-commit barrier — and the standbys have
        tailed the sync.
        """
        self.active_frontend.flush()
        if self.wal.flush_count != self._polled_syncs:
            self.standby_catch_up()

    def close(self) -> None:
        """Flush everything out and stop accepting requests."""
        if self._closed:
            return
        if self._frontend is not None:
            self._frontend.close()
        self._closed = True

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def kill_active(self) -> FrontendHost:
        """Crash the leader; promote the next host; retry the open batch.

        The crash sequence mirrors a real host loss: the WAL's buffered
        (never-acked) records die first, then the host's open batch is
        detached from the dead frontend, then the session expires and
        the election promotes the next candidate (warm: O(delta)
        catch-up).  Finally every detached request — flushed means
        durable, so these are all the never-durable ones — is
        re-enqueued into the new leader with its original start
        timestamp and its original future, paced by the retry policy.
        """
        victim = self.active_host()
        crash_exc = OracleClosed(
            f"frontend host {victim.host_id} crashed mid-batch"
        )
        self.wal.drop_pending()
        detached = victim.frontend.detach_pending()
        victim.crash()  # the next candidate promotes inside this call
        self.failovers += 1
        self._retry(detached, crash_exc)
        return victim

    def _retry(self, items: List[Any], crash_exc: BaseException) -> None:
        """Move a dead leader's open batch into the new one.  Only these
        requests get a retry count; one that failed over before and is
        still unflushed carries its count over."""
        frontend = self._frontend
        policy = self._retry_policy
        previous, self.retries = self.retries, {}
        for item in items:
            future = item[1]
            attempts = previous.get(future.start_ts, 0) + 1
            if frontend is None or attempts >= policy.max_attempts:
                # No survivor, or the budget is spent: fail permanently.
                future._fail(crash_exc)
                self.failed_after_retries += 1
                continue
            delay = policy.delay_for(attempts)
            self.backoff_seconds += delay
            if self._sleep is not None:
                self._sleep(delay)
            self.retried_requests += 1
            self.retries[future.start_ts] = attempts
            try:
                frontend.requeue(item)
            except Overloaded as exc:
                # The new leader shed the retry: surface it rather than
                # silently dropping the request.
                future._fail(exc)
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
