"""Simulated group-commit frontend: engine-driven flush timing.

Wires :class:`repro.server.OracleFrontend` into the discrete-event
engine: the frontend's flush-interval trigger is scheduled with
``engine.call_in`` (no polling), client sessions wait on commit futures
bridged to engine events, and every flushed batch occupies the oracle's
critical-section resource for the *batch* service time before its single
WAL write makes it durable — the two amortizations of §6.3/Appendix A,
in simulated time.

This is the timing companion to the wall-clock microbench in
:mod:`repro.bench.frontend_bench`: that one measures real CPU cost,
this one reproduces queueing behaviour (latency vs. batch size, timer
vs. count flushes under light vs. heavy load).

Two serving-tier failure modes can be injected (benchmark E22):

* **overload** — ``offered_tps`` switches the sim to an *open loop*
  (arrivals at a fixed rate, regardless of completions) and
  ``max_queue_depth`` bounds the frontend's queue; shed requests back
  off per a :class:`~repro.server.retry.RetryPolicy` and are dropped
  once it is spent.  Admission slots release at *durability*
  (:meth:`~repro.server.frontend.OracleFrontend.mark_durable`, wired to
  the batch's durable event), so the bound really caps decisions in
  flight, not just the open batch.
* **failover** — ``failover_at`` crashes the serving frontend at a sim
  time: its open batch fails (:meth:`~repro.server.frontend.OracleFrontend.fail_pending`
  — the satellite crash-path fix), the tier is down for
  ``failover_downtime`` seconds, then a fresh frontend over the same
  oracle state takes over; clients ride out the outage and resubmit
  crashed requests with their original start timestamps.  (State
  recovery itself — warm vs. cold — is :mod:`repro.server.ha`'s job
  and measured on the wall clock; the sim prices the *service* gap.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.engine import ENGINE_KINDS, default_engine_kind, make_engine
from repro.core.errors import OracleClosed, Overloaded
from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import ShardingPolicy
from repro.server.frontend import FlushedBatch, FrontendStats, OracleFrontend
from repro.server.retry import RetryPolicy
from repro.sim.engine import Engine, Resource
from repro.sim.latency import LatencyModel, paper_latency_model
from repro.workload.generator import WorkloadGenerator, complex_workload


@dataclass
class GroupCommitSimResult:
    """Measured behaviour of the batched oracle for one configuration."""

    level: str
    batch_size: int
    num_clients: int
    throughput_tps: float
    avg_latency_ms: float
    p99_latency_ms: float
    abort_rate: float
    commits: int
    aborts: int
    avg_batch: float
    flushes_by_count: int
    flushes_by_timer: int
    oracle_utilization: float
    #: Open-loop arrival rate (0.0 = closed loop).
    offered_tps: float = 0.0
    #: Requests dropped after their overload-retry budget ran out.
    shed_requests: int = 0
    #: Overloaded rejections the frontends issued (>= backoffs).
    overload_rejections: int = 0
    #: Backoffs clients served before a successful (re)submit.
    overload_backoffs: int = 0
    #: Requests resubmitted after dying in a crashed leader's batch.
    crash_retries: int = 0
    failovers: int = 0
    #: High-water mark of decisions in flight across all frontends.
    max_inflight_seen: int = 0

    def as_row(self) -> str:
        return (
            f"{self.level:>4} batch={self.batch_size:>4} "
            f"tput={self.throughput_tps:>9.0f} TPS "
            f"lat={self.avg_latency_ms:>7.3f} ms "
            f"avg_batch={self.avg_batch:>6.1f} "
            f"timer/count={self.flushes_by_timer}/{self.flushes_by_count}"
        )


class GroupCommitSim:
    """Closed-loop clients submitting through an OracleFrontend.

    Args:
        engine: which :class:`~repro.core.engine.CommitEngine` decides
            commits — ``"oracle"`` (the paper's SI/WSI status oracle,
            the default), ``"percolator"``, or ``"ssi"``.  The sim
            drives whichever engine through the same frontend; batch
            service time is priced by what the engine's critical
            section loads per row (Percolator checks write sets only —
            SI pricing; SSI loads read and write sets — WSI pricing).
            Non-oracle engines are monolithic: combine with
            ``num_partitions`` and the constructor raises.
        batch_size: the frontend's count trigger (``max_batch``).
        flush_interval: the frontend's time trigger, fired by the engine.
        num_clients / outstanding_per_client: closed-loop population, as
            in the Fig. 5 setup (§6.3).
        num_partitions: ``0`` (default) runs the monolithic oracle; a
            positive count runs a
            :class:`~repro.core.partitioned.PartitionedOracle` backend,
            priced like the monolithic oracle by the rows its batch
            checks and updates.
        sharding: optional
            :class:`~repro.core.sharding.ShardingPolicy` for the
            partitioned backend.
        max_queue_depth: admission-control bound forwarded to the
            frontend (decisions in flight; ``Overloaded`` sheds the
            rest).  ``None`` queues without bound.
        offered_tps: switch to an *open loop*: requests arrive at this
            fixed rate whatever the completion rate (``num_clients`` /
            ``outstanding_per_client`` are then ignored).  The E22
            overload leg offers 2x the measured 1x capacity.
        failover_at: crash the serving frontend at this sim time (its
            open batch fails; crashed requests are retried against the
            successor); ``None`` disables.
        failover_downtime: service outage between crash and the
            successor frontend accepting traffic.
        retry_policy: client backoff for ``Overloaded`` rejections and
            crashed-request resubmission.
    """

    def __init__(
        self,
        level: str = "wsi",
        engine: Optional[str] = None,
        batch_size: int = 32,
        num_clients: int = 4,
        outstanding_per_client: int = 25,
        flush_interval: float = 0.005,
        keyspace: int = 20_000_000,
        latency: Optional[LatencyModel] = None,
        seed: int = 42,
        warmup: float = 0.1,
        measure: float = 0.5,
        num_partitions: int = 0,
        sharding: Optional[ShardingPolicy] = None,
        max_queue_depth: Optional[int] = None,
        offered_tps: Optional[float] = None,
        failover_at: Optional[float] = None,
        failover_downtime: float = 0.002,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if offered_tps is not None and offered_tps <= 0:
            raise ValueError("offered_tps must be > 0 (or None)")
        if engine is None:
            engine = default_engine_kind()
        if engine not in ENGINE_KINDS:
            raise ValueError(
                f"engine must be one of {ENGINE_KINDS}, got {engine!r}"
            )
        if engine != "oracle" and num_partitions:
            raise ValueError(
                "the partitioned backend is oracle-only; "
                "non-oracle engines are monolithic"
            )
        self.level = level
        self.engine_kind = engine
        # What the engine's critical section loads per row: Percolator's
        # ww check reads write sets only (SI-shaped cost); SSI loads
        # read and write footprints (WSI-shaped cost).
        self._pricing_level = {"percolator": "si", "ssi": "wsi"}.get(
            engine, level
        )
        self.batch_size = batch_size
        self.num_clients = num_clients
        self.outstanding = outstanding_per_client
        self.latency = latency or paper_latency_model(seed=seed)
        self.warmup = warmup
        self.measure = measure
        self.engine = Engine()
        self.num_partitions = num_partitions
        self.max_queue_depth = max_queue_depth
        self.offered_tps = offered_tps
        self.failover_at = failover_at
        self.failover_downtime = failover_downtime
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=6, base_delay=0.001, multiplier=2.0, max_delay=0.016
        )
        if num_partitions:
            self.oracle = PartitionedOracle(
                level=level,
                num_partitions=num_partitions,
                sharding=sharding,
            )
        else:
            self.oracle = make_engine(engine, level=level)
            self.level = self.oracle.level
        self._flush_interval = flush_interval
        #: Stats of frontends retired by a failover (aggregated into
        #: the result alongside the serving frontend's).
        self._retired_stats: List[FrontendStats] = []
        #: None during the failover outage window.
        self.frontend: Optional[OracleFrontend] = self._make_frontend()
        self.critical_section = Resource(self.engine, capacity=1, name="oracle-cs")
        self.workload: WorkloadGenerator = complex_workload(
            distribution="uniform", keyspace=keyspace, seed=seed
        )
        self._latencies: List[float] = []
        self._commits = 0
        self._aborts = 0
        self.failovers = 0
        self._shed = 0
        self._overload_backoffs = 0
        self._crash_retries = 0

    def _make_frontend(self) -> OracleFrontend:
        frontend = OracleFrontend(
            self.oracle,
            max_batch=self.batch_size,
            flush_interval=self._flush_interval,
            clock=lambda: self.engine.now,
            scheduler=self.engine.call_in,
            max_queue_depth=self.max_queue_depth,
        )
        # Bind the owner into the listener: a batch's durability must
        # release admission slots on the frontend that admitted it, even
        # if a failover replaced ``self.frontend`` in between.
        frontend.on_flush(
            lambda cell, owner=frontend: self._batch_flushed(cell, owner)
        )
        return frontend

    # ------------------------------------------------------------------
    # batch timing: one critical-section occupancy + one WAL write
    # ------------------------------------------------------------------
    def _batch_flushed(self, batch: FlushedBatch, owner: OracleFrontend) -> None:
        batch.durable_event = self.engine.event()
        self.engine.process(self._batch_timing(batch, owner))

    def _batch_timing(self, batch: FlushedBatch, owner: OracleFrontend):
        lat = self.latency
        service = lat.oracle_service_batch(
            self._pricing_level,
            batch.size,
            batch.rows_checked,
            batch.rows_updated,
        )
        yield self.critical_section.acquire()
        yield self.engine.timeout(lat.sample(service))
        self.critical_section.release()
        if batch.wal_written:
            yield self.engine.timeout(lat.sample(lat.wal_write))
        batch.durable_event.succeed()
        # In flight spans submit -> durable: only now do the batch's
        # admission slots free up (no-op when max_queue_depth is None).
        owner.mark_durable(batch)

    # ------------------------------------------------------------------
    # failure injection: leader crash + takeover
    # ------------------------------------------------------------------
    def _failover_process(self):
        yield self.engine.timeout(self.failover_at)
        frontend = self.frontend
        self.frontend = None
        # The open batch dies with the host: its futures resolve with
        # the crash error (never a permanent DecisionPending), and the
        # clients holding them resubmit with the same start timestamps.
        frontend.fail_pending(
            OracleClosed("simulated leader crash (failover_at)")
        )
        self._retired_stats.append(frontend.stats)
        self.failovers += 1
        yield self.engine.timeout(self.failover_downtime)
        self.frontend = self._make_frontend()

    # ------------------------------------------------------------------
    # client processes
    # ------------------------------------------------------------------
    def _transact(self, started: float):
        """Drive one transaction to a durable outcome; yields engine
        events.  Generator-returns the resolved future, or None if the
        request was shed (open loop only: the overload-retry budget ran
        out before a submit was accepted)."""
        engine = self.engine
        policy = self.retry_policy
        open_loop = self.offered_tps is not None
        attempt = 1
        request = None
        while True:
            frontend = self.frontend
            if frontend is None or frontend.closed:
                # Failover outage: ride it out, then retry.  A begun-
                # but-unsubmitted timestamp is abandoned as a gap (the
                # lease was durably reserved; reuse is impossible).
                yield engine.timeout(policy.base_delay)
                continue
            if request is None:
                start_ts = frontend.begin()
                spec = self.workload.next_transaction()
                request = spec.commit_request(start_ts)
            try:
                future = frontend.submit_commit(request)
            except Overloaded:
                if open_loop and attempt >= policy.max_attempts:
                    self._shed += 1
                    return None
                self._overload_backoffs += 1
                yield engine.timeout(
                    policy.delay_for(min(attempt, policy.max_attempts))
                )
                attempt += 1
                continue
            except OracleClosed:
                continue  # crashed between the check and the submit
            if not future.done:
                bridge = engine.event()
                future.add_done_callback(lambda _f, ev=bridge: ev.succeed())
                yield bridge
            if future.outcome() == "error":
                # The batch died in a crashed leader.  The request was
                # never decided and never persisted, so resubmitting it
                # — same start timestamp — cannot double-decide.
                self._crash_retries += 1
                yield engine.timeout(
                    policy.delay_for(min(attempt, policy.max_attempts))
                )
                attempt += 1
                continue
            batch = future.batch
            if batch is not None:
                # group commit: acknowledged when the batch is durable
                yield batch.durable_event
            if engine.now >= self.warmup:
                self._latencies.append(engine.now - started)
                if future.committed:
                    self._commits += 1
                else:
                    self._aborts += 1
            return future

    def _client_stream(self):
        """Closed-loop client: think, transact, repeat."""
        engine = self.engine
        lat = self.latency
        while True:
            started = engine.now
            yield engine.timeout(lat.sample_start_timestamp())
            yield from self._transact(started)

    def _one_request(self):
        yield from self._transact(self.engine.now)

    def _arrival_process(self):
        """Open-loop source: fixed-rate arrivals, ignoring completions."""
        interarrival = 1.0 / self.offered_tps
        while True:
            self.engine.process(self._one_request())
            yield self.engine.timeout(interarrival)

    # ------------------------------------------------------------------
    def _stat_sum(self, name: str) -> int:
        total = sum(getattr(stats, name) for stats in self._retired_stats)
        if self.frontend is not None:
            total += getattr(self.frontend.stats, name)
        return total

    def run(self) -> GroupCommitSimResult:
        if self.failover_at is not None:
            self.engine.process(self._failover_process())
        if self.offered_tps is not None:
            self.engine.process(self._arrival_process())
        else:
            for _ in range(self.num_clients * self.outstanding):
                self.engine.process(self._client_stream())
        self.engine.run(until=self.warmup + self.measure)
        total = self._commits + self._aborts
        lat_ms = sorted(1000 * x for x in self._latencies)
        avg = sum(lat_ms) / len(lat_ms) if lat_ms else 0.0
        p99 = lat_ms[int(0.99 * (len(lat_ms) - 1))] if lat_ms else 0.0
        all_stats = list(self._retired_stats)
        if self.frontend is not None:
            all_stats.append(self.frontend.stats)
        batches = sum(s.batches for s in all_stats)
        batched = sum(s.batched_requests for s in all_stats)
        return GroupCommitSimResult(
            level=self.level,
            batch_size=self.batch_size,
            num_clients=self.num_clients,
            throughput_tps=total / self.measure if self.measure > 0 else 0.0,
            avg_latency_ms=avg,
            p99_latency_ms=p99,
            abort_rate=self._aborts / total if total else 0.0,
            commits=self._commits,
            aborts=self._aborts,
            avg_batch=batched / batches if batches else 0.0,
            flushes_by_count=self._stat_sum("flushes_by_count"),
            flushes_by_timer=self._stat_sum("flushes_by_timer"),
            oracle_utilization=self.critical_section.utilization(),
            offered_tps=self.offered_tps or 0.0,
            shed_requests=self._shed,
            overload_rejections=self._stat_sum("overload_rejections"),
            overload_backoffs=self._overload_backoffs,
            crash_retries=self._crash_retries,
            failovers=self.failovers,
            max_inflight_seen=max(s.max_inflight_seen for s in all_stats),
        )


def sweep_group_commit(
    level: str,
    batch_sizes: Optional[List[int]] = None,
    num_clients: int = 4,
    outstanding_per_client: int = 25,
    seed: int = 42,
    measure: float = 0.4,
    keyspace: int = 20_000_000,
) -> List[GroupCommitSimResult]:
    """Throughput/latency vs. batch size (batch 1 = no group commit)."""
    sizes = batch_sizes or [1, 8, 32, 128]
    results = []
    for batch_size in sizes:
        sim = GroupCommitSim(
            level=level,
            batch_size=batch_size,
            num_clients=num_clients,
            outstanding_per_client=outstanding_per_client,
            seed=seed,
            measure=measure,
            keyspace=keyspace,
        )
        results.append(sim.run())
    return results
