"""Status-oracle stress simulation (Figure 5).

Reproduces §6.3's setup: "Each client allows for 100 outstanding
transactions with the execution time of zero, which means that the
clients keep the pipe on the status oracle full.  We exponentially
increase the number of clients from 1 to 26 and plot the average latency
vs. the average throughput."

The oracle's conflict detection runs in a critical section (capacity-1
resource); a commit is acknowledged only after its WAL batch is flushed
(1 KB / 5 ms group commit).  The *real* SI/WSI commit algorithms decide
conflicts — the simulation only supplies time.  Two effects the paper
reports emerge directly:

* closed-loop saturation: throughput caps at the critical-section rate
  while latency grows as outstanding/throughput (Little's law) — the
  hockey stick of Fig. 5;
* WSI saturates earlier than SI (92K vs 104K TPS) because its critical
  section touches twice the memory items (§6.3), which the latency
  model's per-row costs encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.core.status_oracle import StatusOracle, make_oracle
from repro.sim.engine import Engine, Resource
from repro.sim.latency import LatencyModel, latency_summary, paper_latency_model
from repro.workload.generator import WorkloadGenerator, complex_workload

#: §6.3: each client keeps 100 transactions outstanding.
OUTSTANDING_PER_CLIENT = 100
#: Appendix A: ~32 records fill the 1 KB batch (32 B per record).
RECORDS_PER_BATCH = 32


@dataclass
class OracleBenchResult:
    """Measured behaviour of the oracle under one client count."""

    level: str
    num_clients: int
    throughput_tps: float
    avg_latency_ms: float
    p99_latency_ms: float
    abort_rate: float
    commits: int
    aborts: int
    oracle_utilization: float

    def as_row(self) -> str:
        return (
            f"{self.level:>4} clients={self.num_clients:>3} "
            f"tput={self.throughput_tps:>9.0f} TPS "
            f"lat={self.avg_latency_ms:>7.2f} ms "
            f"p99={self.p99_latency_ms:>7.2f} ms "
            f"aborts={100 * self.abort_rate:>5.2f} %"
        )


class OracleBenchSim:
    """Closed-loop clients hammering one status oracle."""

    def __init__(
        self,
        level: str = "wsi",
        num_clients: int = 1,
        outstanding_per_client: int = OUTSTANDING_PER_CLIENT,
        keyspace: int = 20_000_000,
        latency: Optional[LatencyModel] = None,
        seed: int = 42,
        warmup: float = 0.1,
        measure: float = 0.5,
    ) -> None:
        self.level = level
        self.num_clients = num_clients
        self.outstanding = outstanding_per_client
        self.latency = latency or paper_latency_model(seed=seed)
        self.warmup = warmup
        self.measure = measure
        self.engine = Engine()
        self.oracle: StatusOracle = make_oracle(level)
        self.critical_section = Resource(self.engine, capacity=1, name="oracle-cs")
        self.workload: WorkloadGenerator = complex_workload(
            distribution="uniform", keyspace=keyspace, seed=seed
        )
        # WAL group commit: pending ack events released at flush time.
        self._wal_pending: List = []
        self._wal_timer_armed = False
        # measurement
        self._latencies: List[float] = []
        self._commits = 0
        self._aborts = 0

    # ------------------------------------------------------------------
    # WAL group commit
    # ------------------------------------------------------------------
    def _wal_submit(self):
        """Returns an event that fires when this record becomes durable."""
        ack = self.engine.event()
        self._wal_pending.append(ack)
        if len(self._wal_pending) >= RECORDS_PER_BATCH:
            self._flush_wal()
        elif not self._wal_timer_armed:
            self._wal_timer_armed = True
            self.engine.call_in(self.latency.wal_flush_interval, self._timer_flush)
        return ack

    def _timer_flush(self) -> None:
        self._wal_timer_armed = False
        if self._wal_pending:
            self._flush_wal()

    def _flush_wal(self) -> None:
        batch, self._wal_pending = self._wal_pending, []
        write_time = self.latency.sample(self.latency.wal_write)

        def complete() -> None:
            for ack in batch:
                ack.succeed()

        self.engine.call_in(write_time, complete)

    # ------------------------------------------------------------------
    # client process
    # ------------------------------------------------------------------
    def _client_stream(self):
        """One outstanding-transaction slot: loop forever."""
        engine = self.engine
        lat = self.latency
        while True:
            started = engine.now
            # start timestamp (cheap, amortized persistence)
            yield engine.timeout(lat.sample_start_timestamp())
            start_ts = self.oracle.begin()
            spec = self.workload.next_transaction()
            request = spec.commit_request(start_ts)
            # critical section: the conflict check itself
            yield self.critical_section.acquire()
            if self.level == "si":
                service = lat.oracle_service_si(len(request.write_set))
            else:
                service = lat.oracle_service_wsi(
                    len(request.read_set), len(request.write_set)
                )
            yield engine.timeout(lat.sample(service))
            result = self.oracle.commit(request)
            self.critical_section.release()
            # durability: ack after the group-commit flush (commits and
            # aborts are both persisted, Appendix A)
            if request.write_set or request.read_set:
                yield self._wal_submit()
            if engine.now >= self.warmup:
                self._latencies.append(engine.now - started)
                if result.committed:
                    self._commits += 1
                else:
                    self._aborts += 1

    # ------------------------------------------------------------------
    def run(self) -> OracleBenchResult:
        for _ in range(self.num_clients * self.outstanding):
            self.engine.process(self._client_stream())
        horizon = self.warmup + self.measure
        self.engine.run(until=horizon)
        total = self._commits + self._aborts
        elapsed = self.measure
        avg, p99 = latency_summary(self._latencies)
        return OracleBenchResult(
            level=self.level,
            num_clients=self.num_clients,
            throughput_tps=total / elapsed if elapsed > 0 else 0.0,
            avg_latency_ms=avg,
            p99_latency_ms=p99,
            abort_rate=self._aborts / total if total else 0.0,
            commits=self._commits,
            aborts=self._aborts,
            oracle_utilization=self.critical_section.utilization(),
        )


def sweep_clients(
    level: str,
    client_counts: Optional[List[int]] = None,
    seed: int = 42,
    measure: float = 0.4,
    keyspace: int = 20_000_000,
) -> List[OracleBenchResult]:
    """Figure 5's sweep: exponentially growing client counts, 1 -> 26."""
    counts = client_counts or [1, 2, 4, 8, 16, 26]
    results = []
    for n in counts:
        sim = OracleBenchSim(
            level=level,
            num_clients=n,
            seed=seed,
            measure=measure,
            keyspace=keyspace,
        )
        results.append(sim.run())
    return results
