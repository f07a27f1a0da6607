"""Full-cluster simulation: transactions over HBase (Figures 6–10).

Models the paper's testbed (§6): 25 region servers, one status oracle,
clients running one transaction at a time against a 20M-row keyspace.
Each client process:

1. requests a start timestamp (0.17 ms);
2. executes its operations sequentially — every read/write is routed to
   the region server owning the row (contiguous key ranges, as HBase
   splits tables), queues for one of the server's I/O slots, and is
   served with a cold (38.8 ms) or hot (1.1 ms) read time depending on
   that server's block cache, or the 1.13 ms write time;
3. submits the commit request to the status oracle — the *real*
   Algorithm 1/2 implementation — and waits for the WAL-backed ack.

Everything the paper observes emerges from this structure rather than
being scripted:

* uniform keys spread load evenly; the disk-bound servers saturate
  around a few hundred TPS and latency climbs with queueing (Fig. 6);
* zipfian keys (scrambled) concentrate traffic on hot rows that stay in
  block caches, so throughput is higher and latency lower (Fig. 7),
  while hot-row conflicts push abort rates to ~20 % (Fig. 8);
* zipfianLatest keys cluster on the newest region — one server becomes
  a hotspot and the system saturates at far fewer clients (Fig. 9), and
  because reads target recently *written* rows, WSI's read-write checks
  abort slightly more than SI's write-write checks (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.status_oracle import CommitRequest, StatusOracle, make_oracle
from repro.hbase.region_server import BlockCache
from repro.sim.engine import Engine, Resource
from repro.sim.latency import LatencyModel, latency_summary, paper_latency_model
from repro.workload.generator import TransactionSpec, WorkloadGenerator, mixed_workload

#: paper §6: 25 data servers.
DEFAULT_NUM_SERVERS = 25
#: concurrent I/O slots per region server (disks + handler threads);
#: calibrated so 320 clients saturate near the paper's 391 TPS (Fig. 6).
DEFAULT_IO_CONCURRENCY = 5
#: block-cache capacity per server, in 64-row blocks.  Small relative to
#: the 20M-row keyspace: the paper sizes the table so "the data does not
#: fit into the memory of data servers".
DEFAULT_CACHE_BLOCKS = 800


@dataclass
class ClusterSimResult:
    """One point of a latency-vs-throughput curve."""

    level: str
    distribution: str
    num_clients: int
    throughput_tps: float
    avg_latency_ms: float
    p99_latency_ms: float
    abort_rate: float
    commits: int
    aborts: int
    cache_hit_rate: float
    server_utilization_max: float
    server_utilization_mean: float

    def as_row(self) -> str:
        return (
            f"{self.level:>4} {self.distribution:<13} clients={self.num_clients:>4} "
            f"tput={self.throughput_tps:>7.1f} TPS lat={self.avg_latency_ms:>8.1f} ms "
            f"aborts={100 * self.abort_rate:>5.2f} % "
            f"hit={100 * self.cache_hit_rate:>5.1f} %"
        )


class SimRegionServer:
    """Region server model: an I/O resource plus a block cache."""

    def __init__(
        self,
        engine: Engine,
        server_id: int,
        io_concurrency: int,
        cache_blocks: int,
    ) -> None:
        self.server_id = server_id
        self.io = Resource(engine, capacity=io_concurrency, name=f"rs{server_id}")
        self.cache = BlockCache(cache_blocks)


class ClusterSim:
    """Closed-loop clients over the simulated cluster."""

    def __init__(
        self,
        level: str = "wsi",
        distribution: str = "uniform",
        num_clients: int = 5,
        num_servers: int = DEFAULT_NUM_SERVERS,
        io_concurrency: int = DEFAULT_IO_CONCURRENCY,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        keyspace: int = 20_000_000,
        latency: Optional[LatencyModel] = None,
        seed: int = 42,
        warmup: float = 2.0,
        measure: float = 20.0,
        zetan: Optional[float] = None,
    ) -> None:
        self.level = level
        self.distribution = distribution
        self.num_clients = num_clients
        self.keyspace = keyspace
        self.latency = latency or paper_latency_model(seed=seed)
        self.warmup = warmup
        self.measure = measure
        self.engine = Engine()
        self.oracle: StatusOracle = make_oracle(level)
        self.oracle_cs = Resource(self.engine, capacity=1, name="oracle-cs")
        self.servers = [
            SimRegionServer(self.engine, i, io_concurrency, cache_blocks)
            for i in range(num_servers)
        ]
        self.workload: WorkloadGenerator = mixed_workload(
            distribution=distribution, keyspace=keyspace, seed=seed, zetan=zetan
        )
        self._latencies: List[float] = []
        self._commits = 0
        self._aborts = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def server_for(self, row: int) -> SimRegionServer:
        """Contiguous range partitioning, like HBase regions."""
        idx = row * len(self.servers) // self.keyspace
        return self.servers[min(idx, len(self.servers) - 1)]

    # ------------------------------------------------------------------
    # client process
    # ------------------------------------------------------------------
    def _client(self):
        engine = self.engine
        lat = self.latency
        while True:
            started = engine.now
            spec = self.workload.next_transaction()
            # 1. start timestamp
            yield engine.timeout(lat.sample_start_timestamp())
            start_ts = self.oracle.begin()
            # 2. data operations, sequential like a simple client
            for op in spec.ops:
                server = self.server_for(op.row)
                yield server.io.acquire()
                if op.kind == "r":
                    hit = server.cache.touch(op.row)
                    service = lat.sample_read(hit)
                else:
                    service = lat.sample_write()
                yield engine.timeout(service)
                server.io.release()
                if op.kind == "w":
                    # writes land in the memstore: later reads are hot
                    server.cache.warm(op.row)
            # 3. commit through the status oracle
            committed = yield from self._commit(start_ts, spec)
            if engine.now >= self.warmup:
                self._latencies.append(engine.now - started)
                if committed:
                    self._commits += 1
                else:
                    self._aborts += 1

    def _commit(self, start_ts: int, spec: TransactionSpec):
        lat = self.latency
        engine = self.engine
        write_set = frozenset(spec.write_rows)
        if not write_set:
            # §5.1 read-only fast path: commit request carries empty sets
            # and is answered without conflict checking or WAL cost.
            request = CommitRequest(start_ts)
            result = self.oracle.commit(request)
            yield engine.timeout(lat.sample(lat.network_rtt))
            return result.committed
        request = CommitRequest(
            start_ts,
            write_set=write_set,
            read_set=frozenset(spec.read_rows),
        )
        yield self.oracle_cs.acquire()
        if self.level == "si":
            service = lat.oracle_service_si(len(request.write_set))
        else:
            service = lat.oracle_service_wsi(
                len(request.read_set), len(request.write_set)
            )
        yield engine.timeout(lat.sample(service))
        result = self.oracle.commit(request)
        self.oracle_cs.release()
        # WAL persistence dominates commit latency (4.1 ms in §6.2).
        yield engine.timeout(lat.sample(lat.commit_wal))
        return result.committed

    # ------------------------------------------------------------------
    def run(self) -> ClusterSimResult:
        for _ in range(self.num_clients):
            self.engine.process(self._client())
        horizon = self.warmup + self.measure
        self.engine.run(until=horizon)
        total = self._commits + self._aborts
        avg, p99 = latency_summary(self._latencies)
        hits = sum(s.cache.hits for s in self.servers)
        misses = sum(s.cache.misses for s in self.servers)
        utils = [s.io.utilization() for s in self.servers]
        return ClusterSimResult(
            level=self.level,
            distribution=self.distribution,
            num_clients=self.num_clients,
            throughput_tps=total / self.measure if self.measure > 0 else 0.0,
            avg_latency_ms=avg,
            p99_latency_ms=p99,
            abort_rate=self._aborts / total if total else 0.0,
            commits=self._commits,
            aborts=self._aborts,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            server_utilization_max=max(utils) if utils else 0.0,
            server_utilization_mean=sum(utils) / len(utils) if utils else 0.0,
        )


#: §6.4: "we increase the number of clients from 5 to 10, 20, 40, 80,
#: 160, 320, 640".
PAPER_CLIENT_SWEEP = [5, 10, 20, 40, 80, 160, 320, 640]


def sweep_cluster(
    level: str,
    distribution: str,
    client_counts: Optional[List[int]] = None,
    seed: int = 42,
    measure: float = 15.0,
    warmup: float = 2.0,
    keyspace: int = 20_000_000,
    zetan: Optional[float] = None,
    **kwargs,
) -> List[ClusterSimResult]:
    """Run the paper's client sweep for one (level, distribution) pair."""
    counts = client_counts or PAPER_CLIENT_SWEEP
    results = []
    for n in counts:
        sim = ClusterSim(
            level=level,
            distribution=distribution,
            num_clients=n,
            seed=seed,
            measure=measure,
            warmup=warmup,
            keyspace=keyspace,
            zetan=zetan,
            **kwargs,
        )
        results.append(sim.run())
    return results
