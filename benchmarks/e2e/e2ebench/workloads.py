"""The five workloads: their inputs and the stacks they drive.

Every stack is the real in-process serving path, built through public
constructors with every axis passed explicitly (the ambient ``REPRO_*``
variables are scrubbed by the driver).  When a tracer is given, span
wrappers go onto the instances *before* the stack is wired, so e.g. the
frontend binds the traced ``_decide_batch``.

Why each workload exists is recorded once, in ``BENCHMARK.json`` (and
argued at length in the README next to this package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple
from unittest import mock

from repro.core import PartitionedOracle, create_system, make_engine
from repro.server import ClientSession, OracleFrontend, ReplicatedFrontend
from repro.server import ha as ha_module
from repro.wal.bookkeeper import BookKeeperWAL
from repro.wal.ledger import LedgerManager
from repro.workload import complex_workload, mixed_workload, tpcc

from e2ebench.tracing import Tracer

#: §6.3's stress setup: 4 clients x 25 open transactions = 100 outstanding.
SESSIONS = 4
OPEN_TRANSACTIONS = 100
#: 32 decisions fill exactly one 1 KB WAL entry (Appendix A).
MAX_BATCH = 32
#: ``ha-failover`` polls the standbys every this many submits — a count,
#: not a wall-clock cadence, so the run repeats exactly.
CATCH_UP_EVERY = 1024
#: ``txn-mixed`` keeps this many transactions open.
TXN_RING = 16
PRELOAD_VALUE = -1
PRELOAD_CHUNK = 1000

Pool = List[Tuple[Tuple[int, ...], Tuple[int, ...]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, keyspace) -> spec generator`` from :mod:`repro.workload`.
    generator: Callable[[int, int], Any]
    #: ``(workload, tracer, on_flush, cleanup) -> stack``.
    build: Callable[..., Any]
    #: Specs drawn per run; cycled when a repetition needs more.
    pool_size: int
    #: Decisions/s this stack made on the machine that defined the
    #: benchmark: ``--seconds`` buys ``seconds * ops_per_second``
    #: operations, split over the repetitions.  Counts stay exact
    #: because the amount of work, not the clock, ends a repetition.
    ops_per_second: int
    keyspace: int = 2_000_000
    #: Capacity of the tracer's arrays, per operation: about twice what
    #: the stack was seen to record (5-7 on the serving stacks).
    spans_per_op: int = 16


def draw_pool(workload: Workload, seed: int) -> Pool:
    generator = workload.generator(seed, workload.keyspace)
    pool = []
    for _ in range(workload.pool_size):
        spec = generator.next_transaction()
        pool.append((spec.write_rows, spec.read_rows))
    return pool


# ----------------------------------------------------------------------
# serving stacks: sessions -> frontend -> engine -> WAL -> ledgers
# ----------------------------------------------------------------------
class ServingStack:
    """Sessions over a group-commit frontend (plain or replicated)."""

    def __init__(self, client: Any, wal: BookKeeperWAL,
                 tracer: Optional[Tracer]) -> None:
        self.client = client
        self.wal = wal
        #: every frontend that served and every engine that decided —
        #: one each, except on ``ha-failover`` (one per leader).
        self.frontends: List[OracleFrontend] = []
        self.engines: List[Any] = []
        self.sessions = [
            ClientSession(client, name=f"client-{i}") for i in range(SESSIONS)
        ]
        if tracer is not None:
            for session in self.sessions:
                tracer.wrap(session, "begin", "session.begin")
                tracer.wrap(session, "commit", "session.commit")
            trace_wal(tracer, wal)

    def events(self, ops: int) -> List[Tuple[int, Callable[[], Any]]]:
        """``(op index, action)`` pairs the driver fires mid-run."""
        return []

    def finish(self) -> None:
        """Decide and persist whatever is still buffered."""
        self.client.flush()
        self.wal.flush()

    def retried_requests(self) -> int:
        return 0


class ReplicatedStack(ServingStack):
    """``ReplicatedFrontend`` with two leader kills and counted catch-up."""

    def events(self, ops: int) -> List[Tuple[int, Callable[[], Any]]]:
        client = self.client
        polls = [
            (at, client.standby_catch_up)
            for at in range(CATCH_UP_EVERY, ops, CATCH_UP_EVERY)
        ]
        kills = [(ops // 3, self._kill), (2 * ops // 3, self._kill)]
        return sorted(polls + kills, key=lambda event: event[0])

    def _kill(self) -> None:
        self._note_leader()
        self.client.kill_active()

    def _note_leader(self) -> None:
        host = self.client.active_host()
        self.frontends.append(host.frontend)
        self.engines.append(host.oracle)

    def finish(self) -> None:
        self.client.flush()
        self._note_leader()

    def retried_requests(self) -> int:
        return self.client.retried_requests


def trace_wal(tracer: Tracer, wal: BookKeeperWAL) -> None:
    tracer.wrap(wal, "append_decisions", "wal.append")
    tracer.wrap(wal, "append", "wal.append")
    tracer.wrap(wal, "flush", "wal.sync")
    for ledger in wal.ledger_manager.ledgers():
        tracer.wrap(ledger, "append", "ledger.append")


def new_wal() -> BookKeeperWAL:
    """Appendix A's log: 1 KB / 5 ms triggers over 3 bookies, quorum 2."""
    return BookKeeperWAL(
        LedgerManager(num_bookies=3, write_quorum=2, ack_quorum=2)
    )


def frontend_factory(tracer: Optional[Tracer], on_flush) -> Callable[..., OracleFrontend]:
    """``OracleFrontend`` constructor that traces the engine and frontend
    boundaries when asked to (untraced: the class itself)."""
    if tracer is None:
        return OracleFrontend

    def traced_frontend(backend, **config) -> OracleFrontend:
        tracer.wrap(backend, "begin", "engine.begin")
        tracer.wrap(backend, "_decide_batch", "engine.decide")
        frontend = OracleFrontend(backend, **config)
        tracer.wrap(frontend, "begin", "frontend.begin")
        tracer.wrap(frontend, "submit_commit", "frontend.submit")
        tracer.wrap(frontend, "flush", "frontend.flush")
        frontend.on_flush(on_flush)
        return frontend

    return traced_frontend


def single_leader_stack(frontend, engine, wal, tracer) -> ServingStack:
    stack = ServingStack(frontend, wal, tracer)
    stack.frontends.append(frontend)
    stack.engines.append(engine)
    return stack


def build_monolithic(workload, tracer, on_flush, cleanup) -> ServingStack:
    wal = new_wal()
    engine = make_engine("oracle", level="wsi", wal=wal, lastcommit="dict")
    frontend = frontend_factory(tracer, on_flush)(engine, max_batch=MAX_BATCH)
    return single_leader_stack(frontend, engine, wal, tracer)


def build_partitioned(workload, tracer, on_flush, cleanup) -> ServingStack:
    wal = new_wal()
    engine = PartitionedOracle(
        level="wsi", num_partitions=4, lastcommit="array", executor="serial"
    )
    frontend = frontend_factory(tracer, on_flush)(
        engine, max_batch=MAX_BATCH, wal=wal
    )
    return single_leader_stack(frontend, engine, wal, tracer)


def build_replicated(workload, tracer, on_flush, cleanup) -> ServingStack:
    if tracer is not None:
        # Every leader builds its frontend at promotion, inside the HA
        # tier; the module-level name is the one place to reach them all.
        cleanup.enter_context(mock.patch.object(
            ha_module, "OracleFrontend", frontend_factory(tracer, on_flush)
        ))
    client = ReplicatedFrontend(
        num_hosts=3, level="wsi", warm=True, engine="oracle",
        max_batch=MAX_BATCH,
    )
    if tracer is not None:
        tracer.wrap(client, "begin", "ha.begin")
        tracer.wrap(client, "submit_commit", "ha.submit")
        tracer.wrap(client, "standby_catch_up", "ha.catch_up")
        tracer.wrap(client, "kill_active", "ha.takeover")
    return ReplicatedStack(client, client.wal, tracer)


# ----------------------------------------------------------------------
# txn-mixed: TransactionManager over MVCCStore, sequential commit()
# ----------------------------------------------------------------------
class TxnStack:
    """``create_system("wsi", durable=True)`` with a preloaded table."""

    def __init__(self, keyspace: int, tracer: Optional[Tracer]) -> None:
        system = create_system("wsi", durable=True)
        self.manager = system.manager
        self.store = system.store
        self.engine = system.oracle
        self.wal = system.wal
        if tracer is not None:
            tracer.wrap(self.engine, "begin", "engine.begin")
            tracer.wrap(self.engine, "commit", "engine.commit")
            tracer.wrap(self.store, "put", "mvcc.put")
            tracer.wrap_generator(self.store, "get_versions", "mvcc.get")
            trace_wal(tracer, self.wal)
        for lo in range(0, keyspace, PRELOAD_CHUNK):
            txn = self.manager.begin()
            for row in range(lo, min(lo + PRELOAD_CHUNK, keyspace)):
                txn.write(row, PRELOAD_VALUE)
            txn.commit()


def build_txn(workload, tracer, on_flush, cleanup) -> TxnStack:
    return TxnStack(workload.keyspace, tracer)


def _ycsb_complex(distribution: str):
    return lambda seed, keyspace: complex_workload(
        distribution, keyspace=keyspace, seed=seed
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ycsb-uniform", _ycsb_complex("uniform"), build_monolithic,
                 pool_size=50_000, ops_per_second=88_000),
        Workload("ycsb-zipfian", _ycsb_complex("zipfian"), build_monolithic,
                 pool_size=50_000, ops_per_second=100_000),
        Workload("tpcc-partitioned",
                 lambda seed, keyspace: tpcc(warehouses=16, seed=seed),
                 build_partitioned, pool_size=25_000, ops_per_second=39_000),
        # The same generator call as ycsb-uniform, so the same pool: the
        # two workloads differ by the HA tier and nothing else.
        Workload("ha-failover", _ycsb_complex("uniform"), build_replicated,
                 pool_size=50_000, ops_per_second=68_000),
        Workload("txn-mixed",
                 lambda seed, keyspace: mixed_workload(
                     "zipfian", keyspace=keyspace, seed=seed),
                 build_txn, pool_size=50_000, ops_per_second=29_000,
                 keyspace=200_000, spans_per_op=64),  # ~30 seen: 3 per row
    )
}
