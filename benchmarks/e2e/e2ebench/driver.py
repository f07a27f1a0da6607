"""Timed loops, output verification and metric assembly.

One *repetition* = draw the pool, build a fresh stack, open the first
transactions (all of that is set-up), run a fixed number of operations
against the wall clock, then verify what the stack produced.  The loops
are closed: every caller waits for its decision, so there is no arrival
schedule, no queue that could grow and no rate to search for.

An untraced run is five repetitions and reports medians; a traced run
is one untraced repetition followed by one with span wrappers installed
(:mod:`e2ebench.tracing`), and reports the per-layer table.  End-to-end
numbers never come from a traced repetition.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core import make_engine
from repro.core.errors import ConflictAbort
from repro.core.transaction import Transaction
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD

from e2ebench.tracing import Tracer
from e2ebench.workloads import (
    OPEN_TRANSACTIONS,
    PRELOAD_VALUE,
    SESSIONS,
    TXN_RING,
    WORKLOADS,
    Pool,
    Workload,
    build_txn,
    draw_pool,
)

REPETITIONS = 5
#: Cold rebuilds of the log timed per repetition (one is ~0.1-0.4 s).
RECOVERIES = 3
OUT_DIR = Path(__file__).resolve().parent.parent / "out"
#: Spans written to ``out/trace-<workload>.jsonl`` (the table uses all).
TRACE_FILE_SPANS = 200_000
#: Outcome codes in the decision CRC, keyed by ``CommitFuture.outcome()``.
READ_ONLY, COMMITTED, ABORTED, ERROR = 0, 1, 2, 3
OUTCOME_CODES = {
    "read-only": READ_ONLY, "committed": COMMITTED,
    "aborted": ABORTED, "error": ERROR,
}
Decision = Tuple[int, int, int]  # (start_ts, outcome code, commit_ts | 0)

#: Counts only some stacks have; the others report 0 for them.
STACK_SPECIFIC_COUNTS = (
    "frontend.avg_batch", "frontend.flushes_forced",
    "partitioned.validate_us", "partitioned.install_us",
    "partitioned.cross_fraction", "partitioned.rounds_per_flush",
    "ha.retried_requests", "mvcc.versions",
)

_AMBIENT_AXES = ("REPRO_ENGINE", "REPRO_LASTCOMMIT", "REPRO_EXECUTOR")


@contextlib.contextmanager
def pinned_environment() -> Iterator[None]:
    """Ambient ``REPRO_*`` axes must not change what is measured.

    Every axis the stacks can take explicitly is passed explicitly; the
    rest (the HA tier builds its engines itself) resolve through the
    environment, so it is scrubbed for the duration and restored after.
    The race checker replaces the hot locks with instrumented ones —
    numbers taken under it describe the checker, so it is refused.
    """
    if os.environ.get("REPRO_RACECHECK", "").strip() not in ("", "0"):
        raise SystemExit("refusing to benchmark under REPRO_RACECHECK")
    saved = {name: os.environ.pop(name, None) for name in _AMBIENT_AXES}
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value


class Checks:
    """Verification verdicts of one repetition."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        #: operations that errored, never settled, or failed a checker
        #: (a check over the whole run counts as one).
        self.failed = 0

    def fail(self, message: str, operations: int = 1) -> None:
        self.problems.append(message)
        self.failed += operations


@dataclass
class Repetition:
    """What one repetition measured and counted."""

    ops: int
    setup_s: float
    generate_s: float
    wall_s: float
    latency_ns: List[int]  # sorted
    gen2_collections: int
    commits: int
    aborts: int
    crc: int
    recovery_s: float
    records_replayed: int
    #: exact counts read off the stack's own stats objects.
    counts: Dict[str, float]
    checks: Checks
    batch_wait_ns: int = 0
    batch_wait_samples: int = 0

    @property
    def throughput(self) -> float:
        return self.ops / self.wall_s

    def latency_ms(self, quantile: float) -> float:
        samples = self.latency_ns
        return samples[min(len(samples) - 1, int(len(samples) * quantile))] / 1e6


# ----------------------------------------------------------------------
# shared scaffolding
# ----------------------------------------------------------------------
@contextlib.contextmanager
def timed_region(tracer: Optional[Tracer]) -> Iterator[SimpleNamespace]:
    """The timed loop's frame: wall clock, root span, GC bookkeeping."""
    # The pool and the stack are long-lived: keep the collector from
    # rescanning them on every generation-2 pass.  GC itself stays on.
    gc.collect()
    gc.freeze()
    region = SimpleNamespace(wall_s=0.0, gen2_collections=0)
    gen2_before = gc.get_stats()[2]["collections"]
    root = tracer.enter("driver") if tracer is not None else None
    started = perf_counter_ns()
    yield region
    region.wall_s = (perf_counter_ns() - started) / 1e9
    if tracer is not None:
        tracer.exit(root)
    region.gen2_collections = gc.get_stats()[2]["collections"] - gen2_before
    gc.unfreeze()


def decisions_in_log(wal) -> Iterator[Tuple[int, Optional[int]]]:
    """``(start_ts, commit_ts | None)`` per decision in the durable log."""
    for record in wal.replay():
        if record.kind == GROUP_COMMIT_RECORD:
            commits, aborts = record.payload
            for start_ts, commit_ts, _rows in commits:
                yield start_ts, commit_ts
            for start_ts in aborts:
                yield start_ts, None
        elif record.kind == "commit":
            yield record.payload[0], record.payload[1]
        elif record.kind == "abort":
            yield record.payload[0], None


def check_timestamps(wal, begun: List[int], checks: Checks) -> None:
    """No timestamp is ever reused and nothing is decided twice — across
    leaders too, since every leader writes the one shared log."""
    if len(set(begun)) != len(begun):
        checks.fail("a start timestamp was served twice")
    decided = list(decisions_in_log(wal))
    starts = [start_ts for start_ts, _ in decided]
    if len(set(starts)) != len(starts):
        checks.fail("a start timestamp was decided twice in the log")
    commit_tss = [commit_ts for _, commit_ts in decided if commit_ts is not None]
    if len(set(commit_tss)) != len(commit_tss):
        checks.fail("a commit timestamp was issued twice")
    if not set(commit_tss).isdisjoint(begun):
        checks.fail("a timestamp was served as both start and commit")


def recover_and_check(wal, decisions: List[Decision],
                      checks: Checks) -> Tuple[float, int]:
    """Cold recovery of the full log into a fresh engine, timed (median
    of :data:`RECOVERIES` rebuilds); then no acknowledged decision may be
    missing from the rebuilt state (no ack without durability).  Returns
    ``(seconds, records replayed)``."""
    # A recovering process holds nothing but the log: keep the collector
    # off the finished stack while the rebuilds are timed.
    gc.collect()
    gc.freeze()
    seconds = []
    for _ in range(RECOVERIES):
        fresh = make_engine("oracle", level="wsi", lastcommit="dict")
        started = perf_counter_ns()
        replayed = fresh.recover_from(wal)
        seconds.append((perf_counter_ns() - started) / 1e9)
    gc.unfreeze()
    table = fresh.commit_table
    missing = 0
    for start_ts, code, commit_ts in decisions:
        if code == COMMITTED:
            missing += table.commit_timestamp(start_ts) != commit_ts
        elif code == ABORTED:
            missing += not table.is_aborted(start_ts)
    if missing:
        checks.fail(
            f"{missing} acknowledged decisions missing after WAL replay", missing
        )
    return statistics.median(seconds), replayed


def stack_counts(engines: List[Any], wal, ops: int) -> Dict[str, float]:
    """Work per decision and state sizes, off the stack's own counters."""
    checked = updated = 0
    for engine in engines:
        for part in (engine, *getattr(engine, "partitions", ())):
            checked += part.stats.rows_checked
            updated += part.stats.rows_updated
    last = engines[-1]
    entries = size = 0
    for ledger in wal.ledger_manager.ledgers():
        for entry_id in range(ledger.entry_count):
            size += ledger.read(entry_id).size
        entries += ledger.entry_count
    return {
        "engine.rows_checked_per_op": checked / ops,
        "engine.rows_updated_per_op": updated / ops,
        "engine.lastcommit_rows": sum(
            part.lastcommit_size
            for part in getattr(last, "partitions", None) or (last,)
        ),
        "engine.commit_table_entries":
            last.commit_table.commit_count + last.commit_table.abort_count,
        "wal.records": wal.record_count,
        "wal.ledger_entries": entries,
        "wal.bytes_per_op": size / ops,
    }


def finish_repetition(ops: int, setup_s: float, generate_s: float, region,
                      latency: List[int], decisions: List[Decision],
                      begun: List[int], engines: List[Any], wal,
                      counts: Dict[str, float], checks: Checks,
                      batch_wait=(0, 0)) -> Repetition:
    """The verification and accounting every repetition ends with."""
    packed = array("q")
    for decision in decisions:
        packed.extend(decision)
    tally = Counter(code for _, code, _ in decisions)
    recovery_s, replayed = recover_and_check(wal, decisions, checks)
    check_timestamps(wal, begun, checks)
    latency.sort()
    return Repetition(
        ops=ops, setup_s=setup_s, generate_s=generate_s,
        wall_s=region.wall_s, latency_ns=latency,
        gen2_collections=region.gen2_collections,
        commits=tally[READ_ONLY] + tally[COMMITTED], aborts=tally[ABORTED],
        crc=zlib.crc32(packed.tobytes()),
        recovery_s=recovery_s, records_replayed=replayed,
        counts={
            **dict.fromkeys(STACK_SPECIFIC_COUNTS, 0),
            **counts,
            **stack_counts(engines, wal, ops),
        },
        checks=checks,
        batch_wait_ns=batch_wait[0], batch_wait_samples=batch_wait[1],
    )


# ----------------------------------------------------------------------
# the serving loop: sessions -> frontend -> engine -> WAL
# ----------------------------------------------------------------------
def serving_repetition(workload: Workload, pool: Pool, ops: int,
                       tracer: Optional[Tracer], cleanup,
                       setup_started: int, generate_s: float) -> Repetition:
    now = perf_counter_ns
    submitted_at: Dict[int, int] = {}
    latency: List[int] = []
    settled: List[Any] = []
    batch_wait = [0, 0]  # ns from submit to the deciding flush; samples

    # Traced repetitions keep every submit time: on the HA path a full
    # batch is durable — its futures settled — before the flush listener
    # that reads them runs.
    submit_time = submitted_at.pop if tracer is None else submitted_at.__getitem__

    def on_done(future) -> None:
        latency.append(now() - submit_time(future.start_ts))
        settled.append(future)

    def on_flush(cell) -> None:
        # Traced repetitions only.  The listener runs inside
        # frontend.flush, whose span is the innermost open one.
        flush_started = tracer.start[tracer.cur]
        for future in cell.futures:
            batch_wait[0] += flush_started - submitted_at[future.start_ts]
        batch_wait[1] += len(cell.futures)

    stack = workload.build(workload, tracer, on_flush, cleanup)
    slots = [stack.sessions[i % SESSIONS] for i in range(OPEN_TRANSACTIONS)]
    open_ts = [session.begin() for session in slots]
    step = tracer if tracer is not None else SimpleNamespace(tag=0)
    n_pool = len(pool)

    def serve(lo: int, hi: int) -> None:
        # Commit the slot's open transaction, begin its successor: each
        # transaction stays open across ~100 other submits (~3 batches),
        # so conflicts are real.
        for i in range(lo, hi):
            step.tag = i
            slot = i % OPEN_TRANSACTIONS
            session = slots[slot]
            start_ts = open_ts[slot]
            writes, reads = pool[i % n_pool]
            submitted_at[start_ts] = now()
            session.commit(writes, reads, start_ts).add_done_callback(on_done)
            open_ts[slot] = session.begin()

    events = stack.events(ops)
    setup_s = (now() - setup_started) / 1e9
    with timed_region(tracer) as region:
        cursor = 0
        for at, action in events:
            serve(cursor, at)
            action()
            cursor = at
        serve(cursor, ops)
        stack.finish()

    checks = Checks()
    decisions: List[Decision] = []
    for future in settled:
        code = OUTCOME_CODES[future.outcome()]
        decisions.append(
            (future.start_ts, code, future.commit_ts if code == COMMITTED else 0)
        )
    tally = Counter(code for _, code, _ in decisions)
    commits, aborts = tally[READ_ONLY] + tally[COMMITTED], tally[ABORTED]
    if tally[ERROR]:
        checks.fail(
            f"{tally[ERROR]} requests raised a non-abort error", tally[ERROR]
        )
    if len(settled) != ops:
        checks.fail(f"{ops - len(settled)} futures never settled", ops - len(settled))
    sessions = stack.sessions
    if (commits, aborts, tally[ERROR]) != (
        sum(s.commits for s in sessions),
        sum(s.aborts for s in sessions),
        sum(s.errors for s in sessions),
    ):
        checks.fail("driver tallies differ from the ClientSession tallies")
    if len(stack.engines) == 1:
        # (Across a failover the dead leaders' never-durable decisions
        # are decided again, so only a single engine's stats must match.)
        stats = stack.engines[0].stats
        if (commits, aborts) != (stats.commits, stats.aborts):
            checks.fail("driver tallies differ from the engine's OracleStats")

    frontend_stats = [frontend.stats for frontend in stack.frontends]
    batches = sum(s.batches for s in frontend_stats)
    engine = stack.engines[-1]
    counts = {
        "frontend.avg_batch":
            sum(s.batched_requests for s in frontend_stats) / batches,
        "frontend.flushes_forced": sum(s.flushes_by_force for s in frontend_stats),
        "partitioned.validate_us":
            sum(s.partition_validate_seconds for s in frontend_stats) * 1e6 / ops,
        "partitioned.install_us":
            sum(s.partition_install_seconds for s in frontend_stats) * 1e6 / ops,
        "partitioned.cross_fraction": engine.cross_partition_fraction()
            if hasattr(engine, "cross_partition_fraction") else 0.0,
        "partitioned.rounds_per_flush": sum(
            s.partition_check_rounds + s.partition_install_rounds
            for s in frontend_stats
        ) / batches,
        "ha.retried_requests": stack.retried_requests(),
    }
    return finish_repetition(
        ops, setup_s, generate_s, region, latency, decisions,
        [future.start_ts for future in settled] + open_ts,
        stack.engines, stack.wal, counts, checks, batch_wait,
    )


# ----------------------------------------------------------------------
# the transactional loop: TransactionManager -> MVCCStore + commit()
# ----------------------------------------------------------------------
def txn_repetition(workload: Workload, pool: Pool, ops: int,
                   tracer: Optional[Tracer], cleanup,
                   setup_started: int, generate_s: float) -> Repetition:
    now = perf_counter_ns
    stack = workload.build(workload, tracer, None, cleanup)
    begin = stack.manager.begin
    read, write, commit = Transaction.read, Transaction.write, Transaction.commit
    if tracer is not None:
        begin = tracer.traced(begin, "txn.begin")
        read = tracer.traced(read, "txn.read")
        write = tracer.traced(write, "txn.write")
        commit = tracer.traced(commit, "txn.commit")
    n_pool = len(pool)

    def execute(spec: int) -> Transaction:
        writes, reads = pool[spec]
        txn = begin()
        for row in reads:
            read(txn, row)
        value = txn.start_ts
        for row in writes:
            write(txn, row, value)
        return txn

    ring = [execute(slot % n_pool) for slot in range(TXN_RING)]
    spec_of = [slot % n_pool for slot in range(TXN_RING)]
    busy = [0] * TXN_RING  # ns each open transaction's own calls took so far
    stats_before = replace(stack.engine.stats)
    step = tracer if tracer is not None else SimpleNamespace(tag=0)
    latency: List[int] = []
    log: List[Tuple[int, int, int]] = []  # (start_ts, commit_ts | 0, spec)

    setup_s = (now() - setup_started) / 1e9
    with timed_region(tracer) as region:
        # Commit the oldest open transaction, then run begin + every
        # read and write of its successor.
        for i in range(ops):
            step.tag = i
            slot = i % TXN_RING
            txn = ring[slot]
            t0 = now()
            try:
                commit_ts = commit(txn)
            except ConflictAbort:
                commit_ts = 0
            t1 = now()
            # Service time of the transaction's own calls; the time it
            # sat in the ring while the others ran is not its latency.
            latency.append(busy[slot] + t1 - t0)
            log.append((txn.start_ts, commit_ts, spec_of[slot]))
            spec = (i + TXN_RING) % n_pool
            ring[slot] = execute(spec)
            spec_of[slot] = spec
            busy[slot] = now() - t1
        stack.wal.flush()

    checks = Checks()
    decisions: List[Decision] = []
    for start_ts, commit_ts, _spec in log:
        if commit_ts == 0:
            decisions.append((start_ts, ABORTED, 0))
        elif commit_ts == start_ts:  # no separate commit point (§5.1)
            decisions.append((start_ts, READ_ONLY, 0))
        else:
            decisions.append((start_ts, COMMITTED, commit_ts))
    stats = stack.engine.stats
    aborts = sum(1 for _, code, _ in decisions if code == ABORTED)
    if (ops - aborts, aborts) != (
        stats.commits - stats_before.commits, stats.aborts - stats_before.aborts
    ):
        checks.fail("driver tallies differ from the engine's OracleStats")
    # A final snapshot read of every row any transaction wrote, against
    # a shadow map replayed from the committed ones in commit order
    # (aborted writers must have left nothing behind).
    shadow: Dict[int, int] = {}
    for _commit_ts, start_ts, spec in sorted(
        (commit_ts, start_ts, spec)
        for start_ts, commit_ts, spec in log if commit_ts not in (0, start_ts)
    ):
        for row in pool[spec][0]:
            shadow[row] = start_ts
    reader = stack.manager.begin()
    stale = sum(
        1 for row in {row for _s, _c, spec in log for row in pool[spec][0]}
        if reader.read(row) != shadow.get(row, PRELOAD_VALUE)
    )
    if stale:
        checks.fail(f"{stale} rows read back differently from the shadow map", stale)

    return finish_repetition(
        ops, setup_s, generate_s, region, latency, decisions,
        [start_ts for start_ts, _, _ in log] + [txn.start_ts for txn in ring],
        [stack.engine], stack.wal,
        {"mvcc.versions": stack.store.version_count}, checks,
    )


def repetition(workload: Workload, seed: int, ops: int,
               tracer: Optional[Tracer] = None) -> Repetition:
    """Set up from scratch, run ``ops`` operations, verify."""
    gc.collect()
    setup_started = perf_counter_ns()
    pool = draw_pool(workload, seed)
    generate_s = (perf_counter_ns() - setup_started) / 1e9
    run = txn_repetition if workload.build is build_txn else serving_repetition
    with contextlib.ExitStack() as cleanup:
        return run(workload, pool, ops, tracer, cleanup, setup_started, generate_s)


# ----------------------------------------------------------------------
# runs: what one invocation of the command measures
# ----------------------------------------------------------------------
#: span name -> per-layer metric fed by its self time (µs per operation).
SPAN_METRICS = {
    "session.begin": "session.begin_us",
    "session.commit": "session.commit_us",
    "frontend.begin": "frontend.begin_us",
    "frontend.submit": "frontend.submit_us",
    "frontend.flush": "frontend.flush_us",
    "engine.begin": "engine.begin_us",
    "engine.decide": "engine.decide_us",
    "engine.commit": "engine.commit_us",
    "wal.append": "wal.append_us",
    "wal.sync": "wal.sync_us",
    "ledger.append": "ledger.append_us",
    "ha.begin": "ha.begin_us",
    "ha.submit": "ha.submit_us",
    "ha.catch_up": "ha.catch_up_us",
    "txn.begin": "txn.begin_us",
    "txn.read": "txn.read_us",
    "txn.write": "txn.write_us",
    "txn.commit": "txn.commit_us",
    "mvcc.put": "mvcc.put_us",
    "mvcc.get": "mvcc.get_us",
    "driver": "driver.self_us",
}


@dataclass
class RunResult:
    """One invocation's verdict, metrics and the facts behind them."""

    ops: int
    metrics: Dict[str, float]
    crc: int
    attempted: int
    failed: int
    problems: List[str]
    #: ``name -> (min, max)`` over the repetitions, for the printed table.
    ranges: Dict[str, Tuple[float, float]]


def cross_check(repetitions: List[Repetition]) -> List[str]:
    """Decisions and counts must repeat bit-for-bit on every repetition
    of one pool, traced or not."""
    problems: List[str] = []
    first = repetitions[0]
    for rep in repetitions[1:]:
        if rep.crc != first.crc:
            problems.append(
                f"decision CRC {rep.crc:#010x} differs from {first.crc:#010x} "
                "between repetitions"
            )
        changed = sorted(
            name for name, value in first.counts.items()
            # ``_us`` entries are the stack's own wall-clock counters.
            if not name.endswith("_us") and rep.counts[name] != value
        )
        if changed:
            problems.append(f"counts differ between repetitions: {changed}")
    return problems


def verdict(repetitions: List[Repetition], cross: List[str]) -> Dict[str, Any]:
    """Attempted/failed/problems over a run's repetitions (a failed
    cross-repetition check counts as one failed operation)."""
    return {
        "attempted": sum(rep.ops for rep in repetitions),
        "failed": sum(rep.checks.failed for rep in repetitions) + len(cross),
        "problems":
            [p for rep in repetitions for p in rep.checks.problems] + cross,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload: Workload, seed: int, ops: int,
                 repetitions: int = REPETITIONS) -> RunResult:
    """The end-to-end metrics: medians over fresh repetitions."""
    reps = [repetition(workload, seed, ops) for _ in range(repetitions)]
    columns = {
        "throughput_ops_s": [rep.throughput for rep in reps],
        "latency_p50_ms": [rep.latency_ms(0.50) for rep in reps],
        "latency_p99_ms": [rep.latency_ms(0.99) for rep in reps],
        "commit_rate": [rep.commits / rep.ops for rep in reps],
        "recovery_s": [rep.recovery_s for rep in reps],
        "setup_s": [rep.setup_s for rep in reps],
    }
    metrics = {name: statistics.median(values) for name, values in columns.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return RunResult(
        ops=ops, metrics=metrics, crc=reps[0].crc,
        **verdict(reps, cross_check(reps)),
        ranges={name: (min(v), max(v)) for name, v in columns.items()},
    )


def run_traced(workload: Workload, seed: int, ops: int) -> RunResult:
    """The per-layer metrics: an untraced repetition for the reference
    throughput and tail, then the same work under span wrappers."""
    plain = repetition(workload, seed, ops)
    tracer = Tracer(ops * workload.spans_per_op)
    traced = repetition(workload, seed, ops, tracer)
    reps = [plain, traced]
    totals = tracer.totals()
    metrics: Dict[str, float] = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for span, metric in SPAN_METRICS.items():
        if span in totals:
            metrics[metric] = totals[span].self_ns / ops / 1e3
    takeover = totals.get("ha.takeover")
    metrics["ha.takeover_ms"] = (
        takeover.total_ns / takeover.count / 1e6 if takeover else 0.0
    )
    metrics["ha.overhead_us"] = 0.0
    if workload.name == "ha-failover":
        # The same pool through the plain frontend: the difference in
        # time per decision is what the HA tier costs.
        plain_stack = replace(workload, build=WORKLOADS["ycsb-uniform"].build)
        base = repetition(plain_stack, seed, ops)
        reps.append(base)
        metrics["ha.overhead_us"] = 1e6 / plain.throughput - 1e6 / base.throughput
    metrics.update(traced.counts)
    metrics.update({
        "abort_rate": plain.aborts / ops,
        "workload.generate_s": plain.generate_s,
        "frontend.batch_wait_us":
            traced.batch_wait_ns / traced.batch_wait_samples / 1e3
            if traced.batch_wait_samples else 0.0,
        "recovery.replay_us_per_record":
            plain.recovery_s * 1e6 / plain.records_replayed,
        "gc.gen2_collections": plain.gen2_collections,
        "tail.p999_ms": plain.latency_ms(0.999),
        "tail.max_ms": plain.latency_ns[-1] / 1e6,
        "trace.overhead_pct":
            100 * (plain.throughput - traced.throughput) / plain.throughput,
        "budget.coverage":
            sum(t.self_ns for t in totals.values()) / 1e9 / traced.wall_s,
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"trace-{workload.name}.jsonl"), TRACE_FILE_SPANS)
    return RunResult(
        ops=ops, metrics=metrics, crc=plain.crc,
        ranges={}, **verdict(reps, cross_check([plain, traced])),
    )
