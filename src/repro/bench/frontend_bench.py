"""Wall-clock microbench: unbatched oracle vs. the group-commit frontend.

Unlike :mod:`repro.sim` (which measures *simulated* time), this harness
measures real CPU throughput of the conflict-detection + WAL path — the
thing the frontend's batching is supposed to speed up.  Benchmark E17
(``benchmarks/test_e17_group_commit.py``) sweeps batch sizes with it.

Two unbatched baselines are distinguished:

* ``durable_acks=True`` — the truly unbatched oracle: one WAL append
  *and one replicated ledger write* per decision, i.e. no group commit
  at any layer.  This is the configuration the frontend replaces and the
  one the ≥3x acceptance bar is measured against.
* ``durable_acks=False`` — the seed default, where the oracle still
  appends one WAL record per decision but the WAL's Appendix-A size
  trigger batches records into 1 KB ledger entries underneath.

Methodology notes, learned the hard way:

* start timestamps and commit requests are prepared *outside* the timed
  region, so both sides time exactly the commit-decision path (§6.3's
  critical section plus WAL work);
* ``gc.collect()`` runs before each timed region, and speedup claims use
  *paired* measurements (baseline and batched back-to-back, median of
  the per-pair ratios) — allocator drift and noisy-neighbour phases
  otherwise dominate the effect being measured;
* each configuration reports the best of ``repeats`` runs (the minimum
  is the least-noise estimate).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from types import MethodType
from typing import List, Sequence

from repro.bench.reporting import collector_share
from repro.core.engine import CommitEngine, make_engine
from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.server.frontend import OracleFrontend
from repro.wal.bookkeeper import BookKeeperWAL
from repro.workload.generator import TransactionSpec, complex_workload

DEFAULT_NUM_REQUESTS = 30_000
DEFAULT_KEYSPACE = 2_000_000
DEFAULT_REPEATS = 3


@dataclass
class FrontendBenchResult:
    """Throughput of one configuration."""

    level: str
    #: "unbatched" | "unbatched-durable" | "batched" (decide_batch) |
    #: "batched-futures" | "batched-per-request" (one backend.commit()
    #: call per item, see sequential_decide — E18's baseline)
    mode: str
    batch_size: int  # 1 for unbatched
    ops_per_sec: float
    commits: int
    aborts: int
    wal_records: int  # logical records appended (group record counts once)
    wal_ledger_entries: int  # physical ledger writes
    partitions: int = 0  # 0 = monolithic oracle

    @property
    def us_per_op(self) -> float:
        return 1e6 / self.ops_per_sec if self.ops_per_sec else 0.0

    def as_row(self) -> tuple:
        return (
            self.level,
            self.mode,
            self.batch_size,
            f"{self.ops_per_sec:,.0f}",
            f"{self.us_per_op:.2f}",
            self.wal_records,
            self.wal_ledger_entries,
        )


def make_specs(
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
) -> List[TransactionSpec]:
    """The paper's uniform complex workload, pre-drawn so request
    generation stays outside every timed region."""
    workload = complex_workload(distribution="uniform", keyspace=keyspace, seed=seed)
    return [workload.next_transaction() for _ in range(num_requests)]


def sequential_decide(backend):
    """Make ``backend`` decide every batch with
    :class:`~repro.core.engine.CommitEngine`'s default loop — one
    ``commit()`` / ``abort()`` call per item — instead of its own bulk
    pass: benchmarks E18 and E23's baseline.  Install it on a WAL-less
    backend before building the frontend, which binds the hook and
    writes the group record.  Returns ``backend``."""
    backend._decide_batch = MethodType(CommitEngine._decide_batch, backend)
    return backend


def _run_unbatched(level: str, specs, durable_acks: bool, partitions: int):
    if partitions:
        oracle = PartitionedOracle(level=level, num_partitions=partitions)
        wal = None
    else:
        # batch_bytes=1 defeats the WAL's size trigger: every append
        # becomes its own replicated ledger write (per-record durability).
        wal = BookKeeperWAL(batch_bytes=1) if durable_acks else BookKeeperWAL()
        oracle = make_oracle(level, wal=wal)
    requests = [spec.commit_request(oracle.begin()) for spec in specs]
    commit = oracle.commit
    gc.collect()
    t0 = time.perf_counter()
    for request in requests:
        commit(request)
    dt = time.perf_counter() - t0
    return dt, oracle, wal


def _run_batched(
    level: str,
    specs,
    batch_size: int,
    partitions: int,
    use_futures: bool,
    per_request: bool = False,
    begin_lease: int = 1,
):
    # The per-request side's backend gets no WAL of its own (see
    # sequential_decide): both modes then persist the identical
    # one-group-record-per-batch stream, so the measured delta is purely
    # the decision loop — per-request calls vs decide_batch.
    wal = BookKeeperWAL()
    if partitions:
        oracle = PartitionedOracle(level=level, num_partitions=partitions)
    else:
        oracle = make_oracle(level, wal=None if per_request else wal)
    if per_request:
        sequential_decide(oracle)
    frontend = OracleFrontend(
        oracle, max_batch=batch_size, wal=wal, begin_lease=begin_lease
    )
    requests = [spec.commit_request(frontend.begin()) for spec in specs]
    submit = frontend.submit_commit if use_futures else frontend.submit_commit_nowait
    gc.collect()
    t0 = time.perf_counter()
    for request in requests:
        submit(request)
    frontend.flush()
    dt = time.perf_counter() - t0
    return dt, oracle, wal


def bench_unbatched(
    level: str,
    specs: Sequence[TransactionSpec],
    repeats: int = DEFAULT_REPEATS,
    partitions: int = 0,
    durable_acks: bool = False,
) -> FrontendBenchResult:
    """One ``oracle.commit()`` per request (see module docstring for the
    ``durable_acks`` baseline distinction)."""
    best = None
    for _ in range(repeats):
        run = _run_unbatched(level, specs, durable_acks, partitions)
        if best is None or run[0] < best[0]:
            best = run
    dt, oracle, wal = best
    return FrontendBenchResult(
        level=level,
        mode="unbatched-durable" if durable_acks else "unbatched",
        batch_size=1,
        ops_per_sec=len(specs) / dt,
        commits=oracle.stats.commits,
        aborts=oracle.stats.aborts,
        wal_records=wal.record_count if wal else 0,
        wal_ledger_entries=wal.flush_count if wal else 0,
    )


def bench_batched(
    level: str,
    specs: Sequence[TransactionSpec],
    batch_size: int = 32,
    repeats: int = DEFAULT_REPEATS,
    partitions: int = 0,
    use_futures: bool = False,
    per_request: bool = False,
    begin_lease: int = 1,
) -> FrontendBenchResult:
    """The same requests through an :class:`OracleFrontend`: one critical
    section and one group-commit WAL record per ``batch_size`` requests.

    ``use_futures=False`` measures the callback-style ingest path
    (:meth:`~repro.server.OracleFrontend.submit_commit_nowait`, outcomes
    delivered per batch); ``use_futures=True`` allocates a
    :class:`~repro.server.CommitFuture` per request like the session API.
    ``per_request=True`` decides through :func:`sequential_decide`
    (one ``backend.commit()`` call per batch item) — benchmark E18's
    baseline.  ``begin_lease`` sets the frontend's begin-lease size; the
    harness begins every transaction before the timed commit region, so
    decisions are identical at any lease size (benchmark E20's equality
    leg pins this).
    """
    best = None
    for _ in range(repeats):
        run = _run_batched(
            level, specs, batch_size, partitions, use_futures, per_request,
            begin_lease,
        )
        if best is None or run[0] < best[0]:
            best = run
    dt, oracle, wal = best
    if per_request:
        mode = "batched-per-request"
    elif use_futures:
        mode = "batched-futures"
    else:
        mode = "batched"
    return FrontendBenchResult(
        level=level,
        mode=mode,
        batch_size=batch_size,
        ops_per_sec=len(specs) / dt,
        commits=oracle.stats.commits,
        aborts=oracle.stats.aborts,
        wal_records=wal.record_count,
        wal_ledger_entries=wal.flush_count,
        partitions=partitions,
    )


def paired_speedups(
    level: str = "wsi",
    batch_size: int = 32,
    pairs: int = 5,
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
    use_futures: bool = False,
    durable_acks: bool = True,
    repeats: int = 1,
) -> List[float]:
    """Back-to-back (unbatched, batched) measurement pairs.

    Returns one throughput ratio per pair; take the median for a
    noise-robust speedup estimate (a shared-machine slow phase hits both
    sides of a pair roughly equally, so ratios are far more stable than
    the absolute numbers).  Each side of a pair is the best of
    ``repeats`` runs — noise is one-sided (contention only ever slows a
    run down), so the minimum is the least-biased estimate and a single
    co-scheduled burst cannot sink one side of a pair.
    """
    specs = make_specs(num_requests, keyspace=keyspace, seed=seed)
    ratios = []
    for _ in range(pairs):
        dt_u = min(
            _run_unbatched(level, specs, durable_acks, 0)[0]
            for _ in range(repeats)
        )
        dt_b = min(
            _run_batched(level, specs, batch_size, 0, use_futures)[0]
            for _ in range(repeats)
        )
        ratios.append(dt_u / dt_b)
    return ratios


def paired_decide_speedups(
    level: str = "wsi",
    batch_size: int = 32,
    pairs: int = 5,
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
) -> List[float]:
    """Back-to-back (per-request frontend, batch-decide frontend) pairs.

    Benchmark E18's measurement: both sides batch identically at the WAL
    layer (one group record per ``batch_size`` requests), so each ratio
    isolates the decision loop itself — per-request ``commit()`` calls
    inside the critical section vs one ``decide_batch`` bulk pass.
    """
    specs = make_specs(num_requests, keyspace=keyspace, seed=seed)
    ratios = []
    for _ in range(pairs):
        dt_p, _, _ = _run_batched(level, specs, batch_size, 0, False, True)
        dt_b, _, _ = _run_batched(level, specs, batch_size, 0, False, False)
        ratios.append(dt_p / dt_b)
    return ratios


def median_speedup(ratios: Sequence[float]) -> float:
    return statistics.median(ratios)


def sweep_batch_sizes(
    level: str,
    batch_sizes: Sequence[int] = (8, 32, 128),
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
    repeats: int = DEFAULT_REPEATS,
    partitions: int = 0,
    use_futures: bool = False,
) -> List[FrontendBenchResult]:
    """Unbatched baseline plus one batched run per batch size.

    A/B runs interleave: the unbatched baseline is re-measured after the
    batched sweep and the better of the two baselines kept, so slow drift
    within the process cannot flatter either side.
    """
    specs = make_specs(num_requests, keyspace=keyspace, seed=seed)
    baseline_a = bench_unbatched(level, specs, repeats=repeats, partitions=partitions)
    batched = [
        bench_batched(
            level,
            specs,
            batch_size=b,
            repeats=repeats,
            partitions=partitions,
            use_futures=use_futures,
        )
        for b in batch_sizes
    ]
    baseline_b = bench_unbatched(level, specs, repeats=repeats, partitions=partitions)
    baseline = (
        baseline_a if baseline_a.ops_per_sec >= baseline_b.ops_per_sec else baseline_b
    )
    return [baseline] + batched


def speedup(results: Sequence[FrontendBenchResult], batch_size: int) -> float:
    """Batched-over-unbatched throughput ratio for ``batch_size``."""
    baseline = next(r for r in results if r.mode.startswith("unbatched"))
    target = next(
        r
        for r in results
        # exact modes: "batched-per-request" is a *baseline*, not a target
        if r.mode in ("batched", "batched-futures") and r.batch_size == batch_size
    )
    return target.ops_per_sec / baseline.ops_per_sec


def sweep_batch_partitions(
    level: str = "wsi",
    batch_sizes: Sequence[int] = (8, 32, 128),
    partition_counts: Sequence[int] = (0, 2, 4, 8),
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
    repeats: int = DEFAULT_REPEATS,
) -> List[FrontendBenchResult]:
    """Batch-decide throughput over the batch size × partitions grid.

    Partition count 0 is the monolithic oracle; N >= 1 routes through
    :class:`~repro.core.partitioned.PartitionedOracle`, which decides
    each flush with one ``commit()`` call per request (§6.3 footnote 6's
    scale-out).
    """
    specs = make_specs(num_requests, keyspace=keyspace, seed=seed)
    results = []
    for partitions in partition_counts:
        for batch_size in batch_sizes:
            results.append(
                bench_batched(
                    level,
                    specs,
                    batch_size=batch_size,
                    repeats=repeats,
                    partitions=partitions,
                )
            )
    return results


# ----------------------------------------------------------------------
# engine benchmarks (E23): three commit protocols behind one frontend
# ----------------------------------------------------------------------

def _run_engine(engine, specs, batch_size, per_request):
    """One engine run through the common frontend.

    WAL placement follows the E18 methodology: the batched side attaches
    the WAL to the engine, the per-request side
    (:func:`sequential_decide`) gives it to the frontend — the same
    one-group-record-per-flush stream either way — so each pair
    isolates the engine's ``_decide_batch`` bulk pass against its
    sequential ``commit()`` loop.

    Unlike :func:`_run_batched`, begins interleave with submissions
    window by window (each flush-sized window of requests begins right
    before it is submitted, so at most one open batch of transactions
    is active at a time).  The interleave is what keeps the SSI
    engine's retained-footprint window at O(batch) instead of O(total
    requests) — the shape any closed-loop deployment has.  Request
    materialization (``commit_request`` building its frozensets) is
    identical for every engine and both modes, so it happens *outside*
    the timed region: the clock covers only the serving stack —
    submit, decide, WAL.
    """
    wal = BookKeeperWAL()
    if per_request:
        backend = sequential_decide(make_engine(engine))
    else:
        backend = make_engine(engine, wal=wal)
    frontend = OracleFrontend(backend, max_batch=batch_size, wal=wal)
    begin = frontend.begin
    submit = frontend.submit_commit_nowait
    flush = frontend.flush
    perf = time.perf_counter
    gc.collect()
    dt = 0.0
    for off in range(0, len(specs), batch_size):
        requests = [
            spec.commit_request(begin())
            for spec in specs[off:off + batch_size]
        ]
        t0 = perf()
        for request in requests:
            submit(request)
        flush()
        dt += perf() - t0
    return dt, backend, wal


def bench_engine(
    engine: str,
    specs: Sequence[TransactionSpec],
    batch_size: int = 32,
    repeats: int = DEFAULT_REPEATS,
    per_request: bool = False,
) -> FrontendBenchResult:
    """Best-of-``repeats`` throughput of one commit engine — batched
    (``_decide_batch`` bulk pass) or per-request (sequential
    ``commit()`` calls inside the flush loop, E18's baseline shape)."""
    best = None
    for _ in range(repeats):
        run = _run_engine(engine, specs, batch_size, per_request)
        if best is None or run[0] < best[0]:
            best = run
    dt, backend, wal = best
    return FrontendBenchResult(
        level=backend.level,
        mode="engine-per-request" if per_request else "engine-batched",
        batch_size=batch_size,
        ops_per_sec=len(specs) / dt,
        commits=backend.stats.commits,
        aborts=backend.stats.aborts,
        wal_records=wal.record_count,
        wal_ledger_entries=wal.flush_count,
    )


def paired_engine_speedups(
    engine: str,
    specs: Sequence[TransactionSpec],
    batch_size: int = 32,
    pairs: int = 5,
    repeats: int = 2,
) -> List[float]:
    """Back-to-back (per-request, batched) pairs for one engine.

    Benchmark E23's per-engine measurement: both sides run the same
    frontend over the same pre-drawn specs with identical WAL batching;
    the ratio isolates what the engine's ``_decide_batch`` buys over
    its sequential decision loop.  Each side of a pair is the best of
    ``repeats`` runs (machine noise is one-sided — contention only ever
    slows a run down — so the minimum is the least-biased estimate of
    the true cost, the same estimator :func:`bench_engine` uses), and
    the median of the pair ratios is the reported speedup (the E17–E20
    protocol).
    """
    ratios = []
    for _ in range(pairs):
        dt_p = min(
            _run_engine(engine, specs, batch_size, True)[0]
            for _ in range(repeats)
        )
        dt_b = min(
            _run_engine(engine, specs, batch_size, False)[0]
            for _ in range(repeats)
        )
        ratios.append(dt_p / dt_b)
    return ratios


# ----------------------------------------------------------------------
# begin-path benchmarks (E20): leased begin() vs per-call begin()
# ----------------------------------------------------------------------

@dataclass
class BeginBenchResult:
    """Throughput of the begin path for one lease configuration."""

    level: str
    begin_lease: int
    num_begins: int
    begins_per_sec: float
    #: backend lease round-trips the frontend took (0 at lease 1).
    lease_refills: int
    #: timestamp-reservation WAL records the TSO wrote.
    tso_wal_writes: int
    #: commit decisions interleaved into the run (begin-heavy mix).
    commits: int = 0
    aborts: int = 0
    #: cursor position after the run minus begins+commits served: the
    #: timestamp gap a crash at end-of-run would leave (unserved lease).
    unserved_lease: int = 0

    @property
    def us_per_begin(self) -> float:
        return 1e6 / self.begins_per_sec if self.begins_per_sec else 0.0

    def as_row(self) -> tuple:
        return (
            self.level,
            self.begin_lease,
            f"{self.begins_per_sec:,.0f}",
            f"{self.us_per_begin:.3f}",
            self.lease_refills,
            self.tso_wal_writes,
            self.commits,
            self.unserved_lease,
        )


def _run_begins(
    level: str,
    num_begins: int,
    begin_lease: int,
    commit_every: int = 0,
    partitions: int = 0,
    specs: Sequence[TransactionSpec] = (),
):
    """Time a begin-heavy loop: ``num_begins`` begins, optionally one
    commit submission per ``commit_every`` begins (pre-drawn specs keep
    request generation outside any per-iteration cost asymmetry)."""
    if partitions:
        oracle = PartitionedOracle(level=level, num_partitions=partitions)
        frontend = OracleFrontend(
            oracle, max_batch=32, wal=BookKeeperWAL(), begin_lease=begin_lease
        )
    else:
        oracle = make_oracle(level, wal=BookKeeperWAL())
        frontend = OracleFrontend(oracle, max_batch=32, begin_lease=begin_lease)
    begin = frontend.begin
    submit = frontend.submit_commit_nowait
    gc.collect()
    if commit_every:
        spec_idx = 0
        t0 = time.perf_counter()
        for i in range(num_begins):
            start_ts = begin()
            if i % commit_every == 0:
                submit(specs[spec_idx].commit_request(start_ts))
                spec_idx += 1
        frontend.flush()
        dt = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        for _ in range(num_begins):
            begin()
        dt = time.perf_counter() - t0
    return dt, oracle, frontend


def bench_begins(
    level: str,
    num_begins: int,
    begin_lease: int = 1,
    repeats: int = DEFAULT_REPEATS,
    commit_every: int = 0,
    partitions: int = 0,
) -> BeginBenchResult:
    """Best-of-``repeats`` begin throughput for one lease size."""
    specs = (
        make_specs(num_begins // commit_every + 1) if commit_every else ()
    )
    best = None
    for _ in range(repeats):
        run = _run_begins(
            level, num_begins, begin_lease, commit_every, partitions, specs
        )
        if best is None or run[0] < best[0]:
            best = run
    dt, oracle, frontend = best
    return BeginBenchResult(
        level=level,
        begin_lease=begin_lease,
        num_begins=num_begins,
        begins_per_sec=num_begins / dt,
        lease_refills=frontend.stats.begin_leases,
        tso_wal_writes=oracle.timestamp_oracle.wal_write_count,
        commits=oracle.stats.commits,
        aborts=oracle.stats.aborts,
        unserved_lease=frontend.begin_lease_remaining,
    )


def paired_begin_speedups(
    level: str = "wsi",
    begin_lease: int = 32,
    pairs: int = 5,
    num_begins: int = 200_000,
    commit_every: int = 0,
) -> List[float]:
    """Back-to-back (per-call begin, leased begin) measurement pairs.

    Benchmark E20's measurement, following the E17/E18 protocol: both
    sides run the identical frontend loop over the same begin-heavy
    workload; the baseline serves every begin through
    ``backend.begin()`` (one critical-section round-trip each), the
    leased side refills a local block once per ``begin_lease`` begins.
    Median of the per-pair ratios is the noise-robust speedup.
    """
    specs = (
        make_specs(num_begins // commit_every + 1) if commit_every else ()
    )
    ratios = []
    for _ in range(pairs):
        dt_per_call, _, _ = _run_begins(
            level, num_begins, 1, commit_every, 0, specs
        )
        dt_leased, _, _ = _run_begins(
            level, num_begins, begin_lease, commit_every, 0, specs
        )
        ratios.append(dt_per_call / dt_leased)
    return ratios


def sweep_begin_lease(
    level: str = "wsi",
    leases: Sequence[int] = (1, 8, 32, 128, 1024),
    num_begins: int = 200_000,
    repeats: int = DEFAULT_REPEATS,
    commit_every: int = 0,
) -> List[BeginBenchResult]:
    """Begin throughput vs lease size (lease 1 = today's per-call path)."""
    return [
        bench_begins(
            level,
            num_begins,
            begin_lease=lease,
            repeats=repeats,
            commit_every=commit_every,
        )
        for lease in leases
    ]


def profile_frontend(
    num_requests: int = DEFAULT_NUM_REQUESTS,
    batch_size: int = 32,
    level: str = "wsi",
    top: int = 20,
) -> None:
    """cProfile one batch-decide frontend run and print the ``top``
    functions by cumulative time (the ``make profile`` target)."""
    import cProfile
    import pstats

    specs = make_specs(num_requests)
    profiler = cProfile.Profile()
    profiler.enable()
    _run_batched(level, specs, batch_size, 0, False)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def profile_collector(
    num_requests: int = 150_000,
    batch_size: int = 32,
    level: str = "wsi",
) -> None:
    """Print the cyclic collector's share of a frontend run (the third
    leg of ``make profile``).

    The run has the shape of ``benchmarks/e2e``'s driver — a
    ``ClientSession`` over the frontend, the oracle and a real WAL, and
    a caller that keeps every future — at about one repetition's size,
    because what a generation-2 pass costs is set by what the stack and
    its client retain.  cProfile cannot see this time (it is smeared
    over whoever allocates); ``gc.callbacks`` can.
    """
    footprints = [
        (spec.write_rows, spec.read_rows) for spec in make_specs(num_requests)
    ]
    wal = BookKeeperWAL()
    frontend = OracleFrontend(make_oracle(level, wal=wal), max_batch=batch_size)
    session = frontend.session()
    futures = []
    gc.collect()
    with collector_share() as report:
        for writes, reads in footprints:
            futures.append(session.commit(writes, reads, session.begin()))
        frontend.flush()
        wal.flush()
    print(report.table(
        f"collector share: {num_requests} session commits, batch {batch_size}, "
        "futures kept"
    ))


# ---------------------------------------------------------------------------
# E24: array-backed lastCommit vs dict (scan-heavy warmed batch decide)
# ---------------------------------------------------------------------------
#
# The dict backend's weakness is a *warmed* keyspace: once every checked
# row has a lastCommit entry, the ``isdisjoint`` prefilter always fails
# and each request degrades to one interpreted dict probe per checked
# row.  E24's workload makes that regime the common case — every row in
# a bounded int keyspace is installed before timing starts — and keeps
# the abort rate low (large keyspace, small write sets) so the scan
# cost, not the conflict-rescan cost, is what's measured.  Starts are
# assigned immediately before each batch decides: pre-assigning them
# for the whole run would make every batch conflict with all earlier
# installs and measure the rescan path instead.

E24_KEYSPACE = 1 << 18
E24_READ_ROWS = 256
E24_WRITE_ROWS = 2
E24_WARM_CHUNK = 512


@dataclass
class LastCommitBenchResult:
    """Throughput of one lastCommit backend configuration."""

    level: str
    kind: str  # "dict" | "array"
    batch_size: int
    ops_per_sec: float
    commits: int
    aborts: int

    @property
    def us_per_op(self) -> float:
        return 1e6 / self.ops_per_sec if self.ops_per_sec else 0.0

    def as_row(self) -> tuple:
        return (
            self.level,
            self.kind,
            self.batch_size,
            f"{self.ops_per_sec:,.0f}",
            f"{self.us_per_op:.2f}",
            self.commits,
            self.aborts,
        )


def make_scan_specs(
    num_requests: int,
    keyspace: int = E24_KEYSPACE,
    read_rows: int = E24_READ_ROWS,
    write_rows: int = E24_WRITE_ROWS,
    seed: int = 42,
) -> List[tuple]:
    """Pre-drawn scan-heavy footprints: ``(read_set, write_set)`` of
    plain int rows (wide reads, narrow writes)."""
    import random

    rng = random.Random(seed)
    population = range(keyspace)
    return [
        (
            frozenset(rng.sample(population, read_rows)),
            frozenset(rng.sample(population, write_rows)),
        )
        for _ in range(num_requests)
    ]


def _warmed_oracle(level: str, kind: str, keyspace: int):
    """A WAL-less oracle whose lastCommit holds every key in the
    keyspace (installed through the normal commit path, in chunks)."""
    oracle = make_oracle(level, lastcommit=kind)
    for base in range(0, keyspace, E24_WARM_CHUNK):
        ws = frozenset(range(base, min(base + E24_WARM_CHUNK, keyspace)))
        oracle.commit(CommitRequest(oracle.begin(), write_set=ws))
    return oracle


def _run_lastcommit(level, kind, specs, batch_size, keyspace):
    oracle = _warmed_oracle(level, kind, keyspace)
    begin = oracle.begin
    decide_batch = oracle.decide_batch
    gc.collect()
    t0 = time.perf_counter()
    for base in range(0, len(specs), batch_size):
        chunk = specs[base:base + batch_size]
        batch = [
            CommitRequest(begin(), read_set=reads, write_set=writes)
            for reads, writes in chunk
        ]
        decide_batch(batch)
    dt = time.perf_counter() - t0
    return dt, oracle


def bench_lastcommit(
    level: str,
    specs: Sequence[tuple],
    kind: str,
    batch_size: int = 128,
    keyspace: int = E24_KEYSPACE,
    repeats: int = DEFAULT_REPEATS,
) -> LastCommitBenchResult:
    """Batch-decide throughput of one backend on the warmed scan-heavy
    workload (best of ``repeats``; batch construction is timed on both
    sides identically, so ratios still isolate the backend)."""
    best = None
    for _ in range(repeats):
        run = _run_lastcommit(level, kind, specs, batch_size, keyspace)
        if best is None or run[0] < best[0]:
            best = run
    dt, oracle = best
    warm_commits = (keyspace + E24_WARM_CHUNK - 1) // E24_WARM_CHUNK
    return LastCommitBenchResult(
        level=level,
        kind=kind,
        batch_size=batch_size,
        ops_per_sec=len(specs) / dt,
        commits=oracle.stats.commits - warm_commits,
        aborts=oracle.stats.aborts,
    )


def paired_lastcommit_speedups(
    level: str = "wsi",
    batch_size: int = 128,
    pairs: int = 5,
    num_requests: int = 2_560,
    keyspace: int = E24_KEYSPACE,
    read_rows: int = E24_READ_ROWS,
    seed: int = 42,
) -> List[float]:
    """Back-to-back (dict-backed, array-backed) measurement pairs over
    the identical warmed scan-heavy workload — E24's measurement,
    following the E17/E18 paired-ratio protocol."""
    specs = make_scan_specs(
        num_requests, keyspace=keyspace, read_rows=read_rows, seed=seed
    )
    ratios = []
    for _ in range(pairs):
        dt_dict, _ = _run_lastcommit(level, "dict", specs, batch_size, keyspace)
        dt_array, _ = _run_lastcommit(
            level, "array", specs, batch_size, keyspace
        )
        ratios.append(dt_dict / dt_array)
    return ratios


def sweep_lastcommit_batches(
    level: str = "wsi",
    batch_sizes: Sequence[int] = (8, 32, 128, 512),
    num_requests: int = 2_560,
    keyspace: int = E24_KEYSPACE,
    repeats: int = 1,
) -> List[LastCommitBenchResult]:
    """Both backends at each batch size (E24's sweep table)."""
    specs = make_scan_specs(num_requests, keyspace=keyspace)
    results = []
    for batch_size in batch_sizes:
        for kind in ("dict", "array"):
            results.append(
                bench_lastcommit(
                    level, specs, kind, batch_size=batch_size,
                    keyspace=keyspace, repeats=repeats,
                )
            )
    return results


def measure_lastcommit_footprints(num_entries: int = 100_000) -> dict:
    """Measured bytes/entry of both backends holding ``num_entries``
    int-keyed entries (``sys.getsizeof`` over every reachable piece).

    The honest accounting the ROADMAP note quotes: the array backend is
    *not* smaller — it keeps the same key->id dict the dict backend
    keeps (plus the reverse table, the timestamp array and the int
    lane); what it buys is scan speed.  Key and value objects shared
    with the rest of the process (small-int cache) are counted once per
    backend so both sides are measured the same way.
    """
    import sys as _sys

    from repro.core.lastcommit import ArrayLastCommit

    entries = {key: key + num_entries for key in range(num_entries)}

    dict_store = dict(entries)
    dict_bytes = (
        _sys.getsizeof(dict_store)
        + sum(_sys.getsizeof(k) for k in dict_store)
        + sum(_sys.getsizeof(v) for v in dict_store.values())
    )

    array_store = ArrayLastCommit()
    array_store.install(range(num_entries), 1)
    for key, ts in entries.items():
        array_store[key] = ts
    interner = array_store.interner
    array_bytes = (
        _sys.getsizeof(array_store._ts)
        + _sys.getsizeof(interner._ids)
        + sum(_sys.getsizeof(k) for k in interner._ids)
        + _sys.getsizeof(interner._keys)
        + _sys.getsizeof(interner._int_table)
        + sum(_sys.getsizeof(v) for v in entries.values())
    )

    return {
        "entries": num_entries,
        "dict_bytes_per_entry": dict_bytes / num_entries,
        "array_bytes_per_entry": array_bytes / num_entries,
    }


def profile_lastcommit(
    num_requests: int = 1_280,
    batch_size: int = 128,
    keyspace: int = E24_KEYSPACE,
    read_rows: int = E24_READ_ROWS,
) -> None:
    """Per-phase attribution of the array backend's hot path (the
    ``make profile`` E24 mode): cumulative time in intern / gather /
    compare / install over an E24-shaped batch-128 run, measured by
    driving each phase directly against a warmed store."""
    from repro.core.lastcommit import ArrayLastCommit, _np

    specs = make_scan_specs(
        num_requests, keyspace=keyspace, read_rows=read_rows
    )

    # Phase 1 — intern: dense-id assignment for every footprint, against
    # a fresh interner (the cost a cold store pays exactly once per key).
    cold = ArrayLastCommit()
    intern_many = cold.interner.intern_many
    gc.collect()
    t0 = time.perf_counter()
    for reads, writes in specs:
        intern_many(reads)
        intern_many(writes)
    t_intern = time.perf_counter() - t0

    # Warmed store for the steady-state phases.
    store = ArrayLastCommit()
    store.install(range(keyspace), 1)

    if _np is None:  # pragma: no cover - numpy is in the benchmark env
        print("numpy unavailable: gather/compare phases need the int lane")
        return

    interner = store.interner
    table = interner.int_table
    ts = store._ts

    # Phase 2 — gather: row keys -> numpy array -> slot-id gather.
    gc.collect()
    t0 = time.perf_counter()
    kid_arrays = []
    for reads, _ in specs:
        keys_np = _np.fromiter(reads, _np.int64, len(reads))
        kid_arrays.append(_np.frombuffer(table, dtype=_np.int64)[keys_np])
    t_gather = time.perf_counter() - t0

    # Phase 3 — compare: timestamp gather + max > Ts.
    start_ts = keyspace + 1
    gc.collect()
    t0 = time.perf_counter()
    for kids_np in kid_arrays:
        peak = int(_np.frombuffer(ts, dtype=_np.int64)[kids_np].max())
        if peak > start_ts:  # never on the warmed workload
            raise AssertionError("unexpected conflict in profile run")
    t_compare = time.perf_counter() - t0

    # Phase 4 — install: one bulk install per request's write set.
    gc.collect()
    t0 = time.perf_counter()
    for i, (_, writes) in enumerate(specs):
        store.install(writes, start_ts + i)
    t_install = time.perf_counter() - t0

    total = t_intern + t_gather + t_compare + t_install
    print(
        f"E24 array-backend phase attribution "
        f"({num_requests} requests, batch {batch_size} shape, "
        f"{read_rows} checked rows/request, keyspace {keyspace}):"
    )
    for name, t in (
        ("intern (cold, once per key)", t_intern),
        ("gather (keys -> slot ids)", t_gather),
        ("compare (ts gather + max)", t_compare),
        ("install (write sets)", t_install),
    ):
        print(
            f"  {name:<30} {t * 1e3:8.2f} ms total"
            f"  {t / num_requests * 1e6:8.2f} us/request"
            f"  {t / total * 100:5.1f}%"
        )
    footprints = measure_lastcommit_footprints(num_entries=keyspace)
    print(
        f"  footprint @ {footprints['entries']} int entries: "
        f"dict {footprints['dict_bytes_per_entry']:.1f} B/entry, "
        f"array {footprints['array_bytes_per_entry']:.1f} B/entry"
    )


if __name__ == "__main__":  # pragma: no cover - `make profile` entry point
    import sys

    if "--profile-e24" in sys.argv:
        profile_lastcommit()
    elif "--profile-gc" in sys.argv:
        profile_collector()
    elif "--profile" in sys.argv:
        profile_frontend()
    else:
        specs = make_specs()
        for result in (
            bench_unbatched("wsi", specs),
            bench_batched("wsi", specs, per_request=True),
            bench_batched("wsi", specs),
        ):
            print(result.as_row())
