"""Wall-clock microbenches of the serving stack's amortizations (E17–E24).

Unlike :mod:`repro.sim` (which measures *simulated* time), this module
measures real CPU throughput.  Each ``run_*`` function is one *timed
body*: it builds a fresh stack, prepares its inputs outside the clock
(start timestamps and commit requests are pre-drawn), runs
``gc.collect()``, times only the path under test and returns
``(seconds, *state)``:

* :func:`run_unbatched` — one ``oracle.commit()`` per request;
* :func:`run_batched` — the same requests through an
  :class:`~repro.server.OracleFrontend`: one critical section and one
  group-commit WAL record per batch;
* :func:`run_engine` — one commit engine behind the frontend;
* :func:`run_begins` — a begin-heavy loop at one begin-lease size;
* :func:`run_lastcommit` — warmed scan-heavy batch decide over one
  lastCommit backend.

Every speedup bar is measured by one protocol, :func:`paired_ratios`:
per pair, the baseline body's best of ``repeats`` runs, then the
candidate's, and the ratio baseline/candidate; the bar is on the median
of the pairs.  A slow machine phase hits both sides of a pair roughly
equally, so the ratios are far more stable than the absolute numbers;
and noise is one-sided (contention only ever slows a run down), so the
minimum over repeats (:func:`best_of`) is the least-biased estimate of a
side's cost.  The ``bench_*`` functions report one configuration's
best-of throughput as a table row.

E17 distinguishes two unbatched baselines: ``durable_acks=True`` is the
truly unbatched oracle — one WAL append *and one replicated ledger
write* per decision, no group commit at any layer, the configuration
E17's bar is measured against; ``durable_acks=False`` is the seed
default, whose WAL's Appendix-A size trigger batches records into 1 KB
ledger entries underneath.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from operator import itemgetter
from types import MethodType
from typing import Callable, List, Sequence

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


def best_of(run: Callable[[], tuple], repeats: int) -> tuple:
    """The fastest of ``repeats`` calls to the timed body ``run`` (the
    first, on a tie), whose result leads with its elapsed seconds."""
    return min((run() for _ in range(repeats)), key=itemgetter(0))


def paired_ratios(
    baseline: Callable[[], tuple],
    candidate: Callable[[], tuple],
    pairs: int,
    repeats: int,
) -> List[float]:
    """``pairs`` back-to-back measurements of two timed bodies: per pair,
    the baseline's :func:`best_of` ``repeats`` runs, then the
    candidate's, and their time ratio baseline/candidate (above 1 when
    the candidate is faster).  The median of the ratios is the
    speedup."""
    return [
        best_of(baseline, repeats)[0] / best_of(candidate, repeats)[0]
        for _ in range(pairs)
    ]


def run_unbatched(
    level: str, specs, durable_acks: bool = False, partitions: int = 0
):
    """Timed body: one ``oracle.commit()`` per request.
    Returns ``(seconds, oracle, wal)``."""
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


def run_batched(
    level: str,
    specs,
    batch_size: int = 32,
    partitions: int = 0,
    use_futures: bool = False,
    per_request: bool = False,
    begin_lease: int = 1,
):
    """Timed body: every request through an :class:`OracleFrontend`,
    ending with its last flush.  Returns ``(seconds, oracle, wal)``.

    The per-request side's backend gets no WAL of its own (see
    :func:`sequential_decide`): both modes then persist the identical
    one-group-record-per-batch stream, so the measured delta is purely
    the decision loop — per-request calls vs ``decide_batch``."""
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
    dt, oracle, wal = best_of(
        lambda: run_unbatched(level, specs, durable_acks, partitions), repeats
    )
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
    dt, oracle, wal = best_of(
        lambda: run_batched(
            level, specs, batch_size, partitions, use_futures, per_request,
            begin_lease,
        ),
        repeats,
    )
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


def sweep_batch_sizes(
    level: str,
    batch_sizes: Sequence[int] = (8, 32, 128),
    num_requests: int = DEFAULT_NUM_REQUESTS,
    keyspace: int = DEFAULT_KEYSPACE,
    seed: int = 42,
    repeats: int = DEFAULT_REPEATS,
) -> List[FrontendBenchResult]:
    """Unbatched baseline plus one batched run per batch size.

    A/B runs interleave in rounds: each of ``repeats`` rounds measures
    the unbatched baseline and then every batch size once, the baseline
    is measured once more after the last round, and every configuration
    reports its best run.  A slow machine phase then has to hit every
    round to sink one configuration, and slow drift within the process
    cannot flatter either side.
    """
    specs = make_specs(num_requests, keyspace=keyspace, seed=seed)
    best = {}

    def keep(key, result):
        if key not in best or result.ops_per_sec > best[key].ops_per_sec:
            best[key] = result

    def baseline_run():
        keep(None, bench_unbatched(level, specs, repeats=1))

    for _ in range(repeats):
        baseline_run()
        for b in batch_sizes:
            keep(b, bench_batched(level, specs, batch_size=b, repeats=1))
    baseline_run()
    return [best[None]] + [best[b] for b in batch_sizes]


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

def run_engine(
    engine: str, specs, batch_size: int = 32, per_request: bool = False
):
    """Timed body: one engine run through the common frontend.
    Returns ``(seconds, backend, wal)``.

    WAL placement follows the E18 methodology: the batched side attaches
    the WAL to the engine, the per-request side
    (:func:`sequential_decide`) gives it to the frontend — the same
    one-group-record-per-flush stream either way — so each pair
    isolates the engine's ``_decide_batch`` bulk pass against its
    sequential ``commit()`` loop.

    Unlike :func:`run_batched`, begins interleave with submissions
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
    dt, backend, wal = best_of(
        lambda: run_engine(engine, specs, batch_size, per_request), repeats
    )
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


def run_begins(
    level: str,
    num_begins: int,
    begin_lease: int = 1,
    commit_every: int = 0,
    specs: Sequence[TransactionSpec] = (),
):
    """Timed body: a begin-heavy loop of ``num_begins`` begins,
    optionally one commit submission per ``commit_every`` begins
    (pre-drawn specs keep request generation outside any per-iteration
    cost asymmetry).  Returns ``(seconds, oracle, frontend)``."""
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
) -> BeginBenchResult:
    """Best-of-``repeats`` begin throughput for one lease size."""
    specs = (
        make_specs(num_begins // commit_every + 1) if commit_every else ()
    )
    dt, oracle, frontend = best_of(
        lambda: run_begins(level, num_begins, begin_lease, commit_every, specs),
        repeats,
    )
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
    run_batched(level, specs, batch_size)
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


def run_lastcommit(
    level: str, kind: str, specs, batch_size: int = 128,
    keyspace: int = E24_KEYSPACE,
):
    """Timed body: batch-decide ``specs`` on a warmed oracle over one
    lastCommit backend (``kind``).  Returns ``(seconds, oracle)``."""
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
    dt, oracle = best_of(
        lambda: run_lastcommit(level, kind, specs, batch_size, keyspace),
        repeats,
    )
    warm_commits = (keyspace + E24_WARM_CHUNK - 1) // E24_WARM_CHUNK
    return LastCommitBenchResult(
        level=level,
        kind=kind,
        batch_size=batch_size,
        ops_per_sec=len(specs) / dt,
        commits=oracle.stats.commits - warm_commits,
        aborts=oracle.stats.aborts,
    )


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
    *not* smaller — it keeps the same dict the dict backend keeps, plus
    the timestamp lane its gathers read; what it buys is scan speed.
    Key and value objects shared with the rest of the process
    (small-int cache) are counted once per backend so both sides are
    measured the same way.
    """
    import sys as _sys

    from repro.core.lastcommit import ArrayLastCommit

    entries = {key: key + num_entries for key in range(num_entries)}

    def dict_bytes(store: dict) -> int:
        return (
            _sys.getsizeof(store)
            + sum(_sys.getsizeof(k) for k in store)
            + sum(_sys.getsizeof(v) for v in store.values())
        )

    array_store = ArrayLastCommit()
    array_store.install(range(num_entries), 1)  # wide: builds the lane
    for key, ts in entries.items():
        array_store[key] = ts
    array_bytes = dict_bytes(array_store._d) + _sys.getsizeof(
        array_store._lane
    )

    return {
        "entries": num_entries,
        "dict_bytes_per_entry": dict_bytes(dict(entries)) / num_entries,
        "array_bytes_per_entry": array_bytes / num_entries,
    }


def profile_lastcommit(
    num_requests: int = 1_280,
    batch_size: int = 128,
    keyspace: int = E24_KEYSPACE,
    read_rows: int = E24_READ_ROWS,
) -> None:
    """Per-phase attribution of the array backend's hot path (the
    ``make profile`` E24 mode): cumulative time in keys / gather /
    install over an E24-shaped batch-128 run, measured by driving each
    phase directly against a warmed store."""
    from repro.core.lastcommit import ArrayLastCommit, _np

    specs = make_scan_specs(
        num_requests, keyspace=keyspace, read_rows=read_rows
    )

    if _np is None:  # pragma: no cover - numpy is in the benchmark env
        print("numpy unavailable: the keys/gather phases need the lane")
        return

    # Warmed store: one wide install builds the lane.
    store = ArrayLastCommit()
    store.install(range(keyspace), 1)
    lane = store._lane

    # Phase 1 — keys: row keys -> numpy index array.
    gc.collect()
    t0 = time.perf_counter()
    key_arrays = [
        _np.fromiter(reads, _np.int64, len(reads)) for reads, _ in specs
    ]
    t_keys = time.perf_counter() - t0

    # Phase 2 — gather: lane[keys] + max > Ts.
    start_ts = keyspace + 1
    gc.collect()
    t0 = time.perf_counter()
    for keys_np in key_arrays:
        peak = int(_np.frombuffer(lane, dtype=_np.int64)[keys_np].max())
        if peak > start_ts:  # never on the warmed workload
            raise AssertionError("unexpected conflict in profile run")
    t_gather = time.perf_counter() - t0

    # Phase 3 — install: one bulk install per request's write set.
    gc.collect()
    t0 = time.perf_counter()
    for i, (_, writes) in enumerate(specs):
        store.install(writes, start_ts + i)
    t_install = time.perf_counter() - t0

    total = t_keys + t_gather + t_install
    print(
        f"E24 array-backend phase attribution "
        f"({num_requests} requests, batch {batch_size} shape, "
        f"{read_rows} checked rows/request, keyspace {keyspace}):"
    )
    for name, t in (
        ("keys (rows -> index array)", t_keys),
        ("gather (lane[keys] + max)", t_gather),
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
