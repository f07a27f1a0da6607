"""E18 — the batch-decide engine: ``decide_batch`` vs per-request flush.

Not a paper figure: this isolates the cost §6.3 says must stay "in the
order of microseconds" — the critical section itself.  Benchmark E17
showed that *entering* the critical section and *persisting* decisions
amortize over a batch; E18 shows that the work **inside** the critical
section amortizes too.  Both sides of every pair run the same frontend
with the same one-group-WAL-record-per-batch durability; the only
difference is the decision loop:

* ``batched-per-request`` — one ``backend.commit()`` call per batch
  item (per-request wrapper, policy hooks, per-request stats bumps,
  result allocation), installed as the backend's batch-decide hook by
  :func:`~repro.bench.frontend_bench.sequential_decide`;
* ``batched`` — :meth:`StatusOracle.decide_batch`: one bulk pass with
  locally-bound lookups, a C-speed ``isdisjoint`` sweep for the
  no-conflict common case, dict-bulk write-set installs, and stats
  counted once per batch.

Acceptance: the batch-decide frontend sustains >= 1.5x the per-request
frontend's throughput at batch size 32 (WSI, uniform complex workload,
median of paired runs — E17's protocol).

A second table sweeps batch size x partition count through
``PartitionedOracle.decide_batch`` (one ``commit()`` call per request;
on the uniform workload most multi-row transactions are cross-partition,
because hash sharding scatters rows) and pins that partitioning never
changes what is decided.

Set ``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` target) for a
tiny-sized sanity run with correspondingly relaxed bars.
"""

import statistics

import pytest

from repro.bench import format_table
from repro.bench.snapshot import SMOKE, record
from repro.bench.frontend_bench import (
    bench_batched,
    make_specs,
    paired_ratios,
    run_batched,
    sweep_batch_partitions,
)

NUM_REQUESTS = 5_000 if SMOKE else 30_000
PAIRS = 2 if SMOKE else 5
REPEATS = 1 if SMOKE else 2
#: the smoke bar is ratcheted to ~25% below the measured smoke ratio
#: (BENCH_smoke.json), so hot-path regressions fail fast at tiny sizes.
SPEEDUP_BAR = 1.5 if SMOKE else 1.5
BATCH_SIZES = (8, 32, 128)
PARTITION_COUNTS = (0, 2, 4) if SMOKE else (0, 2, 4, 8)


@pytest.mark.figure("e18")
def test_e18_batch_decide_speedup(benchmark, print_header):
    specs = make_specs(NUM_REQUESTS)
    ratios = benchmark.pedantic(
        lambda: paired_ratios(
            lambda: run_batched("wsi", specs, batch_size=32, per_request=True),
            lambda: run_batched("wsi", specs, batch_size=32),
            pairs=PAIRS,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    median = statistics.median(ratios)
    print_header("E18 — decide_batch vs per-request frontend (wall clock)")

    rows = []
    for level in ("si", "wsi"):
        for batch_size in BATCH_SIZES:
            rows.append(
                bench_batched(
                    level,
                    specs,
                    batch_size=batch_size,
                    per_request=True,
                    repeats=REPEATS,
                ).as_row()
            )
            rows.append(
                bench_batched(
                    level, specs, batch_size=batch_size, repeats=REPEATS
                ).as_row()
            )
    print(
        format_table(
            ["level", "mode", "batch", "ops/s", "us/op", "wal recs", "ledger writes"],
            rows,
            title=f"uniform complex workload, 2M rows, {NUM_REQUESTS} commit requests",
        )
    )
    print()
    print("paired WSI speedups at batch 32 (decide_batch vs per-request):")
    print("  " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(
        f"  median: {median:.2f}x "
        f"(acceptance bar: {SPEEDUP_BAR}x)"
    )

    # Acceptance: batch-decide >= 1.5x the per-request frontend at batch
    # 32 (WSI, uniform workload), median of paired runs.
    assert median >= SPEEDUP_BAR
    record("e18", median_speedup=median, bar=SPEEDUP_BAR)


@pytest.mark.figure("e18")
def test_e18_decisions_identical_across_modes(print_header):
    """Zero-tolerance leg: both flush modes must produce byte-identical
    decision counts at every batch size (the hypothesis suite pins the
    full state; this pins it at benchmark scale)."""
    print_header("E18b — decision equality, per-request vs decide_batch")
    specs = make_specs(NUM_REQUESTS)
    for level in ("si", "wsi"):
        per_request = bench_batched(
            level, specs, batch_size=32, per_request=True, repeats=1
        )
        for batch_size in BATCH_SIZES:
            decided = bench_batched(
                level, specs, batch_size=batch_size, repeats=1
            )
            assert decided.commits == per_request.commits
            assert decided.aborts == per_request.aborts
        print(
            f"  {level}: {per_request.commits} commits / "
            f"{per_request.aborts} aborts in every mode"
        )


@pytest.mark.figure("e18")
def test_e18_batch_partition_sweep(print_header):
    print_header("E18c — batch size x partitions (decide_batch frontend)")
    results = sweep_batch_partitions(
        "wsi",
        batch_sizes=BATCH_SIZES,
        partition_counts=PARTITION_COUNTS,
        num_requests=NUM_REQUESTS,
        repeats=REPEATS,
    )
    print(
        format_table(
            ["parts", "batch", "ops/s", "us/op", "commits", "aborts"],
            [
                (
                    r.partitions,
                    r.batch_size,
                    f"{r.ops_per_sec:,.0f}",
                    f"{r.us_per_op:.2f}",
                    r.commits,
                    r.aborts,
                )
                for r in results
            ],
            title="uniform complex workload (hash sharding: mostly cross-partition)",
        )
    )
    # Partitioning must never change what is decided.
    baseline = results[0]
    for r in results[1:]:
        assert r.commits == baseline.commits
        assert r.aborts == baseline.aborts
