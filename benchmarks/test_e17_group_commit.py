"""E17 — group-commit frontend: batched vs. unbatched oracle throughput.

Not a paper figure: this measures the repo's own `repro.server` frontend
against the seed's per-request oracle, wall-clock (real CPU), on the
uniform complex workload.  §6.3/Appendix A ground the expectation — the
status oracle only reaches its reported throughput because the critical
section and the BookKeeper write are amortized over many requests.

Baselines:

* ``unbatched-durable`` — one WAL append *and* one replicated ledger
  write per decision (no group commit at any layer).  The acceptance
  target: the batched frontend must beat this ≥ 2.5x at batch size 32
  (measured ~3x on a quiet machine).
* ``unbatched`` — the seed default, whose WAL already batches records
  into 1 KB ledger entries underneath (Appendix A at the WAL layer only).

The speedup assertion uses the median of paired (baseline, batched)
measurements — the absolute numbers wobble with machine noise, the
paired ratios do not.
"""

import statistics

import pytest

from repro.bench import format_table
from repro.bench.snapshot import SMOKE, record
from repro.bench.frontend_bench import (
    bench_batched,
    bench_unbatched,
    make_specs,
    paired_ratios,
    run_batched,
    run_unbatched,
    speedup,
    sweep_batch_sizes,
)

BATCH_SIZES = (8, 32, 128)

NUM_REQUESTS = 5_000 if SMOKE else 30_000
PAIRS = 2 if SMOKE else 5
#: best-of-REPEATS per pair side (see ``paired_ratios``): on a shared
#: box a co-scheduled burst can sink one side of a pair and drag the
#: median under the bar even though the true ratio clears it.
REPEATS = 1 if SMOKE else 3
#: The measured median sits at ~3x on a quiet machine, but unlike the
#: E18-E21 bars this one used to *equal* the point estimate, so slow
#: machine phases failed it on unchanged code (the committed baseline
#: itself straddled 3.0x).  2.5x keeps the order-of-magnitude claim
#: with the same noise margin the sibling benchmarks carry.
SPEEDUP_BAR = 2.5 if SMOKE else 2.5


@pytest.mark.figure("e17")
def test_e17_group_commit_speedup(benchmark, print_header):
    specs = make_specs(NUM_REQUESTS)
    ratios = benchmark.pedantic(
        lambda: paired_ratios(
            lambda: run_unbatched("wsi", specs, durable_acks=True),
            lambda: run_batched("wsi", specs, batch_size=32),
            pairs=PAIRS,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    median = statistics.median(ratios)
    print_header("E17 — group-commit frontend vs unbatched oracle (wall clock)")

    rows = []
    for level in ("si", "wsi"):
        rows.append(
            bench_unbatched(level, specs, durable_acks=True, repeats=2).as_row()
        )
        rows.append(bench_unbatched(level, specs, repeats=2).as_row())
        for batch_size in BATCH_SIZES:
            rows.append(
                bench_batched(level, specs, batch_size=batch_size, repeats=2).as_row()
            )
        rows.append(
            bench_batched(
                level, specs, batch_size=32, use_futures=True, repeats=2
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
    print("paired WSI speedups at batch 32 (vs per-record durability):")
    print("  " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(
        f"  median: {median:.2f}x "
        f"(acceptance bar: {SPEEDUP_BAR}x)"
    )

    # Acceptance: batched frontend >= 2.5x the unbatched oracle at batch 32
    # (WSI, uniform workload), median of paired runs.
    assert median >= SPEEDUP_BAR
    record("e17", median_speedup=median, bar=SPEEDUP_BAR)


@pytest.mark.figure("e17")
def test_e17_batch_size_sweep_monotone(print_header):
    print_header("E17b — batch-size sweep (WSI + SI, seed-default WAL baseline)")
    for level in ("si", "wsi"):
        results = sweep_batch_sizes(level, batch_sizes=BATCH_SIZES, repeats=3)
        print(
            format_table(
                ["level", "mode", "batch", "ops/s", "us/op", "wal recs", "entries"],
                [r.as_row() for r in results],
            )
        )
        # Even against the WAL-internally-batching baseline the frontend
        # must win clearly at batch 32, and decisions must be identical.
        assert speedup(results, 32) >= 1.3
        baseline = results[0]
        for batched in results[1:]:
            assert batched.commits == baseline.commits
            assert batched.aborts == baseline.aborts
        # group commit: one logical WAL record per batch
        b32 = next(r for r in results if r.batch_size == 32)
        assert b32.wal_records <= baseline.wal_records / 16


@pytest.mark.figure("e17")
def test_e17_partitioned_frontend(print_header):
    """The frontend composes with the partitioned oracle (and gives it a
    WAL it otherwise lacks); throughput is informational here — the
    speedup claim is for the plain oracles."""
    print_header("E17c — frontend over the partitioned oracle (4 partitions)")
    specs = make_specs(num_requests=10_000)
    results = [bench_unbatched("wsi", specs, partitions=4)] + [
        bench_batched("wsi", specs, batch_size=b, partitions=4)
        for b in BATCH_SIZES
    ]
    print(
        format_table(
            ["level", "mode", "batch", "ops/s", "us/op", "wal recs", "entries"],
            [r.as_row() for r in results],
        )
    )
    baseline = results[0]
    for batched in results[1:]:
        assert batched.commits == baseline.commits
        assert batched.aborts == baseline.aborts
        # routing through the frontend costs little even with no fast path
        assert batched.ops_per_sec >= 0.5 * baseline.ops_per_sec
        assert batched.wal_records > 0  # the partitioned oracle gained a WAL
