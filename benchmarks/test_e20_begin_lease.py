"""E20 — begin-timestamp leases: leased begin() vs per-call begin().

Not a paper figure: this closes the last per-transaction oracle
round-trip.  Every layer decides commits in bulk (E17/E18/E19), but the
seed ``begin()`` still entered the critical section once per transaction
for one ``tso.next()`` — the exact per-timestamp cost Appendix A
amortizes on the durability axis ("the timestamp oracle could reserve
thousands of timestamps per each write into the write-ahead log") and
Omid-lineage deployments amortize on the request axis by serving begins
from leased ranges.  ``OracleFrontend(begin_lease=n)`` leases a
contiguous, durably-reserved block of ``n`` start timestamps per refill
and serves begins locally; the block rides the existing
reservation/WAL protocol, so a crash mid-lease leaves gaps, never reuse
(the recovery pins live in ``tests/core/test_timestamps.py`` and
``tests/server/test_frontend_recovery.py``).

Acceptance: the leased frontend sustains >= 1.5x the per-call begin()
frontend at lease 32 on a begin-heavy workload (median of paired runs —
E17/E18's protocol).  A sweep shows throughput vs lease size with the
refill counts, and the decision-equality leg pins that lease size never
changes what is decided (begins precede commits in the harness, so
decisions are timestamp-gap-invariant).

Set ``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` target) for a
tiny-sized sanity run with correspondingly relaxed bars.
"""

import statistics

import pytest

from repro.bench import format_table
from repro.bench.snapshot import SMOKE, record
from repro.bench.frontend_bench import (
    bench_batched,
    bench_begins,
    make_specs,
    paired_ratios,
    run_begins,
    sweep_begin_lease,
)

NUM_BEGINS = 40_000 if SMOKE else 200_000
NUM_REQUESTS = 5_000 if SMOKE else 30_000
PAIRS = 2 if SMOKE else 5
REPEATS = 1 if SMOKE else 2
#: the smoke bar is ratcheted to ~25% below the measured smoke ratio
#: (BENCH_smoke.json), so hot-path regressions fail fast at tiny sizes.
SPEEDUP_BAR = 1.9 if SMOKE else 1.5
LEASE_SIZES = (1, 8, 32, 128, 1024)
BATCH_LEASES = (1, 32, 128)


@pytest.mark.figure("e20")
def test_e20_begin_lease_speedup(benchmark, print_header):
    ratios = benchmark.pedantic(
        lambda: paired_ratios(
            lambda: run_begins("wsi", NUM_BEGINS, begin_lease=1),
            lambda: run_begins("wsi", NUM_BEGINS, begin_lease=32),
            pairs=PAIRS,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    median = statistics.median(ratios)
    print_header("E20 — leased begin vs per-call begin (wall clock)")

    rows = [
        bench_begins(
            "wsi", NUM_BEGINS, begin_lease=lease, repeats=REPEATS
        ).as_row()
        for lease in LEASE_SIZES
    ]
    print(
        format_table(
            ["level", "lease", "begins/s", "us/begin", "refills",
             "ts-reserve recs", "commits", "unserved"],
            rows,
            title=f"begin-only workload, {NUM_BEGINS} begins",
        )
    )
    print()
    print("paired WSI speedups at lease 32 (leased vs per-call begin):")
    print("  " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(
        f"  median: {median:.2f}x "
        f"(acceptance bar: {SPEEDUP_BAR}x)"
    )

    # Acceptance: leased begin >= 1.5x the per-call begin() frontend at
    # lease 32 on a begin-heavy workload, median of paired runs.
    assert median >= SPEEDUP_BAR
    record("e20", median_speedup=median, bar=SPEEDUP_BAR)


@pytest.mark.figure("e20")
def test_e20_begin_heavy_mixed_workload(print_header):
    """The same lever with commit traffic interleaved (one write commit
    per 8 begins — a begin-dominated session mix): the lease still pays;
    the bar is parity-tolerant because the commit path dilutes it."""
    print_header("E20b — begin-heavy mix (1 commit per 8 begins)")
    results = sweep_begin_lease(
        "wsi",
        leases=(1, 32),
        num_begins=NUM_BEGINS // 2,
        repeats=REPEATS,
        commit_every=8,
    )
    print(
        format_table(
            ["level", "lease", "begins/s", "us/begin", "refills",
             "ts-reserve recs", "commits", "unserved"],
            [r.as_row() for r in results],
        )
    )
    per_call, leased = results
    ratio = leased.begins_per_sec / per_call.begins_per_sec
    print(f"  mixed-workload leased speedup: {ratio:.2f}x")
    # No decision-equality assert here: with begins interleaving flushes,
    # a lease-served begin carries a slightly older snapshot (its ts was
    # allocated at refill time), which under contention can add aborts —
    # the lease-sizing trade-off the server docs spell out.  E20c pins
    # equality where it genuinely holds (begins precede commits).
    assert leased.commits + leased.aborts == per_call.commits + per_call.aborts
    assert ratio >= 0.9  # parity bar (noise-tolerant); typical win ~1.3x


@pytest.mark.figure("e20")
def test_e20_decisions_identical_across_lease_sizes(print_header):
    """Zero-tolerance leg: lease size must never change what is decided.
    The harness begins every transaction before the timed commit region,
    so the only lease effect is timestamp *gaps* — and decisions are
    gap-invariant (the hypothesis suite pins full-state equivalence;
    this pins it at benchmark scale, monolithic and partitioned)."""
    print_header("E20c — decision equality across begin-lease sizes")
    specs = make_specs(NUM_REQUESTS)
    for level in ("si", "wsi"):
        baseline = bench_batched(
            level, specs, batch_size=32, repeats=1, begin_lease=1
        )
        for lease in BATCH_LEASES[1:]:
            leased = bench_batched(
                level, specs, batch_size=32, repeats=1, begin_lease=lease
            )
            assert leased.commits == baseline.commits
            assert leased.aborts == baseline.aborts
        print(
            f"  {level}: {baseline.commits} commits / "
            f"{baseline.aborts} aborts at every lease size"
        )
    partitioned = [
        bench_batched(
            "wsi", specs, batch_size=32, repeats=1, partitions=4,
            begin_lease=lease,
        )
        for lease in BATCH_LEASES
    ]
    assert len({(r.commits, r.aborts) for r in partitioned}) == 1
    print(
        f"  partitioned(4): {partitioned[0].commits} commits / "
        f"{partitioned[0].aborts} aborts at every lease size"
    )


@pytest.mark.figure("e20")
def test_e20_crash_mid_lease_never_reissues(print_header):
    """Recovery leg at benchmark scale: crash a leased frontend mid-lease
    and recover from its WAL — no start or commit timestamp is ever
    reissued, because the lease was durably reserved before serving."""
    from repro.core.status_oracle import make_oracle
    from repro.server import OracleFrontend
    from repro.wal.bookkeeper import BookKeeperWAL

    print_header("E20d — crash mid-lease: no timestamp reuse")
    wal = BookKeeperWAL()
    oracle = make_oracle("wsi", wal=wal)
    frontend = OracleFrontend(oracle, max_batch=32, begin_lease=32)
    specs = make_specs(2_000 if SMOKE else 10_000)
    issued = set()
    for i, spec in enumerate(specs):
        start_ts = frontend.begin()
        issued.add(start_ts)
        if i % 3 == 0:
            frontend.submit_commit_nowait(spec.commit_request(start_ts))
    frontend.flush()
    issued.update(oracle.commit_table._commits.values())
    assert frontend.begin_lease_remaining > 0  # crash lands mid-lease
    wal.flush()  # the durable prefix; the frontend host now "dies"

    fresh = make_oracle("wsi")
    fresh.recover_from(wal)
    reissued = [ts for ts in (fresh.begin() for _ in range(1_000)) if ts in issued]
    assert reissued == []
    print(
        f"  {len(issued)} timestamps issued pre-crash; 1000 post-recovery "
        "begins, zero collisions"
    )
