"""E19 — the cross-partition batch protocol vs the pre-protocol engine.

Not a paper figure: this closes the gap E18 left open.  E18 showed the
batch-decide engine amortizing the critical section for monolithic and
partition-aligned traffic, but before the cross-partition batch
protocol every **cross-partition** request broke the group-commit run
and fell back to a per-request two-phase decision — so hash-sharded
multi-row workloads (the default shape under §6.3 footnote 6's row-hash
partitioning) lost the entire amortization win.  E19 measures what the
cross-partition batch protocol buys them.

Both sides of every pair run the *same* frontend over the same
partitioned oracle with the same one-group-WAL-record-per-batch
durability; the only difference is the batch-decide hook:

* ``cross-per-request`` — the pre-protocol engine, kept as a fixture
  in ``benchmarks/e19_pre_protocol.py`` and installed on the oracle
  instance: runs of single-partition items decide in bulk, but each
  cross-partition item breaks the run and pays a share-request
  construction plus a ``_check`` visit per involved partition, one
  ``tso.next()`` and one commit-table call — per request;
* ``cross-batched`` — the cross-partition batch protocol: the whole
  flush decides with one bulk validation round and one bulk install
  round per involved partition (see ``repro/core/partitioned.py``).

Acceptance: on a cross-partition-heavy workload (every multi-row
footprint spans partitions — >= 50 % multi-partition decisions), the
batched protocol sustains >= 1.5x the pre-protocol engine at batch size
32 (WSI, median of paired runs — E17/E18's protocol).

The table also lists the plain per-request loop
(:func:`~repro.bench.frontend_bench.sequential_decide`, one ``commit()``
per item — E18's baseline).  Against it the protocol is close to parity
in wall clock in-process; what it buys there is *rounds* (one per
involved partition per flush instead of a visit per involved partition
per cross request — one RPC each in a distributed deployment), counted
by E19d.

Set ``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` target) for a
tiny-sized sanity run with correspondingly relaxed bars.
"""

import os

import pytest

from repro.bench import format_table
from repro.bench.snapshot import record
from repro.bench.frontend_bench import (
    bench_cross_partition,
    make_cross_heavy_requests,
    make_specs,
    median_speedup,
    paired_cross_speedups,
    sequential_decide,
)

# A sibling module: pytest puts this (package-less) directory on sys.path.
from e19_pre_protocol import install_pre_protocol_engine

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
NUM_REQUESTS = 4_000 if SMOKE else 24_000
PAIRS = 2 if SMOKE else 5
REPEATS = 1 if SMOKE else 2
#: the smoke bar is ratcheted to ~25% below the measured smoke ratio
#: (BENCH_smoke.json), so hot-path regressions fail fast at tiny sizes.
SPEEDUP_BAR = 1.3 if SMOKE else 1.5
PARTITIONS = 4
#: cross_every=1 forces every multi-row footprint cross-partition (the
#: all-cross workload); 2 mixes in an equal share of aligned traffic.
CROSS_EVERY_SWEEP = (1, 2)


@pytest.mark.figure("e19")
def test_e19_cross_partition_batch_speedup(benchmark, print_header):
    ratios = benchmark.pedantic(
        lambda: paired_cross_speedups(
            level="wsi",
            batch_size=32,
            pairs=PAIRS,
            num_requests=NUM_REQUESTS,
            partitions=PARTITIONS,
            cross_every=1,
            baseline=install_pre_protocol_engine,
        ),
        rounds=1,
        iterations=1,
    )
    print_header(
        "E19 — cross-partition batch protocol vs the pre-protocol engine "
        "(wall clock)"
    )

    specs = make_specs(NUM_REQUESTS)
    rows = []
    modes = (
        ("pre-protocol engine", True, install_pre_protocol_engine),
        ("sequential commit()", True, sequential_decide),
        ("batch protocol", False, sequential_decide),
    )
    for cross_every in CROSS_EVERY_SWEEP:
        for label, per_request, baseline in modes:
            r = bench_cross_partition(
                "wsi",
                specs,
                batch_size=32,
                partitions=PARTITIONS,
                repeats=REPEATS,
                per_request=per_request,
                cross_every=cross_every,
                baseline=baseline,
            )
            rows.append(
                (
                    cross_every,
                    f"{100 * r.cross_fraction:.0f}%",
                    label,
                    f"{r.ops_per_sec:,.0f}",
                    f"{r.us_per_op:.2f}",
                    r.commits,
                    r.aborts,
                )
            )
    print(
        format_table(
            ["cross_every", "cross frac", "mode", "ops/s", "us/op",
             "commits", "aborts"],
            rows,
            title=(
                f"uniform complex workload, {PARTITIONS} partitions, "
                f"{NUM_REQUESTS} commit requests, batch 32"
            ),
        )
    )
    print()
    print("paired WSI speedups at batch 32, all-cross workload "
          "(batch protocol vs the pre-protocol engine):")
    print("  " + "  ".join(f"{r:.2f}x" for r in ratios))
    print(
        f"  median: {median_speedup(ratios):.2f}x "
        f"(acceptance bar: {SPEEDUP_BAR}x)"
    )

    assert median_speedup(ratios) >= SPEEDUP_BAR
    record("e19", median_speedup=median_speedup(ratios), bar=SPEEDUP_BAR)


@pytest.mark.figure("e19")
def test_e19_decisions_identical_across_modes(print_header):
    """Zero-tolerance leg: the batch protocol, the pre-protocol engine
    and the sequential ``commit()`` loop must produce identical decision
    and cross-fraction counts on every workload mix.  Against the
    sequential loop the rows-examined count is exact too: both scan each
    share in footprint order and stop at the same conflicting row (the
    pre-protocol engine scans a share in frozenset order).  The
    hypothesis suite pins full state; this pins it at benchmark
    scale."""
    print_header("E19b — decision equality across the three decision loops")
    specs = make_specs(NUM_REQUESTS)
    for cross_every in CROSS_EVERY_SWEEP:
        runs = {
            name: bench_cross_partition(
                "wsi", specs, batch_size=32, partitions=PARTITIONS,
                repeats=1, per_request=per_request, cross_every=cross_every,
                baseline=baseline,
            )
            for name, per_request, baseline in (
                ("pre-protocol", True, install_pre_protocol_engine),
                ("sequential", True, sequential_decide),
                ("batched", False, sequential_decide),
            )
        }
        decided = runs["batched"]
        for other in (runs["pre-protocol"], runs["sequential"]):
            assert decided.commits == other.commits
            assert decided.aborts == other.aborts
            assert decided.cross_fraction == other.cross_fraction
        assert decided.rows_checked == runs["sequential"].rows_checked
        print(
            f"  cross_every={cross_every}: {decided.commits} commits / "
            f"{decided.aborts} aborts / "
            f"{100 * decided.cross_fraction:.0f}% cross in all three"
        )


@pytest.mark.figure("e19")
def test_e19_workload_is_cross_heavy(print_header):
    """The acceptance workload really is cross-partition-heavy: at
    ``cross_every=1`` at least half of all decisions (commits and
    aborts alike) span partitions."""
    print_header("E19c — workload shape: cross-partition decision fraction")
    specs = make_specs(NUM_REQUESTS)
    result = bench_cross_partition(
        "wsi", specs, batch_size=32, partitions=PARTITIONS,
        repeats=1, per_request=False, cross_every=1,
    )
    print(f"  cross-partition decision fraction: "
          f"{100 * result.cross_fraction:.0f}%")
    assert result.cross_fraction >= 0.5


@pytest.mark.figure("e19")
def test_e19_protocol_round_amortization(print_header):
    """The protocol's raison d'etre, counted: per-partition bulk rounds
    per flush stay bounded by the partition count, instead of growing
    with the number of cross requests (one visit sequence each, as the
    per-request path pays)."""
    from repro.core.partitioned import PartitionedOracle
    from repro.server.frontend import OracleFrontend
    from repro.wal.bookkeeper import BookKeeperWAL

    print_header("E19d — per-partition protocol rounds per flush")
    specs = make_specs(NUM_REQUESTS // 4)
    oracle = PartitionedOracle(level="wsi", num_partitions=PARTITIONS)
    frontend = OracleFrontend(oracle, max_batch=32, wal=BookKeeperWAL())
    for request in make_cross_heavy_requests(
        frontend, specs, PARTITIONS, cross_every=1
    ):
        frontend.submit_commit_nowait(request)
    frontend.flush()
    stats = frontend.stats
    rounds = oracle.round_stats
    per_flush = stats.partition_check_rounds / stats.batches
    per_request_visits = rounds.cross_requests and (
        stats.partition_check_rounds / rounds.cross_requests
    )
    print(
        f"  {stats.batches} flushes, {rounds.cross_requests} cross requests, "
        f"{stats.partition_check_rounds} check rounds "
        f"({per_flush:.2f}/flush, {per_request_visits:.2f}/cross request), "
        f"{stats.partition_install_rounds} install rounds"
    )
    # One validation round per partition per flush at most...
    assert per_flush <= PARTITIONS
    # ...which amortizes to well under one partition visit per cross
    # request (the per-request path pays >= 2 visits per cross request).
    assert per_request_visits < 1.0
