"""E23 — three-protocol shootout: every engine, batched vs per-request.

Not a paper figure: §6 benchmarks the lock-free status oracle alone.
E23 extends the E18 methodology across the whole engine family behind
:func:`~repro.core.engine.make_engine` — the centralized oracle
(write-snapshot isolation), the Percolator-style lock/write-column
two-phase commit, and Cahill-style SSI — to show the *serving-stack*
claim of the refactor: batching the decision loop is a property of the
``CommitEngine`` interface, not of one protocol.

Each pair runs the identical frontend over the identical pre-drawn
specs with identical one-group-WAL-record-per-flush durability; only
the decision loop differs (bulk ``_decide_batch`` pass vs one
sequential ``commit()`` per item).  Acceptance: every engine's batched
flush sustains >= 1.5x its per-request flush at batch size 32 (median
of paired runs, the E17–E21 protocol).

A second table prices the protocols against each other on two workload
shapes at batch scale:

* **YCSB-style uniform** (§6.1's setup) — unstructured footprints over
  a flat keyspace, conflicts rare and memoryless;
* **TPC-C-like** (:mod:`repro.workload.tpcc`) — structured OLTP
  footprints where hot warehouse/district header rows are co-accessed
  with cold detail rows, so contention concentrates instead of
  scattering.

The cross-protocol throughput ordering is reported, not asserted — the
oracle's single dict check is expected to beat Percolator's per-row
lock/write-column discipline and SSI's rw-edge bookkeeping; what E23
pins is that *batching* pays for all three.

Set ``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` target) for a
tiny-sized sanity run with correspondingly relaxed bars.
"""

import statistics

import pytest

from repro.bench import format_table
from repro.bench.snapshot import SMOKE, record
from repro.bench.frontend_bench import (
    bench_engine,
    make_specs,
    paired_ratios,
    run_engine,
)
from repro.core.engine import ENGINE_KINDS
from repro.workload.tpcc import TPCCWorkload

NUM_REQUESTS = 4_000 if SMOKE else 30_000
PAIRS = 2 if SMOKE else 5
#: best-of-REPEATS per pair side: machine noise is one-sided, and on a
#: shared box a single co-scheduled burst can halve one side of a pair;
#: three runs per side (two at smoke size) keep the medians clear of the
#: bar.
REPEATS = 2 if SMOKE else 3
#: tiny smoke runs are noisy; the full run must clear the real bar.
SPEEDUP_BAR = 1.1 if SMOKE else 1.5
BATCH = 32


def _tpcc_specs(num_requests):
    """Pre-drawn TPC-C-like stream (request generation stays outside
    every timed region, as everywhere in the bench suite)."""
    return TPCCWorkload(warehouses=4, seed=7).batch(num_requests)


@pytest.mark.figure("e23")
def test_e23_per_engine_batch_speedup(benchmark, print_header):
    specs = make_specs(NUM_REQUESTS)
    ratios = benchmark.pedantic(
        lambda: {
            kind: paired_ratios(
                lambda: run_engine(kind, specs, BATCH, per_request=True),
                lambda: run_engine(kind, specs, BATCH),
                pairs=PAIRS,
                repeats=REPEATS,
            )
            for kind in ENGINE_KINDS
        },
        rounds=1,
        iterations=1,
    )
    print_header(
        "E23 — batched vs per-request flush, every commit engine "
        "(wall clock)"
    )
    medians = {kind: statistics.median(ratios[kind]) for kind in ENGINE_KINDS}
    print(
        format_table(
            ["engine", "paired ratios", "median", "bar"],
            [
                (
                    kind,
                    "  ".join(f"{r:.2f}x" for r in ratios[kind]),
                    f"{medians[kind]:.2f}x",
                    f"{SPEEDUP_BAR}x",
                )
                for kind in ENGINE_KINDS
            ],
            title=(
                f"uniform complex workload, {NUM_REQUESTS} commit "
                f"requests, batch {BATCH}"
            ),
        )
    )
    # Acceptance: batching pays >= 1.5x for *every* protocol behind the
    # CommitEngine interface, not just the centralized oracle.
    for kind in ENGINE_KINDS:
        assert medians[kind] >= SPEEDUP_BAR, (
            f"{kind}: median {medians[kind]:.2f}x < bar {SPEEDUP_BAR}x "
            f"(pairs: {ratios[kind]})"
        )
    record(
        "e23",
        bar=SPEEDUP_BAR,
        batch_size=BATCH,
        **{f"{kind}_median_speedup": medians[kind] for kind in ENGINE_KINDS},
    )


@pytest.mark.figure("e23")
def test_e23_three_protocol_comparison(print_header):
    """Cross-protocol throughput at batch scale on both workload
    shapes, plus the zero-tolerance leg: each engine's batched flush
    decides exactly what its per-request flush decides."""
    print_header(
        "E23b — three protocols x two workload shapes (batched frontend)"
    )
    workloads = (
        ("ycsb-uniform", make_specs(NUM_REQUESTS)),
        ("tpcc-like", _tpcc_specs(NUM_REQUESTS)),
    )
    rows = []
    abort_rates = {}
    for wname, specs in workloads:
        for kind in ENGINE_KINDS:
            batched = bench_engine(
                kind, specs, batch_size=BATCH, repeats=REPEATS
            )
            per_request = bench_engine(
                kind, specs, batch_size=BATCH, repeats=1, per_request=True
            )
            # Batching changes wall clock, never decisions.
            assert batched.commits == per_request.commits, (wname, kind)
            assert batched.aborts == per_request.aborts, (wname, kind)
            abort_rates[(wname, kind)] = batched.aborts / len(specs)
            rows.append(
                (
                    wname,
                    kind,
                    f"{batched.ops_per_sec:,.0f}",
                    f"{batched.us_per_op:.2f}",
                    batched.commits,
                    batched.aborts,
                    f"{100 * abort_rates[(wname, kind)]:.2f}%",
                )
            )
    print(
        format_table(
            ["workload", "engine", "ops/s", "us/op", "commits", "aborts",
             "abort rate"],
            rows,
            title=f"{NUM_REQUESTS} commit requests per cell, batch {BATCH}",
        )
    )
    # Structured TPC-C contention concentrates on the district headers:
    # every protocol must show *more* conflict there than on the flat
    # uniform keyspace (that is the point of running both shapes).
    for kind in ENGINE_KINDS:
        assert (
            abort_rates[("tpcc-like", kind)]
            > abort_rates[("ycsb-uniform", kind)]
        ), f"{kind}: TPC-C headers did not concentrate contention"
    record(
        "e23",
        num_requests=NUM_REQUESTS,
        **{
            f"{wname.replace('-', '_')}_{kind}_abort_rate":
                abort_rates[(wname, kind)]
            for wname, _ in workloads
            for kind in ENGINE_KINDS
        },
    )
