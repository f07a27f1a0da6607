#!/usr/bin/env python3
"""The paper's evaluation in miniature: SI vs WSI over the cluster sim.

Runs the mixed YCSB-style workload (§6.1) through the discrete-event
cluster simulation at a few client counts for each key distribution, and
prints the latency / throughput / abort-rate comparison — a fast version
of Figures 6-10 (the full sweeps live in benchmarks/).

A second section scales the oracle out (§6.3 footnote 6): the standard
YCSB workload A through a group-commit frontend over the partitioned
oracle, with the row-placement policy chosen on the command line
(benchmark E21c measures its bar).

Run:  python examples/ycsb_cluster.py            # quick (~30 s)
      python examples/ycsb_cluster.py --full     # the paper's client sweep
      python examples/ycsb_cluster.py --sharding directory
"""

import argparse
import time

from repro.bench import format_table
from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import make_sharding
from repro.server import OracleFrontend
from repro.sim import ClusterSim
from repro.wal.bookkeeper import BookKeeperWAL
from repro.workload.ycsb import ycsb

QUICK_CLIENTS = [20, 80, 320]
FULL_CLIENTS = [5, 10, 20, 40, 80, 160, 320, 640]

PARTITIONS = 4
GROUPS = 8
KEYSPACE = 4_096
NUM_TXNS = 4_000


def run(distribution: str, clients, measure: float):
    print(f"\n=== mixed workload, {distribution} distribution ===")
    rows = []
    for n in clients:
        per_level = {}
        for level in ("si", "wsi"):
            result = ClusterSim(
                level=level,
                distribution=distribution,
                num_clients=n,
                measure=measure,
                warmup=1.0,
                seed=42,
            ).run()
            per_level[level] = result
        si, wsi = per_level["si"], per_level["wsi"]
        rows.append(
            (
                n,
                f"{si.throughput_tps:.0f}",
                f"{si.avg_latency_ms:.0f}",
                f"{100 * si.abort_rate:.1f}%",
                f"{wsi.throughput_tps:.0f}",
                f"{wsi.avg_latency_ms:.0f}",
                f"{100 * wsi.abort_rate:.1f}%",
            )
        )
    print(
        format_table(
            ["clients", "SI TPS", "SI ms", "SI ab", "WSI TPS", "WSI ms", "WSI ab"],
            rows,
        )
    )


def run_partitioned(sharding_name: str) -> None:
    """YCSB A, group-local, through the partitioned frontend with the
    chosen placement policy (wall clock)."""
    print(
        f"\n=== partitioned oracle: sharding={sharding_name}, "
        f"{PARTITIONS} partitions ==="
    )
    workload = ycsb(
        "A", keyspace=KEYSPACE, max_rows=8, seed=7, num_groups=GROUPS
    )
    if sharding_name == "directory":
        policy = make_sharding(
            "directory", directory=workload.group_directory(PARTITIONS)
        )
    else:
        policy = make_sharding(sharding_name, keyspace=KEYSPACE)
    oracle = PartitionedOracle(
        level="wsi",
        num_partitions=PARTITIONS,
        sharding=policy,
    )
    frontend = OracleFrontend(oracle, max_batch=32, wal=BookKeeperWAL())
    requests = [
        spec.commit_request(frontend.begin())
        for spec in workload.stream(NUM_TXNS)
    ]
    t0 = time.perf_counter()
    for request in requests:
        frontend.submit_commit_nowait(request)
    frontend.flush()
    dt = time.perf_counter() - t0
    print(
        format_table(
            ["ops/s", "commits", "aborts", "cross frac", "batches"],
            [(
                f"{NUM_TXNS / dt:,.0f}",
                oracle.stats.commits,
                oracle.stats.aborts,
                f"{100 * oracle.cross_partition_fraction():.1f}%",
                frontend.stats.batches,
            )],
            title=f"YCSB A, group-local ({GROUPS} groups), batch 32",
        )
    )
    frontend.close()
    print(
        "\nPlacement is the locality lever: hash sharding scatters each"
        "\ngroup's rows over every partition (high cross fraction), while"
        "\nrange/directory sharding keeps each key group on one partition"
        "\n(cross fraction ~0), so its transactions take the"
        "\nsingle-partition fast path instead of the two-phase decision."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="the paper's full client sweep"
    )
    parser.add_argument(
        "--sharding",
        choices=["hash", "range", "directory"],
        default="hash",
        help="row-placement policy for the partitioned-oracle section",
    )
    parser.add_argument(
        "--skip-cluster",
        action="store_true",
        help="only run the partitioned-oracle section",
    )
    args = parser.parse_args()
    if not args.skip_cluster:
        clients = FULL_CLIENTS if args.full else QUICK_CLIENTS
        measure = 8.0 if args.full else 4.0
        for distribution in ("uniform", "zipfian", "zipfianLatest"):
            run(distribution, clients, measure)
        print(
            "\nTakeaways (matching §6.4-6.5): WSI tracks SI closely everywhere;"
            "\nuniform aborts ~0; zipfian conflicts grow with throughput; and the"
            "\nzipfianLatest read sets drawn from fresh writes cost WSI a slightly"
            "\nhigher abort rate — the price of serializability."
        )
    run_partitioned(args.sharding)


if __name__ == "__main__":
    main()
