"""E21c — locality-aware sharding collapses cross-partition traffic.

Not a paper figure.  Row placement in the partitioned deployment (§6.3
footnote 6) is a :class:`~repro.core.sharding.ShardingPolicy`.  Under
hash placement, multi-row footprints scatter across partitions no matter
how co-accessed their keys are, and every such footprint pays the
two-phase cross-partition decision.

The measured claim: on a group-local YCSB workload (every transaction
confined to one key group), ``DirectorySharding`` pinning each group to
one partition drives ``cross_partition_fraction()`` below 0.05 (from
>=50 % under hash placement), converting cross traffic into aligned
traffic outright.  ``RangeSharding`` agrees here because the groups are
contiguous.  Placement never changes what is decided.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-sized run; the bars are
fractions of decisions, so they hold at either size.
"""

import pytest

from repro.bench import format_table
from repro.bench.snapshot import SMOKE
from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import DirectorySharding, HashSharding, RangeSharding
from repro.server import OracleFrontend
from repro.wal.bookkeeper import BookKeeperWAL
from repro.workload.ycsb import ycsb

PARTITIONS = 4

#: group-local workload shape.
GROUP_KEYSPACE = 2_048 if SMOKE else 4_096
GROUPS = 8
GROUP_TXNS = 1_000 if SMOKE else 4_000


def _drive_group_local(policy):
    """The group-local YCSB A workload through a partitioned frontend
    under one placement policy; returns the oracle for inspection."""
    workload = ycsb(
        "A", keyspace=GROUP_KEYSPACE, max_rows=8, seed=7, num_groups=GROUPS
    )
    oracle = PartitionedOracle(
        level="wsi", num_partitions=PARTITIONS, sharding=policy
    )
    frontend = OracleFrontend(oracle, max_batch=32, wal=BookKeeperWAL())
    for spec in workload.stream(GROUP_TXNS):
        frontend.submit_commit_nowait(spec.commit_request(frontend.begin()))
    frontend.flush()
    frontend.close()
    return oracle


@pytest.mark.figure("e21")
def test_e21_directory_sharding_collapses_cross_fraction(print_header):
    print_header(
        "E21c — locality-aware sharding on a group-local workload "
        "(cross-partition decision fraction)"
    )
    workload = ycsb(
        "A", keyspace=GROUP_KEYSPACE, max_rows=8, seed=7, num_groups=GROUPS
    )
    policies = [
        ("hash", HashSharding()),
        ("range", RangeSharding(GROUP_KEYSPACE)),
        (
            "directory",
            DirectorySharding(workload.group_directory(PARTITIONS)),
        ),
    ]
    rows = []
    fractions = {}
    decisions = {}
    for name, policy in policies:
        oracle = _drive_group_local(policy)
        fraction = oracle.cross_partition_fraction()
        fractions[name] = fraction
        decisions[name] = (oracle.stats.commits, oracle.stats.aborts)
        rows.append(
            (
                name,
                f"{100 * fraction:.1f}%",
                oracle.stats.commits,
                oracle.stats.aborts,
            )
        )
    print(
        format_table(
            ["sharding", "cross frac", "commits", "aborts"],
            rows,
            title=(
                f"YCSB A, {GROUPS} contiguous key groups over "
                f"{GROUP_KEYSPACE} keys, {PARTITIONS} partitions"
            ),
        )
    )
    # placement never changes decisions, only traffic shape
    assert decisions["hash"] == decisions["range"] == decisions["directory"]
    # hash placement scatters each group across partitions...
    assert fractions["hash"] >= 0.5
    # ...directory affinity converts it to aligned traffic outright
    # (range agrees here because the groups are contiguous)
    assert fractions["directory"] < 0.05
    assert fractions["range"] < 0.05
