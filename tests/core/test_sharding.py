"""Routing determinism: shard and block placement must not depend on the
process (satellite of the cross-partition batch protocol PR).

Python salts ``hash(str)`` per process (``PYTHONHASHSEED``), so any
placement derived from the builtin hash silently differs between
processes — a correctness bug for a distributed deployment of §6.3
footnote 6 (two frontends would route the same row to different
``lastCommit`` shards) and a reproducibility bug for every benchmark.
These tests pin the replacement, :func:`repro.core.sharding.stable_hash`,
and the routing built on it, including across subprocesses launched with
different ``PYTHONHASHSEED`` values.
"""

import os
import subprocess
import sys

import pytest

from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import (
    DirectorySharding,
    HashSharding,
    RangeSharding,
    make_sharding,
    stable_hash,
)
from repro.hbase.region_server import BlockCache

FIXED_KEYS = [
    "row", "r0", "account:42", "user#9", "", "élève",
    0, 1, 7, 63, 64, 1_000_003, -5,
    b"bytes-key", ("compound", 3),
]


class TestStableHash:
    def test_deterministic_within_process(self):
        for key in FIXED_KEYS:
            assert stable_hash(key) == stable_hash(key)

    def test_non_negative(self):
        for key in FIXED_KEYS:
            assert stable_hash(key) >= 0

    def test_integers_hash_to_themselves(self):
        # Integer keyspaces shard exactly like row % num_partitions, so
        # benchmark workloads can construct a row for a target shard.
        assert stable_hash(12345) == 12345
        assert stable_hash(0) == 0
        assert stable_hash(-7) == 7

    def test_known_string_values_pinned(self):
        # CRC-32 of the UTF-8 bytes: pin two values so any change to the
        # encoding rule is caught (these must never vary by process).
        import zlib

        assert stable_hash("row") == zlib.crc32(b"row")
        assert stable_hash(b"row") == zlib.crc32(b"row")
        assert stable_hash("row") == stable_hash(b"row")

    def test_spreads_over_partitions(self):
        buckets = {stable_hash(f"row{i}") % 4 for i in range(64)}
        assert buckets == {0, 1, 2, 3}

    def test_equal_keys_hash_equal_across_numeric_types(self):
        # Dict/set semantics make 2, 2.0, Decimal(2) and Fraction(2)
        # the SAME row key, so they must share a shard — exactly the
        # invariant builtin hash() guarantees for numbers.  A split
        # would route the "same" row to two lastCommit shards and miss
        # conflicts.
        from decimal import Decimal
        from fractions import Fraction

        for a, b in [
            (2, 2.0),
            (2, Decimal(2)),
            (2, Fraction(2)),
            (1, True),
            (0, False),
            (-7, -7.0),
            (2**64, 2.0**64),  # above the int-identity bound
            ((1,), (1.0,)),  # equal tuples with mixed element types
            (("k", 2, (3,)), ("k", 2.0, (3.0,))),  # nested
        ]:
            assert a == b
            assert stable_hash(a) == stable_hash(b), (a, b)

    def test_mixed_numeric_types_conflict_like_a_monolith(self):
        # The end-to-end consequence of the invariant above: a write to
        # row 2.0 must conflict with a concurrent write to row 2 under
        # the partitioned oracle exactly as under a monolithic one.
        from repro.core.status_oracle import CommitRequest, make_oracle

        def drive(oracle):
            t_old = oracle.begin()
            t_new = oracle.begin()
            assert oracle.commit(
                CommitRequest(t_new, write_set=frozenset({2.0}))
            ).committed
            return oracle.commit(
                CommitRequest(t_old, write_set=frozenset({2}))
            ).committed

        mono = drive(make_oracle("si"))
        part = drive(PartitionedOracle(level="si", num_partitions=4))
        assert part == mono is False


def _routing_fingerprint():
    """Shard + block placement of the fixed keys — under every sharding
    policy — as one string."""
    oracle = PartitionedOracle(level="wsi", num_partitions=5)
    cache = BlockCache(capacity_blocks=4)
    shards = [oracle.partition_of(key) for key in FIXED_KEYS]
    blocks = [cache.block_of(key) for key in FIXED_KEYS]
    range_policy = RangeSharding(keyspace=1024)
    directory = DirectorySharding(
        {"row": 3, 63: 1}, fallback=RangeSharding(keyspace=1024)
    )
    policy_shards = [
        policy.partition_of(key, 5)
        for policy in (HashSharding(), range_policy, directory)
        for key in FIXED_KEYS
    ]
    policy_blocks = [
        BlockCache(capacity_blocks=4, sharding=range_policy).block_of(key)
        for key in FIXED_KEYS
    ]
    return ",".join(map(str, shards + blocks + policy_shards + policy_blocks))


SUBPROCESS_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from tests.core.test_sharding import _routing_fingerprint
sys.stdout.write(_routing_fingerprint())
"""


class TestRoutingIsProcessIndependent:
    @pytest.mark.parametrize("hashseed", ["0", "1", "31337"])
    def test_same_routing_under_any_pythonhashseed(self, hashseed):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        src = os.path.join(repo_root, "src")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = repo_root + os.pathsep + src
        out = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SNIPPET.format(src=src)],
            env=env,
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == _routing_fingerprint()


class TestShardingPolicies:
    """Placement determinism and semantics of the policy hierarchy
    (the pluggable-executor PR's locality lever).  Process-independence
    of all three policies rides the subprocess fingerprint above."""

    def test_hash_sharding_matches_bare_hash_fn(self):
        policy = HashSharding()
        default = PartitionedOracle(level="si", num_partitions=5)
        with_policy = PartitionedOracle(
            level="si", num_partitions=5, sharding=policy
        )
        for key in FIXED_KEYS:
            assert with_policy.partition_of(key) == default.partition_of(key)
            assert policy.partition_of(key, 5) == stable_hash(key) % 5

    def test_range_sharding_contiguous_bands_in_key_order(self):
        policy = RangeSharding(keyspace=100)
        pids = [policy.partition_of(row, 4) for row in range(100)]
        assert pids == sorted(pids)  # bands are contiguous, in key order
        assert set(pids) == {0, 1, 2, 3}
        assert pids.count(0) == pids.count(3) == 25  # equal bands
        # at/above the keyspace clamps into the last band (inserts keep
        # appending locally); non-integers take the fallback
        assert policy.partition_of(100, 4) == 3
        assert policy.partition_of(10 ** 9, 4) == 3
        assert policy.partition_of("row", 4) == HashSharding().partition_of(
            "row", 4
        )

    def test_range_sharding_equal_numeric_keys_share_a_band(self):
        from decimal import Decimal
        from fractions import Fraction

        policy = RangeSharding(keyspace=100)
        # Equal keys are ONE row key across numeric types (the
        # stable_hash invariant): every equal form must take the same
        # band as the int, or a conflict on the "same" row would be
        # checked against two lastCommit shards and missed.
        for a, b in [
            (True, 1),
            (False, 0),
            (10.0, 10),
            (Decimal(10), 10),
            (Fraction(10), 10),
            (99.0, 99),
            (-5.0, -5),  # negatives agree through the fallback
            (10.5, Fraction(21, 2)),  # equal non-integrals agree too
        ]:
            assert a == b
            assert policy.partition_of(a, 4) == policy.partition_of(b, 4), (
                a,
                b,
            )
        # nan/inf route through the fallback without raising
        assert 0 <= policy.partition_of(float("nan"), 4) < 4
        assert 0 <= policy.partition_of(float("inf"), 4) < 4

    def test_range_sharding_keeps_consecutive_rows_in_one_block(self):
        cache = BlockCache(capacity_blocks=4, sharding=RangeSharding(10_000))
        assert cache.block_of(0) == cache.block_of(63)
        assert cache.block_of(64) == cache.block_of(0) + 1

    def test_directory_sharding_pins_override_fallback(self):
        policy = DirectorySharding({7: 2})
        policy.pin(range(100, 110), 1)
        assert policy.partition_of(7, 4) == 2
        for row in range(100, 110):
            assert policy.partition_of(row, 4) == 1
        # pinned ids apply modulo the live partition count
        assert policy.partition_of(7, 2) == 0
        # unmapped keys take the fallback (hash by default)
        assert policy.partition_of("other", 4) == HashSharding().partition_of(
            "other", 4
        )
        assert policy.pinned_count == 11

    def test_directory_sharding_aligns_grouped_oracle_traffic(self):
        # the end-to-end point: pin two key groups to partitions and a
        # transaction inside one group is single-partition outright
        from repro.core.status_oracle import CommitRequest

        policy = DirectorySharding()
        policy.pin([0, 1, 2], 0).pin([3, 4, 5], 1)
        oracle = PartitionedOracle(
            level="si", num_partitions=4, sharding=policy
        )
        assert oracle.commit(
            CommitRequest(oracle.begin(), write_set=frozenset({0, 1, 2}))
        ).committed
        assert oracle.commit(
            CommitRequest(oracle.begin(), write_set=frozenset({3, 4, 5}))
        ).committed
        assert oracle.cross_partition_fraction() == 0.0
        assert oracle.single_partition_commits == 2

    def test_decisions_identical_across_policies(self):
        # Placement never changes decisions, only traffic shape: the
        # same script decides identically under all three policies.
        from repro.core.status_oracle import CommitRequest

        def drive(oracle):
            outcomes = []
            starts = [oracle.begin() for _ in range(8)]
            for i, start in enumerate(starts):
                result = oracle.commit(
                    CommitRequest(
                        start,
                        write_set=frozenset({i % 4, i % 4 + 1}),
                        read_set=frozenset({i % 3}),
                    )
                )
                outcomes.append((result.committed, result.commit_ts))
            return outcomes

        policies = [
            HashSharding(),
            RangeSharding(keyspace=16),
            DirectorySharding({i: i % 3 for i in range(8)}),
        ]
        runs = [
            drive(PartitionedOracle(level="wsi", num_partitions=3, sharding=p))
            for p in policies
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_make_sharding_factory(self):
        assert isinstance(make_sharding(), HashSharding)
        assert isinstance(make_sharding("hash"), HashSharding)
        assert isinstance(make_sharding("range", keyspace=10), RangeSharding)
        directory = make_sharding("directory", directory={1: 0})
        assert isinstance(directory, DirectorySharding)
        assert directory.partition_of(1, 4) == 0
        policy = RangeSharding(8)
        assert make_sharding(policy) is policy
        with pytest.raises(ValueError, match="needs keyspace"):
            make_sharding("range")
        with pytest.raises(ValueError, match="unknown sharding"):
            make_sharding("consistent-hashing")
