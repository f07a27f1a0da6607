"""Unit tests for the HBase-like cluster and region servers."""

import pytest

from repro.core import TransactionManager, make_oracle
from repro.hbase.cluster import HBaseCluster
from repro.hbase.region_server import BlockCache, RegionServer


class TestRouting:
    def test_single_region_goes_to_server_zero(self):
        cluster = HBaseCluster(num_servers=4)
        assert cluster.server_for(123).server_id == 0

    def test_presplit_spreads_rows(self):
        cluster = HBaseCluster.for_integer_keyspace(
            num_rows=1000, num_servers=4, regions_per_server=2
        )
        owners = {cluster.server_for(row).server_id for row in range(0, 1000, 50)}
        assert len(owners) == 4  # all servers participate

    def test_put_get_roundtrip_through_routing(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=1000, num_servers=3)
        cluster.put(577, 1, "x")
        versions = list(cluster.get_versions(577))
        assert versions[0].value == "x"
        # the data lives only on the owning server
        owner = cluster.server_for(577)
        others = [s for s in cluster.servers if s is not owner]
        assert 577 in owner.store
        assert all(577 not in s.store for s in others)

    def test_delete_version_routes(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=100, num_servers=2)
        cluster.put(42, 1, "x")
        assert cluster.delete_version(42, 1)
        assert not cluster.delete_version(42, 1)


class TestMetrics:
    def test_request_accounting(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=100, num_servers=2)
        cluster.put(1, 1, "a")
        list(cluster.get_versions(1))
        assert cluster.total_puts() == 1
        assert cluster.total_gets() == 1

    def test_history_is_accounted_like_get_versions(self):
        cluster = HBaseCluster.for_integer_keyspace(
            num_rows=100, num_servers=2, cache_blocks_per_server=4
        )
        cluster.put(1, 1, "a")
        server = cluster.server_for(1)
        assert cluster.history(1) == ([1], ["a"])
        assert (server.get_count, server.cache.misses, server.last_access_hit) == (
            1, 1, False
        )
        assert cluster.history(1) == ([1], ["a"])
        assert (server.get_count, server.cache.hits, server.last_access_hit) == (
            2, 1, True
        )
        assert cluster.history(2) is None  # a missing row is still a get
        assert cluster.total_gets() == 3

    def test_load_imbalance_uniform(self):
        cluster = HBaseCluster.for_integer_keyspace(
            num_rows=10_000, num_servers=4, regions_per_server=4
        )
        for row in range(0, 10_000, 10):
            cluster.put(row, 1, row)
        assert cluster.load_imbalance() < 1.5

    def test_load_imbalance_hotspot(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=10_000, num_servers=4)
        for _ in range(100):
            cluster.put(9_999, 1, "hot")  # all traffic on the last region
        assert cluster.load_imbalance() > 2.0

    def test_bulk_load(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=100, num_servers=2)
        cluster.load([(i, 1, i) for i in range(100)])
        assert cluster.total_puts() == 100

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            HBaseCluster(num_servers=0)


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(capacity_blocks=10)
        assert not cache.touch("row")
        assert cache.touch("row")
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = BlockCache(capacity_blocks=2, rows_per_block=1)
        cache.touch("a")
        cache.touch("b")
        cache.touch("c")  # evicts a
        assert not cache.touch("a")

    def test_zero_capacity_never_hits(self):
        cache = BlockCache(capacity_blocks=0)
        cache.touch("x")
        assert not cache.touch("x")
        assert cache.hit_rate == 0.0

    def test_warm_inserts_without_stats(self):
        cache = BlockCache(capacity_blocks=4)
        cache.warm("row")
        assert cache.hits == 0 and cache.misses == 0
        assert cache.touch("row")  # now a hit

    def test_block_sharing(self):
        # integer keys share blocks at rows_per_block granularity
        cache = BlockCache(capacity_blocks=4, rows_per_block=64)
        assert not cache.touch(0)
        assert cache.touch(1)  # same 64-row block


class TestTransactionsOverCluster:
    """The cluster satisfies StorageBackend: run real transactions on it."""

    def test_cross_region_transaction(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=1000, num_servers=4)
        manager = TransactionManager(make_oracle("wsi"), cluster)
        txn = manager.begin()
        for row in (10, 300, 600, 900):  # spans several regions
            txn.write(row, row * 2)
        txn.commit()
        reader = manager.begin()
        assert [reader.read(r) for r in (10, 300, 600, 900)] == [20, 600, 1200, 1800]

    def test_conflict_detection_spans_servers(self):
        cluster = HBaseCluster.for_integer_keyspace(num_rows=1000, num_servers=4)
        manager = TransactionManager(make_oracle("wsi"), cluster)
        t1, t2 = manager.begin(), manager.begin()
        t1.write(900, "a")
        t2.read(900)
        t2.write(10, "b")
        t1.commit()
        from repro.core.errors import ConflictAbort

        with pytest.raises(ConflictAbort):
            t2.commit()
