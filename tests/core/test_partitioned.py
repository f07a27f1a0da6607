"""Tests for the partitioned status oracle (§6.3 footnote 6)."""

import random

import pytest

from repro.core import TransactionManager
from repro.core.errors import ConflictAbort, OracleClosed
from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.mvcc.store import MVCCStore


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


class TestBasics:
    def test_single_partition_degenerates_to_monolith(self):
        oracle = PartitionedOracle(level="wsi", num_partitions=1)
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"})).committed
        assert not oracle.commit(req(t2, writes={"y"}, reads={"x"})).committed

    def test_routing_is_stable(self):
        oracle = PartitionedOracle(num_partitions=4)
        assert oracle.partition_of("row") == oracle.partition_of("row")

    def test_timestamps_globally_ordered(self):
        oracle = PartitionedOracle(num_partitions=4)
        previous = 0
        for _ in range(20):
            ts = oracle.begin()
            assert ts > previous
            previous = ts

    def test_read_only_fast_path(self):
        oracle = PartitionedOracle(num_partitions=4)
        ts = oracle.begin()
        result = oracle.commit(req(ts))
        assert result.committed and result.commit_ts is None
        assert oracle.stats.read_only_commits == 1

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            PartitionedOracle(num_partitions=0)

    def test_executor_keyword_accepts_only_serial(self):
        PartitionedOracle(executor="serial")
        PartitionedOracle(executor=None)
        with pytest.raises(ValueError, match="executor"):
            PartitionedOracle(executor="parallel")

    def test_close(self):
        oracle = PartitionedOracle()
        oracle.close()
        with pytest.raises(OracleClosed):
            oracle.begin()


class TestCrossPartition:
    def test_cross_partition_commit_updates_all_shares(self):
        oracle = PartitionedOracle(level="si", num_partitions=4)
        rows = [f"row{i}" for i in range(12)]  # spread over partitions
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes=set(rows)))
        assert result.committed
        for row in rows:
            assert oracle.last_commit(row) == result.commit_ts
        assert oracle.cross_partition_commits == 1

    def test_cross_partition_conflict_in_any_share_aborts_all(self):
        oracle = PartitionedOracle(level="si", num_partitions=4)
        t1 = oracle.begin()
        t2 = oracle.begin()
        assert oracle.commit(req(t1, writes={"hot"})).committed
        # t2 writes many rows, one of them conflicting
        result = oracle.commit(req(t2, writes={"hot", "a", "b", "c", "d"}))
        assert not result.committed
        # no partial installation: the non-conflicting rows stay clean
        for row in ("a", "b", "c", "d"):
            assert oracle.last_commit(row) is None

    def test_counters(self):
        oracle = PartitionedOracle(level="si", num_partitions=8)
        ts = oracle.begin()
        oracle.commit(req(ts, writes={"one-row"}))
        ts = oracle.begin()
        oracle.commit(req(ts, writes={f"r{i}" for i in range(10)}))
        assert oracle.single_partition_commits == 1
        assert oracle.cross_partition_commits == 1
        assert 0 < oracle.cross_partition_fraction() < 1

    def test_fraction_counts_aborted_cross_decisions(self):
        # A heavily-conflicting cross-partition workload used to report
        # a misleading ~0 fraction because only *commits* were counted;
        # the fraction is over decisions (commits + conflict aborts).
        oracle = PartitionedOracle(level="si", num_partitions=4)
        rows = set(range(8))  # spans all four partitions
        ts = oracle.begin()
        assert oracle.commit(req(ts, writes=rows)).committed
        stale = [oracle.begin() for _ in range(4)]
        ts = oracle.begin()
        assert oracle.commit(req(ts, writes=rows)).committed
        for start in stale:  # all conflict, all cross-partition
            result = oracle.commit(req(start, writes=rows))
            assert not result.committed
        assert oracle.cross_partition_commits == 2
        assert oracle.cross_partition_aborts == 4
        assert oracle.cross_partition_fraction() == 1.0

    def test_fraction_counts_single_partition_aborts(self):
        oracle = PartitionedOracle(level="si", num_partitions=4)
        ts = oracle.begin()
        stale = oracle.begin()
        assert oracle.commit(req(ts, writes={0})).committed
        assert not oracle.commit(req(stale, writes={0})).committed
        assert oracle.single_partition_aborts == 1
        assert oracle.cross_partition_fraction() == 0.0

    def test_fraction_ignores_read_only_and_client_aborts(self):
        oracle = PartitionedOracle(level="wsi", num_partitions=4)
        oracle.commit(req(oracle.begin(), reads={"a", "b"}))
        oracle.abort(oracle.begin())
        assert oracle.cross_partition_fraction() == 0.0

    def test_fraction_same_through_decide_batch(self):
        def drive(oracle):
            starts = [oracle.begin() for _ in range(6)]
            items = [
                req(starts[0], writes={0, 1}),        # cross commit
                req(starts[1], writes={0}),           # single commit
                req(starts[2], writes={0, 1}),        # cross...
                req(starts[3], writes={0}),           # single...
                req(starts[4]),                       # read-only
                starts[5],                            # client abort
            ]
            return items

        seq = PartitionedOracle(level="si", num_partitions=2)
        for item in drive(seq):
            if isinstance(item, int):
                seq.abort(item)
            else:
                seq.commit(item)
        batched = PartitionedOracle(level="si", num_partitions=2)
        batched.decide_batch(drive(batched))
        assert (
            batched.cross_partition_fraction()
            == seq.cross_partition_fraction()
            == 0.5
        )


class TestDifferentialEquivalence:
    """The partitioned oracle must decide exactly like a monolithic one."""

    @pytest.mark.parametrize("level", ["si", "wsi"])
    @pytest.mark.parametrize("partitions", [2, 5])
    def test_same_decisions_as_monolith(self, level, partitions):
        rng = random.Random(71)
        mono = make_oracle(level)
        part = PartitionedOracle(level=level, num_partitions=partitions)
        rows = [f"r{i}" for i in range(15)]
        open_txns = []
        for _ in range(400):
            if open_txns and (rng.random() < 0.5 or len(open_txns) >= 6):
                m_ts, p_ts, wset, rset = open_txns.pop(
                    rng.randrange(len(open_txns))
                )
                m_res = mono.commit(req(m_ts, wset, rset))
                p_res = part.commit(req(p_ts, wset, rset))
                assert m_res.committed == p_res.committed, (wset, rset)
            else:
                wset = frozenset(rng.sample(rows, rng.randint(0, 3)))
                rset = frozenset(rng.sample(rows, rng.randint(0, 3)))
                open_txns.append((mono.begin(), part.begin(), wset, rset))

    def test_transaction_manager_compatible(self):
        oracle = PartitionedOracle(level="wsi", num_partitions=3)
        manager = TransactionManager(oracle, MVCCStore())
        t1 = manager.begin()
        t1.write("a", 1)
        t1.write("b", 2)
        t1.commit()
        t2 = manager.begin()
        assert t2.read("a") == 1
        t3 = manager.begin()
        t3.read("a")
        t3.write("c", 3)
        t4 = manager.begin()
        t4.write("a", 99)
        t4.commit()
        with pytest.raises(ConflictAbort):
            t3.commit()
