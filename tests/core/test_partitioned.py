"""Tests for the partitioned status oracle (§6.3 footnote 6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransactionManager
from repro.core.errors import ConflictAbort, OracleClosed
from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import HashSharding, RangeSharding, ShardingPolicy
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.core.timestamps import TimestampOracle
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


class ReferenceRule:
    """The per-request rule, written out independently of the engine.

    Route the whole footprint (read set plus write set under WSI, the
    write set under SI) to tell a single-partition decision from a
    cross-partition one; validate the checked rows share by share in
    partition-id order, each share in the checked set's iteration
    order; on success assign Tc once and install the write set.
    """

    TALLIES = (
        "single_partition_commits",
        "single_partition_aborts",
        "cross_partition_commits",
        "cross_partition_aborts",
    )

    def __init__(self, level, num_partitions, sharding):
        self.level = level
        self.num = num_partitions
        self.sharding = sharding
        self.tso = TimestampOracle()
        self.last = [{} for _ in range(num_partitions)]
        self.rows_checked = [0] * num_partitions
        self.tallies = dict.fromkeys(self.TALLIES, 0)

    def route(self, row):
        return self.sharding.partition_of(row, self.num)

    def begin(self):
        return self.tso.next()

    def commit(self, request):
        """``(committed, commit_ts, reason, conflict_row)``."""
        writes = request.write_set
        if not writes:
            return True, None, "", None
        wsi = self.level == "wsi"
        checked = request.read_set if wsi else writes
        footprint = {self.route(row) for row in writes | checked}
        kind = "single" if len(footprint) == 1 else "cross"
        for pid in range(self.num):
            last = self.last[pid]
            for row in (r for r in checked if self.route(r) == pid):
                self.rows_checked[pid] += 1
                stamp = last.get(row)
                if stamp is not None and stamp > request.start_ts:
                    self.tallies[kind + "_partition_aborts"] += 1
                    reason = "rw-conflict" if wsi else "ww-conflict"
                    return False, None, reason, row
        commit_ts = self.tso.next()
        for row in writes:
            self.last[self.route(row)][row] = commit_ts
        self.tallies[kind + "_partition_commits"] += 1
        return True, commit_ts, "", None


def decide_both(engine, ref, request):
    got = engine.commit(request)
    want = ref.commit(request)
    assert (
        got.committed, got.commit_ts, got.reason, got.conflict_row
    ) == want, request
    assert [
        p.stats.rows_checked for p in engine.partitions
    ] == ref.rows_checked
    assert {name: getattr(engine, name) for name in ref.TALLIES} == ref.tallies
    return got


SHARDINGS = {
    "hash-4": (HashSharding, 4),
    "hash-3": (HashSharding, 3),
    "hash-1": (HashSharding, 1),
    "range-4": (lambda: RangeSharding(keyspace=12), 4),
}

row_keys = st.one_of(
    st.integers(0, 13), st.sampled_from(["a", "b", "c", ("k", 1)])
)
steps = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.frozensets(row_keys, max_size=5),
        st.frozensets(row_keys, max_size=5),
    ),
    min_size=1,
    max_size=30,
)


class TestOneDecisionPath:
    """``commit`` against the reference rule, request by request:
    decision, commit timestamp, reason, conflict row, each partition's
    ``rows_checked`` and the four single/cross tallies."""

    @staticmethod
    def pair(level, store, sharding="hash-4"):
        make_policy, num = SHARDINGS[sharding]
        engine = PartitionedOracle(
            level=level, num_partitions=num, sharding=make_policy(),
            lastcommit=store,
        )
        return engine, ReferenceRule(level, num, make_policy())

    @pytest.mark.parametrize("sharding", sorted(SHARDINGS))
    @pytest.mark.parametrize("store", ["dict", "array"])
    @pytest.mark.parametrize("level", ["si", "wsi"])
    @given(script=steps)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, level, store, sharding, script):
        engine, ref = self.pair(level, store, sharding)
        open_starts = []
        for lag, writes, reads in script:
            start = engine.begin()
            assert ref.begin() == start
            open_starts.append(start)
            start = open_starts.pop(max(0, len(open_starts) - 1 - lag))
            decide_both(engine, ref, req(start, writes, reads))

    @pytest.mark.parametrize("store", ["dict", "array"])
    def test_wsi_abort_reading_one_partition_writing_another(self, store):
        engine, ref = self.pair("wsi", store)
        stale = engine.begin()
        assert ref.begin() == stale
        ts = engine.begin()
        assert ref.begin() == ts
        decide_both(engine, ref, req(ts, writes={0, 4}))
        # Reads sit in partition 0 only, the write lands in partition 1.
        result = decide_both(engine, ref, req(stale, writes={1}, reads={0, 4}))
        assert not result.committed and result.conflict_row in (0, 4)
        assert engine.cross_partition_aborts == 1
        assert engine.single_partition_aborts == 0

    @pytest.mark.parametrize("level", ["si", "wsi"])
    @pytest.mark.parametrize("store", ["dict", "array"])
    def test_write_only_requests(self, level, store):
        engine, ref = self.pair(level, store)
        for writes in ({0, 4}, {0, 1}, {8}):
            start = engine.begin()
            assert ref.begin() == start
            assert decide_both(engine, ref, req(start, writes=writes)).committed
        assert engine.single_partition_commits == 2
        assert engine.cross_partition_commits == 1

    @pytest.mark.parametrize("level", ["si", "wsi"])
    @pytest.mark.parametrize("store", ["dict", "array"])
    def test_read_only_request(self, level, store):
        engine, ref = self.pair(level, store)
        start = engine.begin()
        assert ref.begin() == start
        result = decide_both(engine, ref, req(start, reads={0, 1, "a"}))
        assert result.committed and result.commit_ts is None
        assert engine.cross_partition_fraction() == 0.0


class CountingSharding(ShardingPolicy):
    """Hash placement that counts its ``partition_of`` calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def partition_of(self, row, num_partitions):
        self.calls += 1
        return HashSharding().partition_of(row, num_partitions)


class TestRoutingWork:
    def test_wsi_cross_partition_abort_never_routes_its_write_set(self):
        policy = CountingSharding()
        engine = PartitionedOracle(
            level="wsi", num_partitions=4, sharding=policy
        )
        stale = engine.begin()
        assert engine.commit(req(engine.begin(), writes={0, 1})).committed
        reads, writes = {0, 1}, {2, 3, 5, 6, 7}  # reads span two partitions
        policy.calls = 0
        result = engine.commit(req(stale, writes=writes, reads=reads))
        assert not result.committed
        assert policy.calls == len(reads)
        assert engine.cross_partition_aborts == 1

    def test_commit_routes_each_row_once(self):
        policy = CountingSharding()
        engine = PartitionedOracle(
            level="wsi", num_partitions=4, sharding=policy
        )
        reads, writes = {0, 1, 9}, {2, 3, 5}
        assert engine.commit(req(engine.begin(), writes, reads)).committed
        assert policy.calls == len(reads) + len(writes)

