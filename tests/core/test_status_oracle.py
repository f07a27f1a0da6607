"""Unit tests for Algorithms 1 and 2 (the status oracle)."""

import pytest

from repro.core.errors import OracleClosed
from repro.core.status_oracle import (
    CommitRequest,
    SnapshotIsolationOracle,
    WriteSnapshotIsolationOracle,
    make_oracle,
)


def req(start, writes=(), reads=()):
    return CommitRequest(
        start, write_set=frozenset(writes), read_set=frozenset(reads)
    )


class TestAlgorithm1SI:
    """Algorithm 1: write-write conflict detection."""

    def test_first_writer_commits(self):
        oracle = SnapshotIsolationOracle()
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes={"r"}))
        assert result.committed
        assert result.commit_ts is not None and result.commit_ts > ts

    def test_conflicting_writer_aborts(self):
        oracle = SnapshotIsolationOracle()
        t1 = oracle.begin()
        t2 = oracle.begin()
        assert oracle.commit(req(t1, writes={"r"})).committed
        result = oracle.commit(req(t2, writes={"r"}))
        assert not result.committed
        assert result.reason == "ww-conflict"
        assert result.conflict_row == "r"

    def test_serial_writers_both_commit(self):
        oracle = SnapshotIsolationOracle()
        t1 = oracle.begin()
        assert oracle.commit(req(t1, writes={"r"})).committed
        t2 = oracle.begin()  # starts after t1 committed
        assert oracle.commit(req(t2, writes={"r"})).committed

    def test_disjoint_writes_both_commit(self):
        oracle = SnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"})).committed
        assert oracle.commit(req(t2, writes={"y"})).committed

    def test_si_ignores_read_set(self):
        # SI checks only writes: a concurrent read-write crossover commits.
        oracle = SnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"}, reads={"y"})).committed
        assert oracle.commit(req(t2, writes={"y"}, reads={"x"})).committed

    def test_lastcommit_updated_to_commit_ts(self):
        oracle = SnapshotIsolationOracle()
        t1 = oracle.begin()
        result = oracle.commit(req(t1, writes={"r"}))
        assert oracle.last_commit("r") == result.commit_ts

    def test_induction_only_latest_needed(self):
        # Checking only the latest committed writer suffices (the
        # induction argument of §2.2): a transaction whose snapshot
        # predates several generations of writers is still caught.
        oracle = SnapshotIsolationOracle()
        stale = oracle.begin()  # snapshot taken before any writer commits
        for _ in range(3):
            ts = oracle.begin()
            assert oracle.commit(req(ts, writes={"r"})).committed
        result = oracle.commit(req(stale, writes={"r"}))
        assert not result.committed


class TestAlgorithm2WSI:
    """Algorithm 2: read-write conflict detection."""

    def test_read_set_checked_not_write_set(self):
        oracle = WriteSnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        # t1 writes x; t2 also writes x but never read it (blind write):
        # allowed under WSI (History 4).
        assert oracle.commit(req(t1, writes={"x"})).committed
        assert oracle.commit(req(t2, writes={"x"})).committed

    def test_rw_conflict_aborts(self):
        oracle = WriteSnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"})).committed
        result = oracle.commit(req(t2, writes={"y"}, reads={"x"}))
        assert not result.committed
        assert result.reason == "rw-conflict"

    def test_write_skew_prevented(self):
        # History 2: both read {x, y}; t1 writes x, t2 writes y.
        oracle = WriteSnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"}, reads={"x", "y"})).committed
        result = oracle.commit(req(t2, writes={"y"}, reads={"x", "y"}))
        assert not result.committed

    def test_reader_committing_first_wins(self):
        oracle = WriteSnapshotIsolationOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        # t2 (the reader) commits first; t1's later write cannot hurt it.
        assert oracle.commit(req(t2, writes={"y"}, reads={"x"})).committed
        assert oracle.commit(req(t1, writes={"x"})).committed

    def test_update_uses_write_set(self):
        oracle = WriteSnapshotIsolationOracle()
        t1 = oracle.begin()
        result = oracle.commit(req(t1, writes={"w"}, reads={"r"}))
        assert oracle.last_commit("w") == result.commit_ts
        assert oracle.last_commit("r") is None


class TestReadOnlyFastPath:
    @pytest.mark.parametrize("level", ["si", "wsi"])
    def test_empty_sets_commit_without_work(self, level):
        oracle = make_oracle(level)
        ts = oracle.begin()
        result = oracle.commit(req(ts))
        assert result.committed
        assert result.commit_ts is None  # no commit timestamp consumed
        assert oracle.stats.read_only_commits == 1
        assert oracle.stats.rows_checked == 0

    @pytest.mark.parametrize("level", ["si", "wsi"])
    def test_read_only_never_aborts_even_after_conflicting_writes(self, level):
        oracle = make_oracle(level)
        reader = oracle.begin()
        writer = oracle.begin()
        assert oracle.commit(req(writer, writes={"x"})).committed
        # The read-only client submits empty sets per §5.1.
        assert oracle.commit(req(reader)).committed

    def test_read_only_with_submitted_read_set_still_commits(self):
        # §4.1 condition 3: an empty write set never aborts — even when
        # the client (wastefully) submitted its read set, the oracle
        # short-circuits: no check, no commit timestamp, no WAL.
        oracle = WriteSnapshotIsolationOracle()
        reader = oracle.begin()
        writer = oracle.begin()
        assert oracle.commit(req(writer, writes={"x"})).committed
        result = oracle.commit(req(reader, reads={"x"}))
        assert result.committed
        assert result.commit_ts is None
        assert oracle.stats.read_only_commits == 1
        assert oracle.stats.rows_checked == 0

    def test_wsi_naive_read_only_with_read_set_can_abort(self):
        # Documents why condition 3 matters: under the E16 ablation
        # switch (`naive_read_only=True`) Algorithm 2 checks the
        # submitted read set and aborts the reader on conflict — the §1
        # "naive implementation" that "greatly reduce[s] the level of
        # concurrency".
        oracle = WriteSnapshotIsolationOracle(naive_read_only=True)
        reader = oracle.begin()
        writer = oracle.begin()
        assert oracle.commit(req(writer, writes={"x"})).committed
        result = oracle.commit(req(reader, reads={"x"}))
        assert not result.committed


class TestCommitTableIntegration:
    def test_commit_recorded(self):
        oracle = make_oracle("wsi")
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes={"x"}))
        assert oracle.commit_table.commit_timestamp(ts) == result.commit_ts

    def test_abort_recorded(self):
        oracle = make_oracle("wsi")
        t1, t2 = oracle.begin(), oracle.begin()
        oracle.commit(req(t1, writes={"x"}))
        oracle.commit(req(t2, reads={"x"}, writes={"y"}))
        assert oracle.commit_table.is_aborted(t2)

    def test_client_abort_recorded(self):
        oracle = make_oracle("si")
        ts = oracle.begin()
        oracle.abort(ts)
        assert oracle.commit_table.is_aborted(ts)


class TestStats:
    def test_counters(self):
        oracle = make_oracle("wsi")
        t1, t2, t3 = oracle.begin(), oracle.begin(), oracle.begin()
        oracle.commit(req(t1, writes={"x"}))
        oracle.commit(req(t2, reads={"x"}, writes={"y"}))  # aborts
        oracle.commit(req(t3))  # read-only
        stats = oracle.stats
        assert stats.commits == 2
        assert stats.aborts == 1
        assert stats.conflict_aborts == 1
        assert stats.read_only_commits == 1
        assert stats.total_requests == 3
        assert stats.abort_rate == pytest.approx(1 / 3)


class TestLifecycle:
    def test_closed_oracle_rejects(self):
        oracle = make_oracle("si")
        oracle.close()
        with pytest.raises(OracleClosed):
            oracle.begin()
        with pytest.raises(OracleClosed):
            oracle.commit(req(1, writes={"x"}))

    def test_factory_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            make_oracle("read-committed")

    def test_factory_levels(self):
        assert make_oracle("si").level == "si"
        assert make_oracle("wsi").level == "wsi"


class TestCommitRequestRecord:
    """The value semantics the frozen dataclass had, kept by the slotted
    class that replaced it (PR 13)."""

    def test_positional_keyword_and_default_construction(self):
        full = CommitRequest(7, frozenset({"w"}), frozenset({"r"}))
        assert full == CommitRequest(
            7, write_set=frozenset({"w"}), read_set=frozenset({"r"})
        )
        bare = CommitRequest(start_ts=7)
        assert bare.write_set == frozenset() and bare.read_set == frozenset()
        assert bare.is_read_only and not full.is_read_only

    def test_equality_and_hash_are_nominal(self):
        a = req(7, writes={"w"}, reads={"r"})
        assert a == req(7, writes={"w"}, reads={"r"})
        assert hash(a) == hash(req(7, writes={"w"}, reads={"r"}))
        assert a != req(8, writes={"w"}, reads={"r"})
        assert a != req(7, writes={"w"})
        assert a != (7, frozenset({"w"}), frozenset({"r"}))
        assert len({a, req(7, writes={"w"}, reads={"r"})}) == 1

    def test_immutable_and_dictless(self):
        a = req(7, writes={"w"})
        with pytest.raises(AttributeError):
            a.start_ts = 8
        with pytest.raises(AttributeError):
            del a.write_set
        with pytest.raises(AttributeError):
            a.extra = 1
        assert not hasattr(a, "__dict__")
        assert a.start_ts == 7

    def test_repr_names_the_fields(self):
        assert repr(CommitRequest(7)) == (
            "CommitRequest(start_ts=7, write_set=frozenset(), "
            "read_set=frozenset())"
        )
