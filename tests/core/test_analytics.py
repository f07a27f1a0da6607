"""Unit tests for the §5.2 analytical-traffic extension."""

import pytest

from repro.core.analytics import (
    AnalyticalCommitRequest,
    AnalyticalOracle,
    RangeReadSet,
    RowRange,
)
from repro.core.status_oracle import CommitRequest
from repro.wal.bookkeeper import BookKeeperWAL, WALTail


def oltp_commit(oracle, writes=(), reads=()):
    ts = oracle.begin()
    return ts, oracle.commit(
        CommitRequest(ts, write_set=frozenset(writes), read_set=frozenset(reads))
    )


class TestRowRange:
    def test_contains(self):
        r = RowRange(10, 20)
        assert r.contains(10) and r.contains(19)
        assert not r.contains(20) and not r.contains(9)

    def test_overlaps(self):
        assert RowRange(0, 10).overlaps(RowRange(5, 15))
        assert not RowRange(0, 10).overlaps(RowRange(10, 20))  # half-open

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RowRange(5, 5)

    def test_width(self):
        assert RowRange(3, 10).width == 7


class TestRangeReadSet:
    def test_coalesces_overlaps(self):
        rs = RangeReadSet()
        rs.add(RowRange(0, 10))
        rs.add(RowRange(5, 15))
        assert rs.range_count == 1
        assert rs.ranges() == [RowRange(0, 15)]

    def test_coalesces_adjacency(self):
        rs = RangeReadSet()
        rs.add(RowRange(0, 10))
        rs.add(RowRange(10, 20))
        assert rs.ranges() == [RowRange(0, 20)]

    def test_disjoint_kept_separate(self):
        rs = RangeReadSet([RowRange(0, 5), RowRange(10, 15)])
        assert rs.range_count == 2
        assert rs.covered_rows == 10

    def test_swallow_inner_ranges(self):
        rs = RangeReadSet([RowRange(2, 4), RowRange(6, 8), RowRange(0, 10)])
        assert rs.ranges() == [RowRange(0, 10)]

    def test_add_row(self):
        rs = RangeReadSet()
        for row in (5, 6, 7, 20):
            rs.add_row(row)
        assert rs.ranges() == [RowRange(5, 8), RowRange(20, 21)]

    def test_contains(self):
        rs = RangeReadSet([RowRange(0, 5), RowRange(10, 15)])
        assert rs.contains(3) and rs.contains(14)
        assert not rs.contains(7)

    def test_compactness_of_full_scan(self):
        # §5.2: a full-table scan is one range, not a million row ids.
        rs = RangeReadSet()
        for row in range(1000):
            rs.add_row(row)
        assert rs.range_count == 1

    def test_bool_and_str(self):
        assert not RangeReadSet()
        rs = RangeReadSet([RowRange(1, 2)])
        assert rs
        assert "[1, 2)" in str(rs)


class TestAnalyticalOracle:
    def test_range_conflict_detected(self):
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        oltp_commit(oracle, writes={500})  # OLTP writes inside the scanned range
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (RowRange(0, 1000),))
        )
        assert not result.committed
        assert oracle.stats_analytical_aborts == 1

    def test_no_conflict_outside_range(self):
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        oltp_commit(oracle, writes={5000})
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (RowRange(0, 1000),))
        )
        assert result.committed

    def test_pre_snapshot_write_is_fine(self):
        oracle = AnalyticalOracle()
        oltp_commit(oracle, writes={500})  # commits BEFORE the scan starts
        scan_ts = oracle.begin()
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (RowRange(0, 1000),))
        )
        assert result.committed

    def test_over_approximation_only_adds_aborts(self):
        # The range covers rows never actually read: a write there still
        # aborts the scan (false positive), but a precise WSI check with
        # the true row set would also never *miss* a conflict the range
        # check catches inside the true set.
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        oltp_commit(oracle, writes={999})  # row in range but "unread"
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (RowRange(0, 1000),))
        )
        assert not result.committed  # sound, possibly unnecessary

    def test_analytical_writes_update_lastcommit(self):
        oracle = AnalyticalOracle()
        old_oltp = oracle.begin()  # old snapshot, still running
        scan_ts = oracle.begin()
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (), write_set=frozenset({42}))
        )
        assert result.committed
        assert oracle.last_commit(42) == result.commit_ts
        # ...and OLTP transactions conflict with analytical writes normally.
        check = oracle.commit(
            CommitRequest(old_oltp, write_set=frozenset({1}),
                          read_set=frozenset({42}))
        )
        assert not check.committed

    def test_skip_check_mode_always_commits(self):
        # §5.2: statistics not read by OLTP -> commit can be skipped.
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        oltp_commit(oracle, writes={500})  # would conflict with a check
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(
                scan_ts, (RowRange(0, 1000),), skip_check=True
            )
        )
        assert result.committed
        assert oracle.stats_skipped_checks == 1

    def test_skip_check_does_not_pollute_lastcommit(self):
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        oracle.commit_analytical(
            AnalyticalCommitRequest(
                scan_ts, (), write_set=frozenset({7}), skip_check=True
            )
        )
        # sandboxed: OLTP conflict state untouched
        assert oracle.last_commit(7) is None

    def test_oltp_path_unchanged(self):
        # The AnalyticalOracle is still a plain WSI oracle for OLTP.
        oracle = AnalyticalOracle()
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(
            CommitRequest(t1, write_set=frozenset({"x"}))
        ).committed
        assert not oracle.commit(
            CommitRequest(t2, write_set=frozenset({"y"}),
                          read_set=frozenset({"x"}))
        ).committed

    def test_range_check_cost_scales_with_writes_not_range(self):
        # A huge range over an empty lastCommit costs nothing.
        oracle = AnalyticalOracle()
        scan_ts = oracle.begin()
        result = oracle.commit_analytical(
            AnalyticalCommitRequest(scan_ts, (RowRange(0, 10 ** 9),))
        )
        assert result.committed


class TestRangeIndexFollowsEveryWriter:
    """The range check must see a row whichever path wrote it into
    ``lastCommit``: a live decision (sequential or batched), a cold WAL
    replay, or a warm standby's tail catch-up — on either store."""

    @pytest.mark.parametrize("lastcommit", ["dict", "array"])
    @pytest.mark.parametrize(
        "writer", ["commit", "decide_batch", "recover_from", "wal-tail"]
    )
    def test_row_written_after_the_scan_started_aborts_it(
        self, writer, lastcommit
    ):
        wal = BookKeeperWAL()
        live = AnalyticalOracle(wal=wal, lastcommit=lastcommit)
        oltp_commit(live, writes={7})  # in range, before the reader
        reader = live.begin()
        # An earlier range check, so a stale index would be in place.
        probe = live.commit_analytical(
            AnalyticalCommitRequest(live.begin(), (RowRange(0, 10),))
        )
        assert probe.committed
        request = CommitRequest(live.begin(), write_set=frozenset({5}))
        if writer == "decide_batch":
            live.decide_batch([request])
        else:
            live.commit(request)
        wal.flush()

        oracle = live
        if writer == "recover_from":
            oracle = AnalyticalOracle(lastcommit=lastcommit)
            oracle.recover_from(wal)
        elif writer == "wal-tail":
            oracle = AnalyticalOracle(lastcommit=lastcommit)
            floor = 0
            for record in WALTail(wal).poll():
                floor = max(floor, oracle.apply_wal_record(record))
            oracle.seal_recovery(floor)

        result = oracle.commit_analytical(
            AnalyticalCommitRequest(reader, (RowRange(0, 10),))
        )
        assert not result.committed
        assert result.reason == "rw-conflict"
        assert result.conflict_row == RowRange(0, 10)
