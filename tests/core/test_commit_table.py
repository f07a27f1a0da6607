"""Unit tests for the commit table and its client replicas."""

import pytest

from repro.core.commit_table import ClientCommitView, CommitTable


class TestCommitTable:
    def test_commit_lookup(self):
        table = CommitTable()
        table.record_commit(5, 9)
        assert table.commit_timestamp(5) == 9
        assert table.is_committed(5)
        assert not table.is_aborted(5)

    def test_unknown_txn(self):
        table = CommitTable()
        assert table.commit_timestamp(7) is None
        assert not table.is_committed(7)
        assert not table.is_aborted(7)

    def test_abort_lookup(self):
        table = CommitTable()
        table.record_abort(5)
        assert table.is_aborted(5)
        assert table.commit_timestamp(5) is None

    def test_commit_after_abort_rejected(self):
        table = CommitTable()
        table.record_abort(5)
        with pytest.raises(ValueError):
            table.record_commit(5, 9)

    def test_abort_after_commit_rejected(self):
        table = CommitTable()
        table.record_commit(5, 9)
        with pytest.raises(ValueError):
            table.record_abort(5)

    def test_commit_ts_must_exceed_start(self):
        table = CommitTable()
        with pytest.raises(ValueError):
            table.record_commit(5, 5)
        with pytest.raises(ValueError):
            table.record_commit(5, 3)

    def test_counts(self):
        table = CommitTable()
        table.record_commit(1, 2)
        table.record_commit(3, 4)
        table.record_abort(5)
        assert table.commit_count == 2
        assert table.abort_count == 1


class TestReplication:
    def test_attached_view_follows_updates(self):
        table = CommitTable()
        view = ClientCommitView(table)
        table.record_commit(1, 2)
        table.record_abort(3)
        assert view.commit_timestamp(1) == 2
        assert view.is_aborted(3)

    def test_late_join_bootstraps_existing_state(self):
        table = CommitTable()
        table.record_commit(1, 2)
        table.record_abort(3)
        view = ClientCommitView(table)
        assert view.commit_timestamp(1) == 2
        assert view.is_aborted(3)
        assert view.size == 2

    def test_multiple_replicas(self):
        table = CommitTable()
        views = [ClientCommitView(table) for _ in range(3)]
        table.record_commit(10, 11)
        assert all(v.commit_timestamp(10) == 11 for v in views)

    def test_detached_view_fed_manually(self):
        view = ClientCommitView()
        view.apply("commit", 1, 2)
        view.apply("abort", 3, None)
        assert view.commit_timestamp(1) == 2
        assert view.is_aborted(3)

    def test_detached_view_models_replication_lag(self):
        # A lagging replica simply doesn't know about a commit yet:
        # the reader will skip that version (safe under SI/WSI).
        table = CommitTable()
        lagging = ClientCommitView()
        table.record_commit(1, 2)
        assert lagging.commit_timestamp(1) is None

    def test_unknown_record_kind_rejected(self):
        view = ClientCommitView()
        with pytest.raises(ValueError):
            view.apply("merge", 1, 2)


def _authoritative():
    table = CommitTable()
    return table, table


def _attached_view():
    table = CommitTable()
    return table, ClientCommitView(table)


class _ManualFeed:
    """Feeds a detached view the records a commit table would publish."""

    def __init__(self, view):
        self._view = view

    def record_commit(self, start_ts, commit_ts):
        self._view.apply("commit", start_ts, commit_ts)

    def record_abort(self, start_ts):
        self._view.apply("abort", start_ts, None)


def _detached_view():
    view = ClientCommitView()
    return _ManualFeed(view), view


@pytest.mark.parametrize(
    "build", [_authoritative, _attached_view, _detached_view],
    ids=["table", "attached-view", "detached-view"],
)
class TestReaderContract:
    """What the snapshot-read kernel relies on: ``commit_timestamp`` alone
    tells it whether a version is readable, so it never asks
    ``is_aborted`` (:mod:`repro.mvcc.snapshot`)."""

    def test_aborted_has_no_commit_timestamp(self, build):
        feed, source = build()
        feed.record_abort(5)
        assert source.is_aborted(5)
        assert source.commit_timestamp(5) is None

    def test_running_has_no_commit_timestamp(self, build):
        feed, source = build()
        feed.record_commit(1, 2)
        assert source.commit_timestamp(7) is None
        assert not source.is_aborted(7)

    def test_a_held_probe_follows_later_updates(self, build):
        # commit_timestamp is bound once, to a mapping that is only ever
        # mutated in place: a probe taken early must see later commits.
        feed, source = build()
        probe = source.commit_timestamp
        assert probe(5) is None
        feed.record_commit(5, 9)
        feed.record_abort(6)
        assert (probe(5), probe(6)) == (9, None)


class TestExclusionSurvivesRejection:
    """Commit and abort stay mutually exclusive per transaction (the two
    ``*_rejected`` tests above), and a rejected call changes nothing."""

    def test_rejected_commit_leaves_the_abort(self):
        table = CommitTable()
        view = ClientCommitView(table)
        table.record_abort(5)
        with pytest.raises(ValueError):
            table.record_commit(5, 9)
        for source in (table, view):
            assert source.is_aborted(5)
            assert source.commit_timestamp(5) is None

    def test_rejected_abort_leaves_the_commit(self):
        table = CommitTable()
        view = ClientCommitView(table)
        table.record_commit(5, 9)
        with pytest.raises(ValueError):
            table.record_abort(5)
        for source in (table, view):
            assert not source.is_aborted(5)
            assert source.commit_timestamp(5) == 9
