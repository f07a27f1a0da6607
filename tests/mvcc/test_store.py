"""Unit tests for the multi-version store."""

import pytest

from repro.mvcc.store import MVCCStore
from repro.mvcc.version import TOMBSTONE, Version


class TestPutGet:
    def test_put_and_get_exact(self):
        store = MVCCStore()
        store.put("row", 5, "value")
        version = store.get_exact("row", 5)
        assert version == Version(5, "value")

    def test_get_exact_missing(self):
        store = MVCCStore()
        assert store.get_exact("row", 5) is None
        store.put("row", 5, "x")
        assert store.get_exact("row", 6) is None

    def test_put_same_timestamp_overwrites(self):
        store = MVCCStore()
        store.put("row", 5, "first")
        store.put("row", 5, "second")
        assert store.get_exact("row", 5).value == "second"
        assert store.version_count == 1

    def test_out_of_order_puts_are_sorted(self):
        store = MVCCStore()
        store.put("row", 10, "c")
        store.put("row", 5, "a")
        store.put("row", 7, "b")
        versions = list(store.get_versions("row"))
        assert [v.timestamp for v in versions] == [10, 7, 5]


    def test_out_of_order_then_newest(self):
        # Every arm of put on one row: new row, append (newer than the
        # last version), insert below, overwrite in the middle, append.
        store = MVCCStore()
        for ts, value in ((10, "c"), (20, "e"), (5, "a"), (10, "C"), (30, "f")):
            store.put("row", ts, value)
        assert store.history("row") == ([5, 10, 20, 30], ["a", "C", "e", "f"])
        assert store.put_count == 5
        assert store.version_count == 4

    def test_history_is_the_bulk_form_of_get_versions(self):
        store = MVCCStore()
        assert store.history("row") is None
        for ts in (7, 3, 9):
            store.put("row", ts, ts * 10)
        timestamps, values = store.history("row")
        assert timestamps == sorted(timestamps)
        assert list(zip(timestamps, values))[::-1] == [
            (v.timestamp, v.value) for v in store.get_versions("row")
        ]
        store.delete_version("row", 7)
        assert store.history("row") == ([3, 9], [30, 90])


class TestVersionScan:
    def test_newest_first_below_bound(self):
        store = MVCCStore()
        for ts in (1, 3, 5, 7):
            store.put("r", ts, ts * 10)
        versions = list(store.get_versions("r", max_timestamp=5))
        assert [v.timestamp for v in versions] == [5, 3, 1]

    def test_bound_is_inclusive(self):
        store = MVCCStore()
        store.put("r", 5, "x")
        assert [v.timestamp for v in store.get_versions("r", 5)] == [5]

    def test_no_bound_returns_all(self):
        store = MVCCStore()
        for ts in range(1, 6):
            store.put("r", ts, ts)
        assert len(list(store.get_versions("r"))) == 5

    def test_missing_row_yields_nothing(self):
        store = MVCCStore()
        assert list(store.get_versions("nope")) == []

    def test_latest(self):
        store = MVCCStore()
        store.put("r", 1, "old")
        store.put("r", 9, "new")
        assert store.latest("r") == Version(9, "new")
        assert store.latest("other") is None


class TestDeletes:
    def test_tombstone_delete(self):
        store = MVCCStore()
        store.put("r", 1, "alive")
        store.delete("r", 5)
        versions = list(store.get_versions("r"))
        assert versions[0].is_tombstone
        assert versions[1].value == "alive"

    def test_delete_version_physical(self):
        store = MVCCStore()
        store.put("r", 1, "a")
        store.put("r", 2, "b")
        assert store.delete_version("r", 1)
        assert [v.timestamp for v in store.get_versions("r")] == [2]

    def test_delete_version_missing(self):
        store = MVCCStore()
        assert not store.delete_version("r", 1)
        store.put("r", 2, "x")
        assert not store.delete_version("r", 1)

    def test_delete_last_version_removes_row(self):
        store = MVCCStore()
        store.put("r", 1, "x")
        store.delete_version("r", 1)
        assert "r" not in store
        assert store.row_count == 0


class TestScans:
    def test_scan_rows(self):
        store = MVCCStore()
        for row in ("a", "b", "c"):
            store.put(row, 1, row)
        assert sorted(store.scan_rows()) == ["a", "b", "c"]

    def test_scan_range(self):
        store = MVCCStore()
        for row in (1, 3, 5, 7, 9):
            store.put(row, 1, row)
        assert list(store.scan_range(3, 8)) == [3, 5, 7]

    def test_scan_range_sorted_whatever_the_insertion_order(self):
        store = MVCCStore()
        for row in (9, 1, 7, 3, 5):
            store.put(row, 1, row)
        assert list(store.scan_range(1, 9)) == [1, 3, 5, 7]
        assert list(store.scan_range(0, 100)) == [1, 3, 5, 7, 9]

    def test_scan_range_empty(self):
        store = MVCCStore()
        store.put(1, 1, "x")
        assert list(store.scan_range(5, 9)) == []


class TestCompaction:
    def test_compact_keeps_visible_boundary_version(self):
        store = MVCCStore()
        for ts in (1, 3, 5, 7):
            store.put("r", ts, ts)
        removed = store.compact("r", keep_after=5)
        assert removed == 2  # versions 1 and 3 dropped
        # version 5 kept: a snapshot read at 6 still sees value 5
        remaining = [v.timestamp for v in store.get_versions("r")]
        assert remaining == [7, 5]

    def test_compact_noop_when_nothing_older(self):
        store = MVCCStore()
        store.put("r", 5, "x")
        assert store.compact("r", keep_after=5) == 0
        assert store.compact("missing", keep_after=5) == 0


class TestStatsAndBulk:
    def test_counters(self):
        store = MVCCStore()
        store.put("a", 1, "x")
        store.put("a", 2, "y")
        store.put("b", 1, "z")
        assert store.row_count == 2
        assert store.version_count == 3
        assert store.put_count == 3
        assert len(store) == 2

    def test_bulk_load(self):
        store = MVCCStore()
        store.load((f"row{i}", 1, i) for i in range(100))
        assert store.row_count == 100
        assert store.get_exact("row42", 1).value == 42
