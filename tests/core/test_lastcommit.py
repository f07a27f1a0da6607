"""The lastCommit stores: mapping parity, scans, resets, the factory,
and every store's rules against test-local references.

The array backend's whole claim is *representation change, zero
semantics change*: every test here drives the store and a plain dict
through the same operations and requires identical observable state.
``scan_conflict`` additionally must match the dict backend's scan
*accounting* — same first conflict row, same examined count — because
the decide loops fold both into pinned stats.

The sequential ``commit()`` and the batch loop call the same store
hooks, so comparing them cannot catch a wrong rule in a store.
``TestStoreRules`` therefore checks each store's ``scan`` / ``install``
/ replay against the paper's rules written out here, independently.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keyspace import KeyInterner
from repro.core.lastcommit import (
    ArrayLastCommit,
    BoundedArrayLastCommit,
    BoundedLastCommit,
    LASTCOMMIT_ENV,
    NUMPY_MIN_ROWS,
    default_lastcommit_kind,
    make_lastcommit,
    newer_rows,
    store_hooks,
)


def dict_scan(mapping, rows, start_ts):
    """The dict backend's faithful first-conflict scan + examined count."""
    examined = 0
    for row in rows:
        examined += 1
        last = mapping.get(row)
        if last is not None and last > start_ts:
            return row, examined
    return None, examined


def tmax_scan(mapping, tmax, rows, start_ts):
    """Algorithm 3, lines 1-11: the first-conflict scan, where a row
    missing from memory conflicts when ``tmax > start_ts``."""
    examined = 0
    for row in rows:
        examined += 1
        last = mapping.get(row)
        if last is None:
            if tmax > start_ts:
                return row, examined
        elif last > start_ts:
            return row, examined
    return None, examined


def lru_install(mapping, max_rows, tmax, rows, commit_ts):
    """Algorithm 3's install on an ``OrderedDict``: each row moves to
    the MRU end; past ``max_rows`` the LRU row is evicted and ``tmax``
    rises to its timestamp.  Returns the new ``tmax``."""
    for row in rows:
        mapping.pop(row, None)
        mapping[row] = commit_ts
        if len(mapping) > max_rows:
            _, evicted = mapping.popitem(last=False)
            tmax = max(tmax, evicted)
    return tmax


class TestMappingParity:
    def test_set_get_del_iter_len_match_dict(self):
        store, mirror = ArrayLastCommit(), {}
        for key, ts in [("a", 5), (3, 7), ("b", 2), ("a", 9), ((1, 2), 4)]:
            store[key] = ts
            mirror[key] = ts
        assert dict(store) == mirror
        assert len(store) == len(mirror)
        assert store == mirror and mirror == dict(store)
        assert store["a"] == 9 and store.get("zzz") is None
        del store["b"]
        del mirror["b"]
        assert dict(store) == mirror
        assert "b" not in store
        with pytest.raises(KeyError):
            store["b"]
        with pytest.raises(KeyError):
            del store["b"]

    def test_update_and_clear(self):
        store = ArrayLastCommit()
        store.update({1: 10, 2: 20})
        assert dict(store) == {1: 10, 2: 20}
        store.clear()
        assert dict(store) == {} and len(store) == 0
        # Slots survive a clear: re-install reuses the same ids.
        kid = store.interner.id_of(1)
        store[1] = 30
        assert store.interner.id_of(1) == kid

    def test_zero_and_negative_timestamps_rejected(self):
        store = ArrayLastCommit()
        with pytest.raises(ValueError):
            store["row"] = 0
        with pytest.raises(ValueError):
            store.install(["row"], -1)

    def test_deleted_key_keeps_its_slot(self):
        store = ArrayLastCommit()
        store["x"] = 3
        kid = store.interner.id_of("x")
        del store["x"]
        store["x"] = 8
        assert store.interner.id_of("x") == kid


class TestInstallAndScan:
    def test_install_matches_per_key_stores(self):
        store, mirror = ArrayLastCommit(), {}
        store.install(frozenset({"p", "q", "r"}), 11)
        mirror.update(dict.fromkeys({"p", "q", "r"}, 11))
        store.install(["q", "s"], 12)
        mirror.update(dict.fromkeys(["q", "s"], 12))
        assert dict(store) == mirror and len(store) == len(mirror)

    @pytest.mark.parametrize("rows_factory", [tuple, list, frozenset])
    def test_scan_matches_dict_scan(self, rows_factory):
        store, mirror = ArrayLastCommit(), {}
        for key in range(0, 40, 2):
            store[key] = key + 100
            mirror[key] = key + 100
        for start in (90, 105, 120, 200):
            rows = rows_factory(range(30))
            # frozenset scan order is the store's own iteration order --
            # compare against a dict_scan over the *same* row sequence.
            seq = tuple(rows)
            assert store.scan_conflict(seq, start) == dict_scan(
                mirror, seq, start
            )

    def test_scan_on_unseen_rows(self):
        store = ArrayLastCommit()
        assert store.scan_conflict((), 5) == (None, 0)
        assert store.scan_conflict(("never", "seen"), 5) == (None, 2)

    def test_scan_single_row(self):
        store = ArrayLastCommit()
        store["r"] = 10
        assert store.scan_conflict(("r",), 5) == ("r", 1)
        assert store.scan_conflict(("r",), 10) == (None, 1)
        assert store.scan_conflict(("other",), 5) == (None, 1)

    def test_vectorised_scan_matches_scalar_on_int_keys(self):
        # Above NUMPY_MIN_ROWS with a pure-int keyspace the scan takes
        # the int lane (when numpy is present); the verdict and count
        # must match the scalar reference bit-for-bit either way.
        store, mirror = ArrayLastCommit(), {}
        for key in range(0, 4 * NUMPY_MIN_ROWS, 2):
            store[key] = 50 + key
            mirror[key] = 50 + key
        assert store.interner.int_lane_ok
        for start in (40, 60, 100, 10_000):
            rows = tuple(range(3 * NUMPY_MIN_ROWS))
            assert store.scan_conflict(rows, start) == dict_scan(
                mirror, rows, start
            )

    def test_vectorised_scan_with_mixed_checked_keys(self):
        # Interned keys are all int (lane on) but the *checked* set
        # contains keys numpy cannot cast -- the scan must fall back and
        # still agree with the scalar reference.
        store, mirror = ArrayLastCommit(), {}
        for key in range(NUMPY_MIN_ROWS * 2):
            store[key] = 99
            mirror[key] = 99
        rows = tuple(range(NUMPY_MIN_ROWS)) + ("str-row",)
        for start in (50, 200):
            assert store.scan_conflict(rows, start) == dict_scan(
                mirror, rows, start
            )

    def test_float_checked_key_cannot_false_negative(self):
        # 2.5 truncates to 2 under a vector cast; the lane must not let
        # that report "no conflict" when the dict scan would conflict.
        store, mirror = ArrayLastCommit(), {}
        for key in range(NUMPY_MIN_ROWS * 2):
            store[key] = 10
            mirror[key] = 10
        store[2.5] = 1000  # non-int intern: kills the lane
        mirror[2.5] = 1000
        assert not store.interner.int_lane_ok
        rows = tuple(range(NUMPY_MIN_ROWS)) + (2.5,)
        assert store.scan_conflict(rows, 500) == dict_scan(mirror, rows, 500)


class TestBulkReset:
    def test_full_reset(self):
        store = ArrayLastCommit()
        store.install(range(10), 5)
        store.bulk_reset()
        assert dict(store) == {} and len(store) == 0
        assert len(store.interner) == 10  # interner survives

    def test_watermark_reset(self):
        store, mirror = ArrayLastCommit(), {}
        for key, ts in [("a", 3), ("b", 7), ("c", 5), ("d", 9)]:
            store[key] = ts
            mirror[key] = ts
        store.bulk_reset(watermark=5)
        survivors = {k: v for k, v in mirror.items() if v > 5}
        assert dict(store) == survivors and len(store) == len(survivors)


class TestBoundedArray:
    def test_lru_order_matches_ordereddict(self):
        store, mirror = BoundedArrayLastCommit(), OrderedDict()
        ops = [("a", 1), ("b", 2), ("c", 3), ("a", 4), ("d", 5)]
        for key, ts in ops:
            # The bounded oracle's rewrite idiom: pop-then-reinsert.
            if key in store:
                store.pop(key)
            if key in mirror:
                mirror.pop(key)
            store[key] = ts
            mirror[key] = ts
        assert list(store) == list(mirror)
        assert store.popitem(last=False) == mirror.popitem(last=False)
        assert store.popitem(last=True) == mirror.popitem(last=True)
        assert list(store) == list(mirror)
        assert dict(store) == dict(mirror)

    def test_popitem_empty(self):
        with pytest.raises(KeyError):
            BoundedArrayLastCommit().popitem()

    def test_eviction_keeps_slot_array(self):
        store = BoundedArrayLastCommit()
        for key in range(8):
            store[key] = key + 1
        while len(store) > 3:
            store.popitem(last=False)
        assert len(store) == 3
        assert store.slot_count() >= 8  # slots are never reclaimed
        assert dict(store) == {5: 6, 6: 7, 7: 8}


class TestFactory:
    def test_default_kind_env(self, monkeypatch):
        monkeypatch.delenv(LASTCOMMIT_ENV, raising=False)
        assert default_lastcommit_kind() == "dict"
        monkeypatch.setenv(LASTCOMMIT_ENV, "ARRAY")
        assert default_lastcommit_kind() == "array"

    def test_make_lastcommit_kinds(self, monkeypatch):
        monkeypatch.delenv(LASTCOMMIT_ENV, raising=False)
        assert isinstance(make_lastcommit(), dict)
        assert isinstance(make_lastcommit("dict", bounded=True), OrderedDict)
        assert type(make_lastcommit("array")) is ArrayLastCommit
        assert type(make_lastcommit("array", bounded=True)) is (
            BoundedArrayLastCommit
        )
        with pytest.raises(ValueError):
            make_lastcommit("mmap")

    def test_instance_passthrough_and_shared_interner(self):
        interner = KeyInterner()
        store = ArrayLastCommit(interner)
        assert make_lastcommit(store) is store
        assert store.interner is interner


MAX_ROWS = 4

#: name -> (store factory, max_rows or None for an unbounded store)
STORES = {
    "dict": (dict, None),
    "array": (ArrayLastCommit, None),
    "bounded-dict": (
        lambda: BoundedLastCommit(OrderedDict(), MAX_ROWS), MAX_ROWS
    ),
    "bounded-array": (
        lambda: BoundedLastCommit(BoundedArrayLastCommit(), MAX_ROWS),
        MAX_ROWS,
    ),
}

row_keys = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "c"]))
row_sets = st.tuples(
    st.lists(row_keys, max_size=6, unique=True),
    st.sampled_from([tuple, list, frozenset]),
).map(lambda drawn: drawn[1](drawn[0]))
operations = st.lists(
    st.tuples(
        st.sampled_from(["scan", "install", "replay"]),
        row_sets,
        st.integers(1, 30),
    ),
    max_size=25,
)


class TestStoreRules:
    """Each store against the rules above, operation by operation."""

    @pytest.mark.parametrize("name", sorted(STORES))
    @given(ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_store_follows_the_reference_rules(self, name, ops):
        factory, max_rows = STORES[name]
        store = factory()
        scan, install = store_hooks(store)
        ref, tmax = OrderedDict(), 0

        def ref_install(rows, ts):
            nonlocal tmax
            if max_rows is None:
                ref.update(dict.fromkeys(rows, ts))
            else:
                tmax = lru_install(ref, max_rows, tmax, rows, ts)

        def state():
            order = list(store.items()) if max_rows else sorted(
                store.items(), key=repr
            )
            return order, store.tmax if max_rows else 0

        for op, rows, ts in ops:
            if op == "scan":
                expected = (
                    dict_scan(ref, rows, ts)
                    if max_rows is None
                    else tmax_scan(ref, tmax, rows, ts)
                )
                assert scan(rows, ts) == expected
            elif op == "install":
                install(rows, ts)
                ref_install(rows, ts)
            else:
                floor = tmax if max_rows else 0
                expected = [row for row in rows if ts > ref.get(row, floor)]
                newer = newer_rows(store, rows, ts)
                assert newer == expected
                install(newer, ts)
                ref_install(expected, ts)
                # Re-applying the same record changes nothing.
                before = state()
                again = newer_rows(store, rows, ts)
                assert again == []
                install(again, ts)
                assert state() == before
            if max_rows is None:
                assert dict(store) == dict(ref)
            else:
                assert list(store.items()) == list(ref.items())
                assert store.tmax == tmax
            assert len(store) == len(ref)

    # Below NUMPY_MIN_ROWS the array scan is the scalar early-stop
    # probe: these pin its verdict and examined count on the cases a
    # gather got wrong or wasted work on.

    SHORT = NUMPY_MIN_ROWS - 1

    def test_short_scan_over_never_interned_rows(self):
        store, ref = ArrayLastCommit(), {}
        for key in range(0, 8, 2):
            store[key] = 20
            ref[key] = 20
        rows = ("unseen",) + tuple(range(self.SHORT - 1))
        assert len(rows) < NUMPY_MIN_ROWS
        for start in (10, 20):
            assert store.scan_conflict(rows, start) == dict_scan(
                ref, rows, start
            )
        fresh = ("x", "y", "z")
        assert store.scan_conflict(fresh, 1) == dict_scan(ref, fresh, 1)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_short_scan_conflict_position(self, where):
        rows = tuple(range(self.SHORT))
        hot = {"first": 0, "middle": self.SHORT // 2, "last": self.SHORT - 1}
        store, ref = ArrayLastCommit(), {}
        store.install(rows, 5)
        ref.update(dict.fromkeys(rows, 5))
        store[rows[hot[where]]] = 50
        ref[rows[hot[where]]] = 50
        for start in (4, 10, 50):
            assert store.scan_conflict(rows, start) == dict_scan(
                ref, rows, start
            )
        assert store.scan_conflict(rows, 10) == (
            rows[hot[where]], hot[where] + 1
        )

    def test_short_scan_slot_beyond_the_timestamp_array(self):
        # Two stores over one interner: rows interned through the other
        # store get slot ids past this store's (never grown) array, and
        # must read as absent.
        interner = KeyInterner()
        store, ref = ArrayLastCommit(interner), {}
        store.install(["a", "b"], 7)
        ref.update(dict.fromkeys(["a", "b"], 7))
        ArrayLastCommit(interner).install(["c", "d", "e"], 99)
        assert interner.id_of("e") >= store.slot_count()
        rows = ("c", "a", "e", "b", "d")
        for start in (3, 7, 100):
            assert store.scan_conflict(rows, start) == dict_scan(
                ref, rows, start
            )

