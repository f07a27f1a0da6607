"""The lastCommit stores: mapping parity, scans, the array store's
timestamp lane, the factory, and every store's rules against test-local
references.

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
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import lastcommit
from repro.core.lastcommit import (
    INT_LANE_BOUND,
    ArrayLastCommit,
    BoundedLastCommit,
    LASTCOMMIT_ENV,
    NUMPY_MIN_ROWS,
    default_lastcommit_kind,
    make_lastcommit,
    newer_rows,
    store_hooks,
)
from repro.core.status_oracle import CommitRequest, make_oracle


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
        store.install(range(NUMPY_MIN_ROWS), 5)  # wide: builds the lane
        assert store._lane
        store.clear()
        assert dict(store) == {} and len(store) == 0
        assert store._lane is None  # a clear drops the lane with the rows
        store[1] = 30
        assert dict(store) == {1: 30}

    def test_zero_and_negative_timestamps_rejected(self):
        store = ArrayLastCommit()
        with pytest.raises(ValueError):
            store["row"] = 0
        with pytest.raises(ValueError):
            store.install(["row"], -1)

    def test_deleted_row_reads_absent_in_a_wide_scan(self):
        # The deleted row keeps its lane cell (an over-report); the
        # rescan must still report what the dict store reports.
        store, mirror = ArrayLastCommit(), {}
        rows = tuple(range(NUMPY_MIN_ROWS))
        store.install(rows, 5)
        mirror.update(dict.fromkeys(rows, 5))
        store[7] = 50
        del store[7]
        del mirror[7]
        assert store.scan_conflict(rows, 10) == dict_scan(mirror, rows, 10)
        assert store.scan_conflict(rows, 10) == (None, len(rows))


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
        # the timestamp lane (when numpy is present); the verdict and count
        # must match the scalar reference bit-for-bit either way.
        store, mirror = ArrayLastCommit(), {}
        for key in range(0, 4 * NUMPY_MIN_ROWS, 2):
            store[key] = 50 + key
            mirror[key] = 50 + key
        for start in (40, 60, 100, 10_000):
            rows = tuple(range(3 * NUMPY_MIN_ROWS))
            assert store.scan_conflict(rows, start) == dict_scan(
                mirror, rows, start
            )
        assert store._lane  # the first wide scan built it, and it lives

    def test_vectorised_scan_with_mixed_checked_keys(self):
        # Stored keys are all int (lane on) but the *checked* set
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
        store.install(range(NUMPY_MIN_ROWS), 10)  # builds the lane
        store[2.5] = 1000  # a non-int key ends the lane
        mirror[2.5] = 1000
        assert store._lane is False
        rows = tuple(range(NUMPY_MIN_ROWS)) + (2.5,)
        assert store.scan_conflict(rows, 500) == dict_scan(mirror, rows, 500)


class TestLane:
    """The timestamp lane's rules: built lazily from the dict, written
    with every install, ended by a key it cannot hold, capped at
    ``INT_LANE_BOUND``."""

    WIDE = tuple(range(NUMPY_MIN_ROWS))

    def test_narrow_row_sets_build_no_lane(self):
        store = ArrayLastCommit()
        store.install(range(NUMPY_MIN_ROWS - 1), 4)
        store.scan_conflict(tuple(range(NUMPY_MIN_ROWS - 1)), 1)
        store[900] = 5
        assert store._lane is None

    @pytest.mark.parametrize("via", ["scan", "install"])
    def test_first_wide_row_set_builds_the_lane_from_the_dict(self, via):
        store = ArrayLastCommit()
        store.install([3, 40], 7)
        if via == "scan":
            store.scan_conflict(self.WIDE, 1)
        else:
            store.install(self.WIDE[5:] + (50, 51, 52, 53, 54), 8)
        lane = store._lane
        assert len(lane) > max(store)
        assert all(lane[key] == ts for key, ts in store.items())

    @pytest.mark.parametrize("key", ["row", True, 2.5, (1, 2)])
    def test_non_int_key_ends_the_lane_for_good(self, key):
        # bool would cast to 0/1 and alias real int keys; any other
        # type could cast onto some int cell.
        store = ArrayLastCommit()
        store.install(self.WIDE, 1)
        assert store._lane
        store[key] = 2
        assert store._lane is False
        store.install(self.WIDE, 3)  # later ints don't resurrect it
        assert store._lane is False

    def test_non_int_key_present_at_build_ends_the_lane(self):
        store = ArrayLastCommit()
        store["row"] = 1
        store.install(self.WIDE, 2)
        assert store._lane is False

    def test_negative_key_ends_the_lane(self):
        # numpy fancy indexing wraps negatives past the bounds guard, so
        # a stored negative key could be missed by the gather.
        store = ArrayLastCommit()
        store.install(self.WIDE, 1)
        store[-3] = 2
        assert store._lane is False
        fresh = ArrayLastCommit()
        fresh[-3] = 2
        fresh.install(self.WIDE, 3)
        assert fresh._lane is False

    def test_key_at_or_above_the_bound_is_unrecorded_and_lane_survives(self):
        store = ArrayLastCommit()
        store.install(self.WIDE, 1)
        store[INT_LANE_BOUND + 10] = 2
        store[INT_LANE_BOUND - 1] = 3
        lane = store._lane
        assert lane and len(lane) == INT_LANE_BOUND
        assert lane[INT_LANE_BOUND - 1] == 3
        assert store[INT_LANE_BOUND + 10] == 2

    def test_lane_growth_is_zero_filled(self):
        store = ArrayLastCommit()
        store.install(self.WIDE, 1)
        store[100] = 9
        lane = store._lane
        assert lane[100] == 9
        assert all(lane[i] == 0 for i in range(NUMPY_MIN_ROWS, 100))

    def test_row_above_the_bound_is_not_missed(self):
        # The lane must never cover a cell it does not record: a row in
        # [INT_LANE_BOUND, len(lane)) would gather as never written.
        store, mirror = ArrayLastCommit(), {}
        for ts, row in enumerate(
            (1_500_000, 1_600_000, INT_LANE_BOUND + 1000), start=1
        ):
            store[row] = 8 * ts
            mirror[row] = 8 * ts
        rows = (INT_LANE_BOUND + 1000,) + tuple(range(40))
        assert store.scan_conflict(rows, 5) == dict_scan(mirror, rows, 5)
        assert store.scan_conflict(rows, 5) == (INT_LANE_BOUND + 1000, 1)

    def test_oracle_aborts_on_a_row_above_the_bound(self):
        # WSI: the reader read a row written after its snapshot.
        hot = INT_LANE_BOUND + 1000
        outcomes = {}
        for kind in ("dict", "array"):
            oracle = make_oracle("wsi", lastcommit=kind)
            for row in (1_500_000, 1_600_000):
                oracle.commit(
                    CommitRequest(oracle.begin(), write_set=frozenset({row}))
                )
            reader = oracle.begin()
            oracle.commit(
                CommitRequest(oracle.begin(), write_set=frozenset({hot}))
            )
            result = oracle.commit(
                CommitRequest(
                    reader,
                    write_set=frozenset({7}),
                    read_set=frozenset({hot, *range(40)}),
                )
            )
            outcomes[kind] = (
                result.committed, result.reason, result.conflict_row
            )
        assert outcomes["array"] == outcomes["dict"] == (
            False, "rw-conflict", hot
        )


class TestFactory:
    def test_default_kind_env(self, monkeypatch):
        monkeypatch.delenv(LASTCOMMIT_ENV, raising=False)
        assert default_lastcommit_kind() == "dict"
        monkeypatch.setenv(LASTCOMMIT_ENV, "ARRAY")
        assert default_lastcommit_kind() == "array"

    def test_make_lastcommit_kinds(self, monkeypatch):
        monkeypatch.delenv(LASTCOMMIT_ENV, raising=False)
        assert isinstance(make_lastcommit(), dict)
        assert type(make_lastcommit("dict", bounded=True)) is OrderedDict
        assert type(make_lastcommit("array")) is ArrayLastCommit
        # Algorithm 3's scan reads no lane: both kinds bound one LRU.
        assert type(make_lastcommit("array", bounded=True)) is OrderedDict
        with pytest.raises(ValueError):
            make_lastcommit("mmap")
        with pytest.raises(ValueError):
            make_lastcommit("mmap", bounded=True)

    def test_instance_passthrough(self):
        store = ArrayLastCommit()
        assert make_lastcommit(store) is store


MAX_ROWS = 4

#: name -> (store factory, max_rows or None for an unbounded store)
STORES = {
    "dict": (dict, None),
    "array": (ArrayLastCommit, None),
    "bounded-dict": (
        lambda: BoundedLastCommit(OrderedDict(), MAX_ROWS), MAX_ROWS
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

    def test_short_scan_over_never_written_rows(self):
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

    def test_short_scan_never_builds_a_lane(self):
        store, ref = ArrayLastCommit(), {}
        store.install(range(self.SHORT), 5)
        ref.update(dict.fromkeys(range(self.SHORT), 5))
        rows = ("c", 3, "e", 700)
        for start in (3, 7):
            assert store.scan_conflict(rows, start) == dict_scan(
                ref, rows, start
            )
        assert store._lane is None


#: Keys per pool of the differential below: plain ints keep the lane
#: live; "bound" adds ints around ``INT_LANE_BOUND`` (the lane survives,
#: capped); "mixed" adds keys that end it or cast onto int cells.
LOW_INTS = st.integers(0, 47)
KEY_POOLS = {
    "int": LOW_INTS,
    "bound": st.one_of(
        LOW_INTS,
        st.sampled_from([
            INT_LANE_BOUND - 1, INT_LANE_BOUND, INT_LANE_BOUND + 1,
            1_500_000,
        ]),
    ),
    "mixed": st.one_of(
        LOW_INTS, st.sampled_from([-1, 2.5, 2.0, True, "a", (1, 2)])
    ),
}


@st.composite
def lane_ops(draw, pool):
    """Install / set / delete / clear / scan over one key pool; row
    sets run from empty to well past ``NUMPY_MIN_ROWS``, so the first
    wide row set often meets an already populated store."""
    keys = KEY_POOLS[pool]
    row_set = st.tuples(
        st.one_of(
            st.lists(keys, max_size=6, unique=True),
            st.lists(keys, min_size=NUMPY_MIN_ROWS, max_size=44, unique=True),
        ),
        st.sampled_from([tuple, list, frozenset]),
    ).map(lambda drawn: drawn[1](drawn[0]))
    op = st.one_of(
        st.tuples(st.just("install"), row_set, st.integers(1, 40)),
        st.tuples(st.just("scan"), row_set, st.integers(0, 40)),
        st.tuples(st.just("set"), keys, st.integers(1, 40)),
        st.tuples(st.just("delete"), keys, st.just(0)),
        st.tuples(st.just("clear"), st.just(()), st.just(0)),
    )
    return draw(st.lists(op, max_size=20))


class TestArrayStoreDifferential:
    """ArrayLastCommit against a plain dict, in both gather regimes."""

    @pytest.mark.parametrize("gather", ["numpy", "itemgetter"])
    @pytest.mark.parametrize("pool", sorted(KEY_POOLS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_array_store_equals_a_dict(self, gather, pool, data):
        if gather == "numpy":
            pytest.importorskip("numpy")
        ops = data.draw(lane_ops(pool))
        np_module = lastcommit._np if gather == "numpy" else None
        with mock.patch.object(lastcommit, "_np", np_module):
            store, ref = ArrayLastCommit(), {}
            for op, arg, ts in ops:
                if op == "install":
                    store.install(arg, ts)
                    ref.update(dict.fromkeys(arg, ts))
                elif op == "scan":
                    assert store.scan_conflict(arg, ts) == dict_scan(
                        ref, arg, ts
                    )
                elif op == "set":
                    store[arg] = ts
                    ref[arg] = ts
                elif op == "delete":
                    if arg in ref:
                        del store[arg]
                        del ref[arg]
                    else:
                        with pytest.raises(KeyError):
                            del store[arg]
                else:
                    store.clear()
                    ref.clear()
                assert dict(store) == ref and len(store) == len(ref)
                lane = store._lane
                if lane:
                    # Covers every recordable stored row, never below it.
                    assert len(lane) <= INT_LANE_BOUND
                    for row, last in ref.items():
                        assert row.__class__ is int and row >= 0
                        if row < INT_LANE_BOUND:
                            assert lane[row] >= last
