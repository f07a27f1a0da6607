"""Property tests for the substrates: store, regions, TSO, WAL, snapshot."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commit_table import ClientCommitView, CommitTable
from repro.core.timestamps import TimestampOracle
from repro.hbase.cluster import HBaseCluster
from repro.mvcc.region import RegionMap
from repro.mvcc.snapshot import SnapshotReader
from repro.mvcc.store import MVCCStore
from repro.mvcc.version import TOMBSTONE
from repro.wal.bookkeeper import BookKeeperWAL


# ----------------------------------------------------------------------
# MVCCStore: model-based against a plain dict
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete_version"]),
            st.integers(min_value=0, max_value=5),   # row
            st.integers(min_value=1, max_value=20),  # ts
        ),
        max_size=60,
    ),
    query_ts=st.integers(min_value=0, max_value=25),
)
@settings(max_examples=200, deadline=None)
def test_store_matches_dict_model(ops, query_ts):
    store = MVCCStore()
    model: dict = {}
    for op, row, ts in ops:
        if op == "put":
            store.put(row, ts, (row, ts))
            model.setdefault(row, {})[ts] = (row, ts)
        else:
            store.delete_version(row, ts)
            model.get(row, {}).pop(ts, None)
    for row in range(6):
        got = [(v.timestamp, v.value) for v in store.get_versions(row, query_ts)]
        expected = sorted(
            ((ts, val) for ts, val in model.get(row, {}).items() if ts <= query_ts),
            reverse=True,
        )
        assert got == expected


@given(
    timestamps=st.lists(
        st.integers(min_value=1, max_value=100), min_size=1, max_size=30
    ),
    boundary=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_compaction_preserves_reads_at_boundary(timestamps, boundary):
    store = MVCCStore()
    for ts in timestamps:
        store.put("r", ts, ts)
    before = [(v.timestamp, v.value) for v in store.get_versions("r", boundary)][:1]
    store.compact("r", keep_after=boundary)
    after = [(v.timestamp, v.value) for v in store.get_versions("r", boundary)][:1]
    assert before == after  # the visible version at the boundary survives


# ----------------------------------------------------------------------
# RegionMap: tiling invariant + routing consistency under random splits
# ----------------------------------------------------------------------
@given(
    splits=st.lists(st.integers(min_value=-50, max_value=50), max_size=40),
    probes=st.lists(st.integers(min_value=-60, max_value=60), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_region_map_tiles_keyspace(splits, probes):
    rmap = RegionMap(num_servers=3)
    for key in splits:
        rmap.split(key)
    rmap.check_invariants()
    for key in probes:
        region = rmap.region_for(key)
        assert region.contains(key)


# ----------------------------------------------------------------------
# TimestampOracle: monotonic through arbitrary crash points
# ----------------------------------------------------------------------
@given(
    segments=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    batch=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_tso_monotonic_across_crashes(segments, batch):
    marks = []
    tso = TimestampOracle(reservation_batch=batch, wal_append=marks.append)
    issued = []
    for count in segments:
        for _ in range(count):
            issued.append(tso.next())
        # crash + recover from the last persisted mark
        tso = TimestampOracle.recover(
            marks[-1], reservation_batch=batch, wal_append=marks.append
        )
    assert issued == sorted(set(issued))  # strictly increasing, no dupes


# ----------------------------------------------------------------------
# WAL: replay is a prefix-closed, order-preserving record of appends
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=600), max_size=50),
    final_flush=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_wal_replay_order_and_prefix(sizes, final_flush):
    wal = BookKeeperWAL()
    for i, size in enumerate(sizes):
        wal.append("commit", i, size=size)
    if final_flush:
        wal.flush()
    replayed = [r.payload for r in wal.replay()]
    assert replayed == list(range(len(replayed)))  # order, prefix
    if final_flush:
        assert len(replayed) == len(sizes)


# ----------------------------------------------------------------------
# SnapshotReader: never returns uncommitted/aborted/future data
# ----------------------------------------------------------------------
@given(
    writers=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=40),  # start ts
            st.sampled_from(["committed", "aborted", "running"]),
        ),
        max_size=15,
    ),
    snapshot_ts=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_snapshot_reader_visibility_contract(writers, snapshot_ts):
    store = MVCCStore()
    commits = CommitTable()
    next_commit = 100
    status = {}
    for start, state in writers:
        if start in status:
            continue  # duplicate start ts not meaningful
        store.put("row", start, (start, state))
        status[start] = state
        if state == "committed":
            commits.record_commit(start, next_commit)
            next_commit += 1
        elif state == "aborted":
            commits.record_abort(start)
    reader = SnapshotReader(store, commits)
    version = reader.read("row", snapshot_ts)
    if version is not None:
        start, state = version.value
        assert state == "committed"
        assert commits.commit_timestamp(start) < snapshot_ts


# ----------------------------------------------------------------------
# SnapshotReader: the one kernel == the rule it replaced
# ----------------------------------------------------------------------
def reference_read(store, commits, row, snapshot_ts, own_start_ts):
    """§2.2's skip rule as it was written before the kernel, kept here as
    the reference: ``get_versions`` newest-first, ``is_aborted``, then
    ``commit_timestamp``, then ``commit_ts < snapshot_ts``; a version at
    ``own_start_ts`` is always visible.  -> (version | None, skipped)."""
    skipped = 0
    for version in store.get_versions(row, max_timestamp=snapshot_ts):
        if own_start_ts is not None and version.timestamp == own_start_ts:
            return version, skipped
        if not commits.is_aborted(version.timestamp):  # rule (ii)
            commit_ts = commits.commit_timestamp(version.timestamp)
            if commit_ts is not None and commit_ts < snapshot_ts:  # (i), (iii)
                return version, skipped
        skipped += 1
    return None, skipped


REFERENCE_ROWS = range(6)  # row 5 is never written: the missing row
_fates = st.one_of(
    st.tuples(st.just("committed"), st.integers(min_value=1, max_value=10)),
    st.tuples(st.just("aborted"), st.none()),
    st.tuples(st.just("running"), st.none()),
)
_row_writes = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.booleans(), max_size=5
)  # row -> wrote a tombstone?


@pytest.mark.parametrize(
    "make_store",
    [
        MVCCStore,
        lambda: HBaseCluster.for_integer_keyspace(
            num_rows=6, num_servers=3, regions_per_server=1,
            cache_blocks_per_server=2,
        ),
    ],
    ids=["mvcc-store", "hbase-cluster"],
)
@given(
    writers=st.dictionaries(
        st.integers(min_value=1, max_value=20),  # start ts
        st.tuples(_fates, _row_writes),
        max_size=12,
    ),
    # Small ranges on purpose: commit_ts == snapshot_ts must come up.
    snapshot_ts=st.integers(min_value=0, max_value=32),
    own_start_ts=st.none() | st.integers(min_value=1, max_value=20),
    replicated=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_snapshot_kernel_matches_reference_rule(
    make_store, writers, snapshot_ts, own_start_ts, replicated
):
    store = make_store()
    table = CommitTable()
    attached = ClientCommitView(table)
    stream = []
    table.subscribe(lambda *record: stream.append(record))
    for start_ts, ((fate, delta), rows) in writers.items():
        if start_ts == own_start_ts:
            fate = "running"  # the reader's own, uncommitted, writes
        for row, tombstone in rows.items():
            store.put(row, start_ts, TOMBSTONE if tombstone else (row, start_ts))
        if fate == "committed":
            table.record_commit(start_ts, start_ts + delta)
        elif fate == "aborted":
            table.record_abort(start_ts)
    lagging = ClientCommitView()  # detached: saw only a prefix of the stream
    for record in stream[:replicated]:
        lagging.apply(*record)
    count_gets = getattr(store, "total_gets", None)

    for commits in (table, attached, lagging):
        reader = SnapshotReader(store, commits)
        for row in REFERENCE_ROWS:
            expected, skipped = reference_read(
                store, commits, row, snapshot_ts, own_start_ts
            )
            gets_before = count_gets() if count_gets else 0
            assert reader.read(row, snapshot_ts, own_start_ts) == expected
            assert reader.read_with_provenance(row, snapshot_ts, own_start_ts) == (
                expected, skipped
            )
            value = reader.read_value(row, snapshot_ts, own_start_ts, default="absent")
            if count_gets:  # the `history` accounting: one get per read
                assert count_gets() == gets_before + 3
            if expected is None or expected.is_tombstone:
                assert value == "absent"
                assert reader.read_value(row, snapshot_ts, own_start_ts) is None
            else:
                assert value == expected.value
