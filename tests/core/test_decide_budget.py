"""Cost pins of the batch decide kernel and the WAL-apply kernel.

``StatusOracle._decide_batch`` is the one batch loop for every
``lastCommit`` store: it keeps the per-decision bookkeeping inline and
calls the store's two hooks, ``scan`` and ``install``.  So a decision
enters at most those two Python frames, on the default ``dict`` store
and on the array store alike, however many rows its footprint has — a
per-row frame (a mapping ``get`` / ``__setitem__`` on the array store)
would multiply the count, on warmed rows and never-written ones alike.

The default store stays an exact ``dict`` of int timestamps, which the
cyclic collector does not track; a tracked store is walked entry by
entry by every full collection.  And replaying a group-commit record on
it runs the inlined apply kernel, never the per-commit ``_replay_rows``.

A frame census is every ``call`` event ``sys.setprofile`` reports while
the kernel runs (C functions report ``c_call`` and are not frames).
"""

import gc
import sys

import pytest

from repro.core.status_oracle import CommitRequest, make_oracle
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL

#: Python frames one decision may enter: the store's scan and install.
FRAMES_PER_DECISION = 2
#: Frames a batch may enter once, whatever its size: resolving the
#: store's hooks and renewing a timestamp reservation.
FRAMES_PER_BATCH = 3
DECISIONS = 24


def frames_entered(fn, *args):
    """Code objects of the Python frames entered while ``fn(*args)`` runs."""
    entered = []

    def profiler(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    # A collection inside the window would add the frames of whatever
    # gc.callbacks are installed (hypothesis installs one): hold it off.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return entered


def warmed_oracle(lastcommit, rows):
    """A WSI oracle whose store already holds every row, all written at
    a timestamp below the batch's starts."""
    oracle = make_oracle("wsi", lastcommit=lastcommit)
    oracle.commit(CommitRequest(oracle.begin(), write_set=frozenset(rows)))
    return oracle


@pytest.mark.parametrize("lastcommit", ["dict", "array"])
@pytest.mark.parametrize("footprint", [1, 8, 64])
def test_decision_enters_at_most_scan_and_install(lastcommit, footprint):
    rows = range(footprint * DECISIONS)
    oracle = warmed_oracle(lastcommit, rows)
    written = oracle.begin()
    # Half the batch reads a row written after it started (an abort),
    # half commits; each footprint has ``footprint`` read and write rows.
    oracle.commit(CommitRequest(written, write_set=frozenset({0})))
    batch = []
    for i in range(DECISIONS):
        own = frozenset(range(i * footprint, (i + 1) * footprint))
        start = oracle.begin() if i % 2 else written - 1
        reads = own | {0} if not i % 2 else own - {0}
        batch.append(CommitRequest(start, write_set=own, read_set=reads))
    commits, aborts, errors = [], [], []
    entered = frames_entered(oracle._decide_batch, batch, commits, aborts, errors)
    assert not errors
    assert len(commits) == DECISIONS // 2 and len(aborts) == DECISIONS // 2
    own = [c for c in entered if c.co_name != "_decide_batch"]
    names = sorted({c.co_qualname for c in own})
    assert len(own) <= FRAMES_PER_DECISION * DECISIONS + FRAMES_PER_BATCH, names


@pytest.mark.parametrize("footprint", [1, 8, 64])
def test_never_written_rows_on_the_array_store(footprint):
    # Every row the batch reads or writes is new to the store.  One
    # earlier commit on another row resolves the store's hooks; the
    # first wide row set builds the array store's lane once.
    oracle = make_oracle("wsi", lastcommit="array")
    fresh = footprint * DECISIONS
    oracle.commit(CommitRequest(oracle.begin(), write_set=frozenset({fresh})))
    batch = []
    for i in range(DECISIONS):
        own = frozenset(range(i * footprint, (i + 1) * footprint))
        batch.append(
            CommitRequest(oracle.begin(), write_set=own, read_set=own)
        )
    commits, aborts, errors = [], [], []
    entered = frames_entered(oracle._decide_batch, batch, commits, aborts, errors)
    assert not errors
    assert len(commits) == DECISIONS and not aborts
    own = [c for c in entered if c.co_name != "_decide_batch"]
    names = sorted({c.co_qualname for c in own})
    assert len(own) <= FRAMES_PER_DECISION * DECISIONS + FRAMES_PER_BATCH, names
    store = oracle._last_commit
    assert len(store) == fresh + 1
    assert store._d.__class__ is dict and not gc.is_tracked(store._d)


def test_default_store_stays_untracked_after_a_batch():
    oracle = make_oracle("wsi", lastcommit="dict")
    batch = []
    for i in range(64):
        start = oracle.begin()
        batch.append(
            CommitRequest(
                start,
                write_set=frozenset({i, f"row-{i}"}),
                read_set=frozenset({i + 1}),
            )
        )
    oracle.decide_batch(batch)
    assert oracle.stats.commits == 64
    assert oracle._last_commit.__class__ is dict
    assert not gc.is_tracked(oracle._last_commit)


def test_group_record_replay_enters_no_replay_rows_frame():
    wal = BookKeeperWAL()
    live = make_oracle("wsi", lastcommit="dict", wal=wal)
    batch = [
        CommitRequest(live.begin(), write_set=frozenset(range(i, i + 16)))
        for i in range(0, 320, 16)
    ]
    live.decide_batch(batch + [live.begin()])
    wal.flush()
    records = [r for r in wal.replay() if r.kind == GROUP_COMMIT_RECORD]
    assert len(records) == 1

    fresh = make_oracle("wsi", lastcommit="dict")
    entered = frames_entered(fresh.apply_wal_record, records[0])
    names = [c.co_qualname for c in entered]
    assert not [n for n in names if n.endswith("_replay_rows")], names
    assert len(entered) <= 2, names  # apply_wal_record + the kernel
    assert dict(fresh._last_commit) == dict(live._last_commit)
