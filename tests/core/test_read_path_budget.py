"""Frame budget of a transactional snapshot read.

A snapshot read is one ``dict`` probe, one ``bisect`` and one commit-table
probe per version examined; what it costs in CPython is the Python frames
wrapped around those.  PR 15 collapsed the path to ``Transaction.read`` ->
``SnapshotReader.read_value`` -> the kernel -> ``store.history`` and this
suite pins that, so the layers cannot creep back: the count must not
depend on how many versions the read wades through, no ``Version`` is
built for a value-only read and no generator is resumed.

A frame census is every ``call`` event ``sys.setprofile`` reports while
one ``txn.read`` runs (C functions report ``c_call`` and are not frames).
(Self-contained on purpose: the file runs unchanged against the parent
commit, where it fails at 11 frames + 5 per further version examined.)
"""

import inspect
import gc
import sys

import pytest

from repro.core.isolation import create_system
from repro.mvcc import version as version_module

FRAME_BUDGET = 4


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
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, entered


def assert_lean(entered, budget):
    names = [code.co_qualname for code in entered]
    assert len(entered) <= budget, names
    assert not [c for c in entered if c.co_flags & inspect.CO_GENERATOR], names
    assert not [c for c in entered if c.co_filename == version_module.__file__], names


@pytest.fixture
def system():
    system = create_system("wsi")
    with system.manager.begin() as txn:
        txn.write("row", "committed")
    return system


def test_committed_row_one_version_examined(system):
    txn = system.manager.begin()
    value, entered = frames_entered(txn.read, "row")
    assert value == "committed"
    assert "row" in txn.read_set  # a tracked read
    assert_lean(entered, FRAME_BUDGET)


def test_budget_does_not_grow_with_versions_examined(system):
    manager = system.manager
    # An aborted writer whose version was never cleaned up, then three
    # writers still running: four versions on top of the readable one.
    aborted = manager.begin()
    aborted.write("row", "aborted")
    system.oracle.abort(aborted.start_ts)
    for i in range(3):
        manager.begin().write("row", f"running-{i}")
    reader = manager.begin()
    _, skipped = manager.reader.read_with_provenance("row", reader.start_ts)
    assert skipped == 4  # so the read below examines five versions

    value, entered = frames_entered(reader.read, "row")
    assert value == "committed"
    assert_lean(entered, FRAME_BUDGET)


def test_own_write_is_one_frame(system):
    txn = system.manager.begin()
    txn.write("row", "mine")
    value, entered = frames_entered(txn.read, "row")
    assert value == "mine"
    assert_lean(entered, 1)


def test_missing_row(system):
    txn = system.manager.begin()
    value, entered = frames_entered(txn.read, "no such row", "default")
    assert value == "default"
    assert_lean(entered, FRAME_BUDGET)
