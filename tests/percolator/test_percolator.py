"""Unit tests for the Percolator-style lock-based SI baseline (§2.1)."""

import pytest

from repro.core.errors import ConflictAbort, InvalidTransactionState, LockConflict
from repro.percolator import (
    LockPolicy,
    PercolatorStore,
    PercolatorTransactionManager,
)
from repro.percolator.percolator import PercoState


@pytest.fixture
def manager():
    return PercolatorTransactionManager()


class TestBasicTransactions:
    def test_write_commit_read(self, manager):
        t1 = manager.begin()
        t1.write("x", 42)
        t1.commit()
        t2 = manager.begin()
        assert t2.read("x") == 42

    def test_own_buffered_write_visible(self, manager):
        txn = manager.begin()
        txn.write("x", "buffered")
        assert txn.read("x") == "buffered"

    def test_uncommitted_invisible_to_others(self, manager):
        t1 = manager.begin()
        t1.write("x", "dirty")
        t1.prewrite(primary="x")
        t2 = manager.begin()
        # x is locked by an active txn; resolution leaves the lock, and
        # the snapshot shows no committed version.
        assert t2.read("x") is None

    def test_snapshot_read_ignores_later_commits(self, manager):
        t0 = manager.begin()
        t0.write("x", "old")
        t0.commit()
        reader = manager.begin()
        writer = manager.begin()
        writer.write("x", "new")
        writer.commit()
        assert reader.read("x") == "old"

    def test_read_only_commits_trivially(self, manager):
        txn = manager.begin()
        txn.read("x")
        assert txn.commit() == txn.start_ts
        assert txn.state is PercoState.COMMITTED

    def test_delete(self, manager):
        t1 = manager.begin()
        t1.write("x", 1)
        t1.commit()
        t2 = manager.begin()
        t2.delete("x")
        t2.commit()
        assert manager.begin().read("x") is None


class TestWriteWriteConflicts:
    def test_percolator_is_snapshot_isolation(self, manager):
        """Two concurrent writers of the same row: one aborts."""
        t1, t2 = manager.begin(), manager.begin()
        t1.write("x", "t1")
        t2.write("x", "t2")
        t1.commit()
        with pytest.raises(ConflictAbort) as exc:
            t2.commit()
        assert exc.value.reason == "ww-conflict"

    def test_write_skew_allowed(self, manager):
        """Percolator provides SI, not serializability: H2 commits."""
        t1, t2 = manager.begin(), manager.begin()
        assert t1.read("x") is None and t1.read("y") is None
        assert t2.read("x") is None and t2.read("y") is None
        t1.write("x", 0)
        t2.write("y", 0)
        t1.commit()
        t2.commit()  # no exception: write skew admitted

    def test_serial_writers_fine(self, manager):
        t1 = manager.begin()
        t1.write("x", 1)
        t1.commit()
        t2 = manager.begin()
        t2.write("x", 2)
        t2.commit()
        assert manager.begin().read("x") == 2


class TestLockPolicies:
    def test_abort_self_on_lock(self, manager):
        t1 = manager.begin(lock_policy=LockPolicy.ABORT_SELF)
        t2 = manager.begin(lock_policy=LockPolicy.ABORT_SELF)
        t1.write("x", 1)
        t1.prewrite(primary="x")  # holds the lock
        t2.write("x", 2)
        with pytest.raises(ConflictAbort) as exc:
            t2.commit()
        assert exc.value.reason == "lock-held"
        # t1 is still fine
        t1.finalize(primary="x")
        assert t1.state is PercoState.COMMITTED

    def test_force_abort_holder(self, manager):
        t1 = manager.begin()
        t2 = manager.begin(lock_policy=LockPolicy.FORCE_ABORT_HOLDER)
        t1.write("x", 1)
        t1.prewrite(primary="x")
        t2.write("x", 2)
        t2.commit()  # forcefully clears t1's locks and wins
        with pytest.raises(ConflictAbort):
            t1.finalize(primary="x")  # t1 discovers it was killed
        assert manager.begin().read("x") == 2

    def test_wait_policy_times_out_on_active_holder(self, manager):
        t1 = manager.begin()
        t2 = manager.begin(lock_policy=LockPolicy.WAIT)
        t1.write("x", 1)
        t1.prewrite(primary="x")
        t2.write("x", 2)
        with pytest.raises(ConflictAbort) as exc:
            t2.commit()
        assert exc.value.reason == "lock-wait-timeout"


class TestTwoPhaseCommitAtomicity:
    def test_multi_row_commit_is_atomic(self, manager):
        txn = manager.begin()
        for row in ("a", "b", "c"):
            txn.write(row, row.upper())
        txn.commit()
        reader = manager.begin()
        assert [reader.read(r) for r in ("a", "b", "c")] == ["A", "B", "C"]

    def test_prewrite_failure_rolls_back_partial_locks(self, manager):
        blocker = manager.begin()
        blocker.write("b", "held")
        blocker.prewrite(primary="b")
        txn = manager.begin()
        txn.write("a", 1)
        txn.write("b", 2)
        txn.write("c", 3)
        with pytest.raises(ConflictAbort):
            txn.commit()
        # No locks or data versions may linger from the failed txn.
        store = manager.store
        assert store.lock_of("a") is None
        assert store.lock_of("c") is None
        assert store.data.get_exact("a", txn.start_ts) is None
        assert store.data.get_exact("c", txn.start_ts) is None

    def test_abort_releases_everything(self, manager):
        txn = manager.begin()
        txn.write("x", 1)
        txn.prewrite(primary="x")
        txn.abort()
        assert manager.store.lock_of("x") is None
        assert manager.begin().read("x") is None


class TestStateMachine:
    def test_operations_after_commit_rejected(self, manager):
        txn = manager.begin()
        txn.write("x", 1)
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.write("y", 2)
        with pytest.raises(InvalidTransactionState):
            txn.commit()

    def test_store_lock_api(self):
        store = PercolatorStore()
        from repro.percolator import Lock

        store.acquire_lock("r", Lock(5, "r", True))
        with pytest.raises(LockConflict):
            store.acquire_lock("r", Lock(6, "r", True))
        assert not store.release_lock("r", 6)  # wrong holder
        assert store.release_lock("r", 5)

    def test_write_records_append_only_in_commit_order(self):
        store = PercolatorStore()
        from repro.percolator import WriteRecord

        store.add_write_record("r", WriteRecord(5, 1))
        with pytest.raises(ValueError):
            store.add_write_record("r", WriteRecord(4, 2))

    def test_write_column_reads_back_as_records(self):
        """The column stores flat ``commit_ts, start_ts`` pairs per row
        (no per-record object is retained); every reader still gets
        :class:`WriteRecord` values."""
        from array import array

        from repro.percolator import WriteRecord

        store = PercolatorStore()
        for commit_ts, start_ts in ((5, 1), (9, 7), (12, 10)):
            store.add_write_record("r", WriteRecord(commit_ts, start_ts))
        assert store.write_column["r"] == array("q", (5, 1, 9, 7, 12, 10))
        assert store.latest_commit_ts("r") == 12
        assert store.latest_commit_ts("absent") is None
        assert store.latest_write_before("r", 13) == WriteRecord(12, 10)
        assert store.latest_write_before("r", 12) == WriteRecord(9, 7)
        assert store.latest_write_before("r", 5) is None
        assert store.latest_write_before("absent", 99) is None
        assert store.write_record_for_start("r", 7) == WriteRecord(9, 7)
        assert store.write_record_for_start("r", 8) is None
        assert store.write_record_for_start("absent", 1) is None
