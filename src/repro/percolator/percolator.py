"""Percolator-style lock-based snapshot isolation (paper §2.1, [24]).

The paper's baseline for *lock-based* SI.  Percolator adds two columns to
every row:

* the **lock** column — low-granularity locks used by a client-run 2PC;
* the **write** column — commit records mapping a commit timestamp to the
  start timestamp whose data version it exposes.

Protocol, per §2.1:

1. *Prewrite* (first 2PC phase): for every written row, abort if another
   transaction committed it after our start timestamp (write-write
   conflict) or if it is locked; otherwise write the data at our start
   timestamp and acquire the lock.  One row is designated the **primary**;
   all other locks point at it.
2. *Commit* (second phase): obtain the commit timestamp, write the commit
   record on the primary (the atomic commit point), remove its lock, then
   roll the secondaries forward.

When a transaction encounters a lock it may **wait**, **abort itself**,
or **force-abort the holder** — the three policies §2.1 lists — and this
implementation supports all three via :class:`LockPolicy`.

The known weakness the paper critiques is also reproduced faithfully:
locks left by a failed or slow client block (or force cleanup work on)
everyone else, whereas the lock-free oracle has no such state.  A client
can :meth:`PercolatorTransaction.crash` mid-2PC and later transactions
must resolve the leftovers through the primary-lock protocol, rolling the
transaction forward if the primary committed and back otherwise.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.errors import (
    AbortException,
    ConflictAbort,
    InvalidTransactionState,
    LockConflict,
)
from repro.core.timestamps import TimestampOracle
from repro.mvcc.store import MVCCStore
from repro.mvcc.version import TOMBSTONE

RowKey = Hashable


class LockPolicy(enum.Enum):
    """What a writer does when it finds a row locked (§2.1: wait, abort,
    or force the holder's abort)."""

    ABORT_SELF = "abort"
    WAIT = "wait"
    FORCE_ABORT_HOLDER = "force"


@dataclass
class Lock:
    """An entry in the lock column."""

    holder_start_ts: int
    primary_row: RowKey
    is_primary: bool


@dataclass(frozen=True)
class WriteRecord:
    """An entry in the write column: commit_ts -> data version pointer."""

    commit_ts: int
    start_ts: int


class PercolatorStore:
    """Data + lock + write columns for one logical table."""

    def __init__(self) -> None:
        self.data = MVCCStore()  # versions keyed by start_ts
        self._locks: Dict[RowKey, Lock] = {}
        # Per row, a flat ``array('q')`` of ``commit_ts, start_ts`` pairs in
        # commit order.  The column grows by one entry per committed row
        # for the life of the store, so what it is made of is what a full
        # collection walks: as a list of frozen-dataclass records it was
        # two tracked containers per row (295 k after 30 k commits, three
        # ~0.13 s passes inside a 0.85 s batched run — PR 13) and 0.6 us
        # of ``object.__setattr__`` per record; an array is one leaf
        # object per row with nothing inside for the collector to visit.
        self._writes: Dict[RowKey, array] = {}

    # ------------------------------------------------------------------
    # bulk access (the batched engine's hook)
    # ------------------------------------------------------------------
    @property
    def lock_column(self) -> Dict[RowKey, Lock]:
        """The live lock column, keyed by row.

        The supported surface for bulk readers (the batched
        :class:`~repro.percolator.engine.PercolatorEngine` path binds
        ``.get``/``.keys().isdisjoint`` locally) — mutate only through
        :meth:`acquire_lock`/:meth:`release_lock`.
        """
        return self._locks

    @property
    def write_column(self) -> Dict[RowKey, array]:
        """The live write column: per row a flat ``array('q')`` of
        ``commit_ts, start_ts`` pairs sorted by commit_ts, so ``recs[-2]``
        is the row's newest commit timestamp.

        Bulk-read hook like :data:`lock_column`; the batched engine and
        WAL recovery also append through it (pairs arrive already in
        commit order).  Everyone else reads :class:`WriteRecord` values
        through the methods below.
        """
        return self._writes

    # ------------------------------------------------------------------
    # lock column
    # ------------------------------------------------------------------
    def lock_of(self, row: RowKey) -> Optional[Lock]:
        return self._locks.get(row)

    def acquire_lock(self, row: RowKey, lock: Lock) -> None:
        if row in self._locks:
            raise LockConflict(row, self._locks[row].holder_start_ts)
        self._locks[row] = lock

    def release_lock(self, row: RowKey, holder_start_ts: int) -> bool:
        lock = self._locks.get(row)
        if lock is not None and lock.holder_start_ts == holder_start_ts:
            del self._locks[row]
            return True
        return False

    def locked_rows(self) -> Set[RowKey]:
        return set(self._locks)

    # ------------------------------------------------------------------
    # write column
    # ------------------------------------------------------------------
    def latest_write_before(self, row: RowKey, ts: int) -> Optional[WriteRecord]:
        """Newest commit record with commit_ts < ts (snapshot visibility)."""
        records = self._writes.get(row)
        if not records:
            return None
        # records are few per row in practice; linear scan from the end.
        for i in range(len(records) - 2, -1, -2):
            if records[i] < ts:
                return WriteRecord(records[i], records[i + 1])
        return None

    def latest_commit_ts(self, row: RowKey) -> Optional[int]:
        records = self._writes.get(row)
        return records[-2] if records else None

    def add_write_record(self, row: RowKey, record: WriteRecord) -> None:
        records = self._writes.get(row)
        if records is None:
            self._writes[row] = array("q", (record.commit_ts, record.start_ts))
            return
        if record.commit_ts <= records[-2]:
            raise ValueError("write records must be appended in commit order")
        records.append(record.commit_ts)
        records.append(record.start_ts)

    def write_record_for_start(self, row: RowKey, start_ts: int) -> Optional[WriteRecord]:
        records = self._writes.get(row, ())
        for i in range(1, len(records), 2):
            if records[i] == start_ts:
                return WriteRecord(records[i - 1], start_ts)
        return None


class PercoState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"
    CRASHED = "crashed"  # client died; locks may linger


class PercolatorTransaction:
    """One client-driven 2PC transaction."""

    def __init__(
        self,
        manager: "PercolatorTransactionManager",
        start_ts: int,
        lock_policy: LockPolicy,
    ) -> None:
        self._manager = manager
        self.start_ts = start_ts
        self.commit_ts: Optional[int] = None
        self.state = PercoState.ACTIVE
        self._buffer: Dict[RowKey, Any] = {}
        self._lock_policy = lock_policy
        self.read_set: Set[RowKey] = set()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, row: RowKey, default: Any = None) -> Any:
        """Snapshot read through the write column.

        If the row carries a lock older than our snapshot we must resolve
        it first (the holder may have committed at a timestamp we should
        observe) — this is the read-blocking behaviour the paper critiques.
        """
        self._require_active()
        if row in self._buffer:
            value = self._buffer[row]
            self.read_set.add(row)
            return default if value is TOMBSTONE else value
        store = self._manager.store
        lock = store.lock_of(row)
        if lock is not None and lock.holder_start_ts < self.start_ts:
            self._manager.resolve_lock(row, lock)
        record = store.latest_write_before(row, self.start_ts)
        self.read_set.add(row)
        if record is None:
            return default
        version = store.data.get_exact(row, record.start_ts)
        if version is None or version.is_tombstone:
            return default
        return version.value

    # ------------------------------------------------------------------
    # writes (buffered until prewrite, like Percolator's client)
    # ------------------------------------------------------------------
    def write(self, row: RowKey, value: Any) -> None:
        self._require_active()
        self._buffer[row] = value

    def delete(self, row: RowKey) -> None:
        self._require_active()
        self._buffer[row] = TOMBSTONE

    @property
    def write_set(self) -> Set[RowKey]:
        return set(self._buffer)

    @property
    def is_read_only(self) -> bool:
        return not self._buffer

    # ------------------------------------------------------------------
    # 2PC
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Run both 2PC phases; returns the commit timestamp."""
        self._require_active()
        if not self._buffer:
            # Read-only: SI needs no commit record and cannot conflict.
            self.state = PercoState.COMMITTED
            self.commit_ts = self.start_ts
            return self.commit_ts
        rows = sorted(self._buffer, key=repr)  # deterministic primary choice
        primary = rows[0]
        self.prewrite(primary, rows)
        return self.finalize(primary, rows)

    def prewrite(self, primary: RowKey, rows: Optional[List[RowKey]] = None) -> None:
        """Phase 1: conflict checks, data writes, lock acquisition."""
        if rows is None:
            rows = sorted(self._buffer, key=repr)
        store = self._manager.store
        acquired: List[RowKey] = []
        try:
            for row in rows:
                self._check_ww_conflict(row)
                self._acquire_with_policy(row, primary)
                acquired.append(row)
                store.data.put(row, self.start_ts, self._buffer[row])
        except AbortException:
            for row in acquired:
                store.release_lock(row, self.start_ts)
                store.data.delete_version(row, self.start_ts)
            self.state = PercoState.ABORTED
            raise

    def finalize(self, primary: RowKey, rows: Optional[List[RowKey]] = None) -> int:
        """Phase 2: commit point on the primary, then roll secondaries."""
        if rows is None:
            rows = sorted(self._buffer, key=repr)
        store = self._manager.store
        commit_ts = self._manager.tso.next()
        # The commit *point*: write record + lock release on the primary.
        if store.lock_of(primary) is None or (
            store.lock_of(primary).holder_start_ts != self.start_ts
        ):
            # Someone force-aborted us between phases.
            self._rollback_rows(rows)
            self.state = PercoState.ABORTED
            raise ConflictAbort(self.start_ts, "force-aborted", primary)
        store.add_write_record(primary, WriteRecord(commit_ts, self.start_ts))
        store.release_lock(primary, self.start_ts)
        # Secondaries can be rolled forward lazily; do it eagerly here.
        for row in rows:
            if row == primary:
                continue
            store.add_write_record(row, WriteRecord(commit_ts, self.start_ts))
            store.release_lock(row, self.start_ts)
        self.state = PercoState.COMMITTED
        self.commit_ts = commit_ts
        return commit_ts

    def _check_ww_conflict(self, row: RowKey) -> None:
        latest = self._manager.store.latest_commit_ts(row)
        if latest is not None and latest > self.start_ts:
            self.state = PercoState.ABORTED
            raise ConflictAbort(self.start_ts, "ww-conflict", row)

    def _acquire_with_policy(self, row: RowKey, primary: RowKey) -> None:
        store = self._manager.store
        lock = Lock(self.start_ts, primary, is_primary=(row == primary))
        for _ in range(self._manager.max_lock_retries):
            existing = store.lock_of(row)
            if existing is None:
                store.acquire_lock(row, lock)
                return
            if self._lock_policy is LockPolicy.ABORT_SELF:
                raise ConflictAbort(self.start_ts, "lock-held", row)
            if self._lock_policy is LockPolicy.FORCE_ABORT_HOLDER:
                self._manager.force_abort(existing)
                continue
            # WAIT: in this synchronous model, waiting can only make
            # progress if the holder crashed (then resolution clears it);
            # otherwise treat an active holder like ABORT_SELF after
            # resolution fails to clear the lock.
            self._manager.resolve_lock(row, existing)
            if store.lock_of(row) is not None:
                raise ConflictAbort(self.start_ts, "lock-wait-timeout", row)
        raise ConflictAbort(self.start_ts, "lock-held", row)

    def _rollback_rows(self, rows: Iterable[RowKey]) -> None:
        store = self._manager.store
        for row in rows:
            store.release_lock(row, self.start_ts)
            store.data.delete_version(row, self.start_ts)

    def abort(self) -> None:
        self._require_active()
        self._rollback_rows(self._buffer)
        self.state = PercoState.ABORTED

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the client dying right now, leaving any locks in place.

        If called between prewrite and finalize, the transaction's locks
        linger until another transaction resolves them — the exact
        recovery-stall scenario §2.1 criticizes.
        """
        self.state = PercoState.CRASHED
        self._manager.note_crashed(self.start_ts)

    def _require_active(self) -> None:
        if self.state is not PercoState.ACTIVE:
            raise InvalidTransactionState(
                f"percolator txn {self.start_ts} is {self.state.value}"
            )


class PercolatorTransactionManager:
    """Client factory plus the shared lock-resolution machinery."""

    def __init__(
        self,
        store: Optional[PercolatorStore] = None,
        tso: Optional[TimestampOracle] = None,
        lock_policy: LockPolicy = LockPolicy.ABORT_SELF,
        max_lock_retries: int = 3,
    ) -> None:
        self.store = store or PercolatorStore()
        self.tso = tso or TimestampOracle()
        self.lock_policy = lock_policy
        self.max_lock_retries = max_lock_retries
        self._crashed: Set[int] = set()
        self.resolution_count = 0

    def begin(self, lock_policy: Optional[LockPolicy] = None) -> PercolatorTransaction:
        return PercolatorTransaction(
            self,
            self.tso.next(),
            lock_policy or self.lock_policy,
        )

    def note_crashed(self, start_ts: int) -> None:
        self._crashed.add(start_ts)

    # ------------------------------------------------------------------
    # lock resolution (the primary-lock protocol)
    # ------------------------------------------------------------------
    def resolve_lock(self, row: RowKey, lock: Lock) -> None:
        """Resolve a dangling lock found by a reader or writer.

        Check the primary: if the primary's write record exists the txn
        committed and we roll the secondary forward; if the primary lock
        is gone without a record the txn aborted and we clean up; if the
        holder is known-crashed we roll it back.  An active (not crashed)
        holder keeps its locks.
        """
        self.resolution_count += 1
        holder = lock.holder_start_ts
        primary = lock.primary_row
        record = self.store.write_record_for_start(primary, holder)
        if record is not None:
            # Committed: roll this row forward.
            if self.store.write_record_for_start(row, holder) is None:
                self.store.add_write_record(row, WriteRecord(record.commit_ts, holder))
            self.store.release_lock(row, holder)
            return
        primary_lock = self.store.lock_of(primary)
        primary_gone = primary_lock is None or primary_lock.holder_start_ts != holder
        if primary_gone or holder in self._crashed:
            # Aborted (or dead client): roll back.
            self.store.release_lock(row, holder)
            self.store.data.delete_version(row, holder)
            if holder in self._crashed and not primary_gone:
                self.store.release_lock(primary, holder)
                self.store.data.delete_version(primary, holder)

    def force_abort(self, lock: Lock) -> None:
        """Forcefully clear another transaction's locks (FORCE policy)."""
        holder = lock.holder_start_ts
        primary = lock.primary_row
        # Kill the primary first so the holder can no longer commit.
        self.store.release_lock(primary, holder)
        self.store.data.delete_version(primary, holder)
        for locked_row in list(self.store.locked_rows()):
            existing = self.store.lock_of(locked_row)
            if existing is not None and existing.holder_start_ts == holder:
                self.store.release_lock(locked_row, holder)
                self.store.data.delete_version(locked_row, holder)
