"""Client-side transactions: begin / read / write / commit.

This is the paper's transaction client.  The flow (§2.2, §5):

1. ``begin`` — obtain a start timestamp from the (status) oracle.
2. ``write`` — uncommitted data is written *directly into the main
   database* at the start timestamp (no private buffer round trip at
   commit, unlike classic OCC).
3. ``read`` — snapshot reads through :class:`~repro.mvcc.snapshot.SnapshotReader`
   using the client's replica of the commit table; every row actually
   read is added to the read set ("whether these rows were originally
   specified by their primary keys or by a search condition", §5).
4. ``commit`` — ship (start_ts, write set[, read set]) to the status
   oracle.  Under WSI a read-only transaction ships *empty* sets so it
   can never abort and costs the oracle nothing (§5.1).
5. on abort — the transaction's versions are removed from the store so
   later readers don't wade through them.

The same client works against a plain :class:`~repro.mvcc.store.MVCCStore`
or a sharded :class:`~repro.hbase.cluster.HBaseCluster` — anything
satisfying the small :class:`StorageBackend` protocol.
"""

from __future__ import annotations

import enum
from typing import (
    Any, Dict, Hashable, Iterable, List, Optional, Protocol, Set, Tuple,
)

from repro.core.commit_table import ClientCommitView, CommitTable
from repro.core.conflicts import TxnFootprint
from repro.core.errors import (
    AbortException,
    ConflictAbort,
    InvalidTransactionState,
    InvariantViolation,
    TmaxAbort,
)
from repro.core.status_oracle import CommitRequest, StatusOracle
from repro.mvcc.snapshot import CommitStatusSource, SnapshotReader
from repro.mvcc.version import TOMBSTONE

RowKey = Hashable


class StorageBackend(Protocol):
    """Minimal store interface the transaction client needs."""

    def put(self, row: RowKey, timestamp: int, value: Any) -> None: ...

    def history(self, row: RowKey) -> Optional[Tuple[List[int], List[Any]]]:
        """The read primitive: the row's parallel ``(timestamps ascending,
        values)`` sequences, or ``None`` — borrowed read-only for the
        duration of the call (see :mod:`repro.mvcc.store`)."""

    def delete_version(self, row: RowKey, timestamp: int) -> bool: ...


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: ``Transaction.read`` tests its state on every call; a module global
#: is one lookup where ``TxnState.ACTIVE`` is two, through a metaclass.
_ACTIVE = TxnState.ACTIVE


class Transaction:
    """One transactional unit of execution.

    Create via :meth:`TransactionManager.begin`; not directly.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        start_ts: int,
    ) -> None:
        self._manager = manager
        self.start_ts = start_ts
        self.commit_ts: Optional[int] = None
        self.state = TxnState.ACTIVE
        self.read_set: Set[RowKey] = set()
        self.write_set: Set[RowKey] = set()
        self._writes: Dict[RowKey, Any] = {}  # local cache for own-reads
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, row: RowKey, default: Any = None, track: bool = True) -> Any:
        """Snapshot-read ``row``; record it in the read set.

        ``track=False`` performs an untracked read — useful to model the
        analytical "skip the commit check" escape hatch of §5.2, and for
        tests; normal application reads must leave it True.
        """
        if self.state is not _ACTIVE:
            self._require_active()
        if row in self._writes:
            value = self._writes[row]
            if track:
                self.read_set.add(row)
            return default if value is TOMBSTONE else value
        start_ts = self.start_ts
        value = self._manager.reader.read_value(row, start_ts, start_ts, default)
        if track:
            self.read_set.add(row)
        return value

    def read_many(self, rows: Iterable[RowKey], default: Any = None) -> Dict[RowKey, Any]:
        """Read several rows in one call (multi-get)."""
        return {row: self.read(row, default=default) for row in rows}

    def scan(self, start: RowKey, end: RowKey) -> Dict[RowKey, Any]:
        """Search-condition read: every visible row in ``[start, end)``.

        §5: "the set of identifiers of the read rows ... is computed
        based on the rows that are actually read by the transaction,
        whether these rows were originally specified by their primary
        keys or by a search condition."  Every row the scan observes —
        including the transaction's own pending writes in range — enters
        the read set, so a later conflicting write to any of them is
        detected at commit.

        Requires a backend with ``scan_range`` (both
        :class:`~repro.mvcc.store.MVCCStore` and
        :class:`~repro.hbase.cluster.HBaseCluster` provide it).
        """
        self._require_active()
        scan_range = getattr(self._manager.store, "scan_range", None)
        if scan_range is None:
            raise TypeError(
                f"{type(self._manager.store).__name__} does not support scans"
            )
        result: Dict[RowKey, Any] = {}
        candidates = set(scan_range(start, end))
        candidates.update(
            row for row in self._writes
            if start <= row < end  # type: ignore[operator]
        )
        for row in sorted(candidates):  # type: ignore[type-var]
            value = self.read(row)
            if value is not None:
                result[row] = value
        return result

    def write(self, row: RowKey, value: Any) -> None:
        """Buffer-and-apply a write at the start timestamp."""
        self._require_active()
        if value is TOMBSTONE:
            raise ValueError("use delete() to remove a row")
        self._manager.store.put(row, self.start_ts, value)
        self._writes[row] = value
        self.write_set.add(row)

    def delete(self, row: RowKey) -> None:
        """Transactionally delete ``row`` (writes a tombstone)."""
        self._require_active()
        self._manager.store.put(row, self.start_ts, TOMBSTONE)
        self._writes[row] = TOMBSTONE
        self.write_set.add(row)

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Request commit from the status oracle.

        Returns the commit timestamp (== start_ts for read-only
        transactions, which need no separate commit point).  Raises
        :class:`ConflictAbort` / :class:`TmaxAbort` on conflict; the
        transaction's writes are already cleaned up when the exception
        propagates.
        """
        self._require_active()
        is_read_only = not self.write_set
        if is_read_only:
            # §5.1: empty read AND write sets -> the oracle does no work
            # and a read-only transaction can never abort.
            request = CommitRequest(self.start_ts)
        else:
            request = CommitRequest(
                self.start_ts,
                write_set=frozenset(self.write_set),
                read_set=frozenset(self.read_set),
            )
        result = self._manager.oracle.commit(request)
        self._manager._retire(self)
        if not result.committed:
            self._cleanup_writes()
            self.state = TxnState.ABORTED
            self.abort_reason = result.reason
            if result.reason == "tmax":
                raise TmaxAbort(self.start_ts, getattr(
                    self._manager.oracle, "tmax", 0))
            raise ConflictAbort(self.start_ts, result.reason, result.conflict_row)
        self.state = TxnState.COMMITTED
        self.commit_ts = (
            result.commit_ts if result.commit_ts is not None else self.start_ts
        )
        return self.commit_ts

    def abort(self, reason: str = "client") -> None:
        """Client-initiated rollback."""
        self._require_active()
        self._cleanup_writes()
        if self.write_set:
            # Tell the oracle so readers learn this txn's versions are dead.
            self._manager.oracle.abort(self.start_ts)
        self._manager._retire(self)
        self.state = TxnState.ABORTED
        self.abort_reason = reason

    def _cleanup_writes(self) -> None:
        for row in self.write_set:
            self._manager.store.delete_version(row, self.start_ts)

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {self.start_ts} is {self.state.value}"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def is_read_only(self) -> bool:
        return not self.write_set

    def footprint(self) -> TxnFootprint:
        """Export this transaction for the offline conflict predicates."""
        return TxnFootprint(
            txn_id=self.start_ts,
            start_ts=self.start_ts,
            commit_ts=self.commit_ts,
            read_set=frozenset(self.read_set),
            write_set=frozenset(self.write_set),
        )

    # context-manager sugar: commit on clean exit, abort on exception.
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state is not TxnState.ACTIVE:
            return False  # already terminated explicitly
        if exc_type is None:
            self.commit()
            return False
        self.abort(reason=f"exception:{exc_type.__name__}")
        return False  # propagate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(start={self.start_ts}, state={self.state.value}, "
            f"|r|={len(self.read_set)}, |w|={len(self.write_set)})"
        )


class TransactionManager:
    """Factory and shared context for transactions.

    Args:
        oracle: the status oracle deciding commits (SI or WSI).
        store: the storage backend holding versioned data.
        commit_source: where snapshot reads learn commit status.  Defaults
            to a fresh client-side replica of the oracle's commit table
            (the configuration the paper's experiments used).
    """

    def __init__(
        self,
        oracle: StatusOracle,
        store: StorageBackend,
        commit_source: Optional[CommitStatusSource] = None,
    ) -> None:
        self.oracle = oracle
        self.store = store
        if commit_source is None:
            commit_source = ClientCommitView(oracle.commit_table)
        self.commit_source = commit_source
        self.reader = SnapshotReader(store, commit_source)
        self._started = 0
        self._active: Dict[int, Transaction] = {}

    def begin(self) -> Transaction:
        """Start a transaction: one timestamp request, nothing else."""
        start_ts = self.oracle.begin()
        self._started += 1
        txn = Transaction(self, start_ts)
        self._active[start_ts] = txn
        return txn

    def _retire(self, txn: Transaction) -> None:
        self._active.pop(txn.start_ts, None)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc_watermark(self) -> int:
        """Oldest snapshot any active transaction may still read.

        Versions below the newest committed version at this timestamp
        are unreachable by every current and future snapshot.
        """
        if self._active:
            return min(self._active)
        return self.oracle.timestamp_oracle.peek()

    def collect_garbage(self) -> int:
        """Compact old versions unreachable by any active snapshot.

        Keeps, for every row, the newest version at or below the GC
        watermark plus everything newer (HBase major compaction with a
        safe watermark).  Returns the number of versions removed.
        Requires a backend exposing ``scan_rows`` and ``compact`` (the
        plain :class:`~repro.mvcc.store.MVCCStore` does).
        """
        scan_rows = getattr(self.store, "scan_rows", None)
        compact = getattr(self.store, "compact", None)
        if scan_rows is None or compact is None:
            raise TypeError(
                f"{type(self.store).__name__} does not support compaction"
            )
        watermark = self.gc_watermark()
        removed = 0
        for row in list(scan_rows()):
            removed += compact(row, keep_after=watermark)
        return removed

    def run(self, fn, *, retries: int = 10) -> Any:
        """Execute ``fn(txn)`` with automatic retry on conflict aborts.

        The standard OCC client loop: conflicts are expected, so retry
        with a fresh snapshot up to ``retries`` times, then re-raise.
        """
        last: Optional[AbortException] = None
        for _ in range(retries + 1):
            txn = self.begin()
            try:
                result = fn(txn)
                if txn.state is TxnState.ACTIVE:
                    txn.commit()
                return result
            except AbortException as exc:
                last = exc
                continue
        if last is None:
            raise InvariantViolation("retry loop exhausted without an abort")
        raise last

    @property
    def started_count(self) -> int:
        return self._started

    @property
    def isolation_level(self) -> str:
        return self.oracle.level
