"""Snapshot reads over the multi-version store.

Section 2.2 of the paper specifies how a reading transaction obtains its
snapshot: scanning versions of a row newest-first (below its start
timestamp), transaction ``txn_r`` *skips* a version written by ``txn_w``
if ``txn_w`` is

1. not committed yet,
2. aborted, or
3. committed with a commit timestamp larger than ``Ts(txn_r)``.

The first version that survives the filter is the snapshot value.  The
rule has exactly one implementation, :meth:`SnapshotReader._newest_visible`:
one frame over the store's own columns (``history``), a ``bisect`` to the
snapshot, then an index walk downwards.  Three things it does not do:

* probe ``is_aborted`` — by :class:`CommitStatusSource`'s contract
  ``commit_timestamp`` is already ``None`` for a writer that is running
  *or* aborted, so rules 1 and 2 are one lookup;
* copy the columns — they are borrowed from the store for the duration of
  the call, and no object is built per version examined;
* bind anything at construction — store and commit source are resolved
  through their objects on every call, because a replicated deployment's
  source answers from whichever commit table is the leader's *now*.

The commit state comes from a :class:`CommitStatusSource` — the status
oracle itself, or a read-only replica of its commit table kept on the
clients (the configuration the paper evaluates:
:class:`repro.core.commit_table.ClientCommitView`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Optional, Protocol, Tuple

from repro.mvcc.store import MVCCStore, RowKey
from repro.mvcc.version import TOMBSTONE, Version


class CommitStatusSource(Protocol):
    """Where the reader learns the fate of a writing transaction."""

    def commit_timestamp(self, start_ts: int) -> Optional[int]:
        """Commit timestamp of the txn that started at ``start_ts``.

        Returns ``None`` if that transaction has not committed (still
        running, or aborted).
        """

    def is_aborted(self, start_ts: int) -> bool:
        """True if the transaction that started at ``start_ts`` aborted."""


class SnapshotReader:
    """Applies the paper's three-way skip rule to produce snapshot reads.

    All three reads take ``own_start_ts`` so a transaction observes its
    *own* uncommitted writes (§2): a version written at exactly that
    timestamp is always visible.
    """

    def __init__(self, store: MVCCStore, commit_source: CommitStatusSource) -> None:
        self._store = store
        self._commits = commit_source

    def _newest_visible(
        self, row: RowKey, snapshot_ts: int, own_start_ts: Optional[int]
    ) -> Tuple[Optional[int], Any, int]:
        """``(writer start ts, value, versions skipped)`` of the newest
        version of ``row`` inside the snapshot; ``(None, TOMBSTONE, skipped)``
        when there is none — such a row reads like a deleted one."""
        history = self._store.history(row)
        if history is None:
            return None, TOMBSTONE, 0
        timestamps, values = history
        commit_timestamp = self._commits.commit_timestamp
        newest = index = bisect_right(timestamps, snapshot_ts)
        while index:
            index -= 1
            timestamp = timestamps[index]
            if timestamp != own_start_ts:
                commit_ts = commit_timestamp(timestamp)
                # "the latest version of data with commit timestamp
                # delta < Ts(txn_r)": strictly before the snapshot.
                if commit_ts is None or commit_ts >= snapshot_ts:
                    continue
            return timestamp, values[index], newest - 1 - index
        return None, TOMBSTONE, newest

    def read(
        self, row: RowKey, snapshot_ts: int, own_start_ts: Optional[int] = None
    ) -> Optional[Version]:
        """The version of ``row`` visible at ``snapshot_ts`` — possibly a
        tombstone, see :meth:`read_value` — or ``None``."""
        return self.read_with_provenance(row, snapshot_ts, own_start_ts)[0]

    def read_value(
        self, row: RowKey, snapshot_ts: int,
        own_start_ts: Optional[int] = None, default: Any = None,
    ) -> Any:
        """Like :meth:`read` but unwraps the value; tombstones read as
        ``default`` (the row looks deleted)."""
        value = self._newest_visible(row, snapshot_ts, own_start_ts)[1]
        return default if value is TOMBSTONE else value

    def read_with_provenance(
        self, row: RowKey, snapshot_ts: int, own_start_ts: Optional[int] = None
    ) -> Tuple[Optional[Version], int]:
        """Return (visible version, number of versions skipped) — under
        heavy aborts or long transactions the reader wades through more
        garbage, paid as extra commit-table lookups."""
        start_ts, value, skipped = self._newest_visible(row, snapshot_ts, own_start_ts)
        return (None if start_ts is None else Version(start_ts, value)), skipped
