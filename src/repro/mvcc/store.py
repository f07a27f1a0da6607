"""In-process multi-version key-value store.

This is the substrate standing in for an HBase RegionServer's storage: a
map from row key to the row's *history* — two parallel columns, the
writers' start timestamps ascending and the values written at them.  It
supports the three accesses the transactional layer needs:

* ``put(row, ts, value)`` — add a version (uncommitted data is written
  directly into the store at the writer's start timestamp, exactly as in
  the paper's lock-free scheme and in Percolator);
* ``history(row)`` — the read primitive: the row's two columns, or
  ``None``.  One ``dict`` probe, nothing allocated.  The columns are
  *borrowed*: they are the store's own lists, so a caller reads them
  inside the call that fetched them and never mutates or keeps them —
  copying them would cost more than the snapshot read they serve;
* ``delete_version(row, ts)`` — physically remove a version (used to clean
  up the writes of aborted transactions).

``get_versions(row, max_ts)`` is the iterator form of ``history`` for
everything that is not the snapshot-read hot path: newest first, one
:class:`~repro.mvcc.version.Version` object per version yielded.

The store itself knows nothing about transactions or commit state; the
rule that skips uncommitted/aborted/late-committed versions lives in
:mod:`repro.mvcc.snapshot`.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.mvcc.version import TOMBSTONE, Version

RowKey = Hashable


class MVCCStore:
    """A multi-version map: row key -> ordered versions.

    Versions for each row are kept sorted by timestamp ascending; lookups
    use binary search so reads are O(log V) in the number of versions.
    """

    def __init__(self) -> None:
        # row -> parallel lists (timestamps sorted asc, values)
        self._rows: Dict[RowKey, Tuple[List[int], List[Any]]] = {}
        self._put_count = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, row: RowKey, timestamp: int, value: Any) -> None:
        """Write ``value`` into ``row`` at ``timestamp``.

        Writing twice at the same (row, timestamp) overwrites in place —
        this matches HBase semantics where a cell is keyed by
        (row, column, ts) and a re-put replaces the value.
        """
        entry = self._rows.get(row)
        if entry is None:
            self._rows[row] = ([timestamp], [value])
        else:
            ts_list, val_list = entry
            if timestamp > ts_list[-1]:  # the common case: a newer writer
                ts_list.append(timestamp)
                val_list.append(value)
            else:
                idx = bisect.bisect_left(ts_list, timestamp)
                if ts_list[idx] == timestamp:
                    val_list[idx] = value
                else:
                    ts_list.insert(idx, timestamp)
                    val_list.insert(idx, value)
        self._put_count += 1

    def delete(self, row: RowKey, timestamp: int) -> None:
        """Write a tombstone at ``timestamp`` (transactional delete)."""
        self.put(row, timestamp, TOMBSTONE)

    def delete_version(self, row: RowKey, timestamp: int) -> bool:
        """Physically remove the version at exactly ``timestamp``.

        Returns True if a version was removed.  Used to garbage-collect
        the writes of aborted transactions.
        """
        entry = self._rows.get(row)
        if entry is None:
            return False
        ts_list, val_list = entry
        idx = bisect.bisect_left(ts_list, timestamp)
        if idx < len(ts_list) and ts_list[idx] == timestamp:
            del ts_list[idx]
            del val_list[idx]
            if not ts_list:
                del self._rows[row]
            return True
        return False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def history(self, row: RowKey) -> Optional[Tuple[List[int], List[Any]]]:
        """The columns of ``row`` — ``(timestamps ascending, values)`` — or
        ``None``.  Borrowed read-only for the duration of the call."""
        return self._rows.get(row)

    def get_versions(
        self, row: RowKey, max_timestamp: Optional[int] = None
    ) -> Iterator[Version]:
        """Yield versions of ``row`` with ts <= max_timestamp, newest first.

        ``max_timestamp=None`` yields every version.
        """
        entry = self._rows.get(row)
        if entry is None:
            return
        ts_list, val_list = entry
        if max_timestamp is None:
            hi = len(ts_list)
        else:
            hi = bisect.bisect_right(ts_list, max_timestamp)
        for idx in range(hi - 1, -1, -1):
            yield Version(ts_list[idx], val_list[idx])

    def get_exact(self, row: RowKey, timestamp: int) -> Optional[Version]:
        """Return the version written at exactly ``timestamp``, if any."""
        entry = self._rows.get(row)
        if entry is None:
            return None
        ts_list, val_list = entry
        idx = bisect.bisect_left(ts_list, timestamp)
        if idx < len(ts_list) and ts_list[idx] == timestamp:
            return Version(timestamp, val_list[idx])
        return None

    def latest(self, row: RowKey) -> Optional[Version]:
        """Return the newest version of ``row`` regardless of commit state."""
        entry = self._rows.get(row)
        if entry is None:
            return None
        ts_list, val_list = entry
        return Version(ts_list[-1], val_list[-1])

    # ------------------------------------------------------------------
    # scans & maintenance
    # ------------------------------------------------------------------
    def scan_rows(self) -> Iterator[RowKey]:
        """Yield every row key that has at least one version."""
        return iter(list(self._rows.keys()))

    def scan_range(self, start: RowKey, end: RowKey) -> Iterator[RowKey]:
        """Yield row keys in ``[start, end)`` (requires orderable keys)."""
        return iter(sorted(  # type: ignore[type-var]
            row for row in self._rows
            if start <= row < end  # type: ignore[operator]
        ))

    def compact(self, row: RowKey, keep_after: int) -> int:
        """Drop versions of ``row`` strictly older than ``keep_after``.

        Keeps at least the newest version at or below ``keep_after`` so a
        snapshot read at that boundary still succeeds (HBase major
        compaction with TTL behaves similarly).  Returns the number of
        versions removed.
        """
        entry = self._rows.get(row)
        if entry is None:
            return 0
        ts_list, val_list = entry
        cut = bisect.bisect_right(ts_list, keep_after)
        if cut <= 1:
            return 0
        # keep index cut-1 (newest version <= keep_after) and everything after
        removed = cut - 1
        del ts_list[: cut - 1]
        del val_list[: cut - 1]
        return removed

    # ------------------------------------------------------------------
    # stats / dunder
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def version_count(self) -> int:
        return sum(len(ts) for ts, _ in self._rows.values())

    @property
    def put_count(self) -> int:
        """Total number of put operations ever applied (metrics)."""
        return self._put_count

    def __contains__(self, row: RowKey) -> bool:
        return row in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def load(self, items: Iterable[Tuple[RowKey, int, Any]]) -> None:
        """Bulk-load (row, timestamp, value) triples (initial table load)."""
        for row, ts, value in items:
            self.put(row, ts, value)
