"""Analytical-traffic support: the paper's §5.2 future-work, implemented.

§5.2 identifies two problems with large (analytical) read sets in the
lock-free scheme, and sketches both fixes:

1. *"the read set could become very large and submitting that to the
   status oracle could be expensive.  To address [this], analytical
   transactions could submit to the status oracle a compact,
   over-approximated representation of the read set, e.g., table name
   and row ranges."* — :class:`RangeReadSet` is that representation: a
   set of half-open row ranges, and :class:`AnalyticalOracle` checks a
   range against ``lastCommit`` without enumerating its rows.

2. *"if a mechanism could ensure that the computed statistics by the
   analytical traffic are not used by OLTP transactions, which is
   normally the case, their commit will not affect the OLTP traffic and
   could be entirely skipped."* — committing with
   ``isolation="skip-check"`` records the analytical transaction's
   outputs under a sandboxed namespace and bypasses conflict detection.

Over-approximation is sound for WSI: a range covering more rows than
were actually read can only *add* aborts (false positives), never admit
a read-write conflict — the same one-sidedness argument as Algorithm 3's
``Tmax``, and property-tested the same way.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.status_oracle import (
    CommitRequest,
    CommitResult,
    WriteSnapshotIsolationOracle,
)


@dataclass(frozen=True)
class RowRange:
    """A half-open range ``[start, end)`` of integer row keys."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty range [{self.start}, {self.end})")

    def contains(self, row: int) -> bool:
        return self.start <= row < self.end

    def overlaps(self, other: "RowRange") -> bool:
        return self.start < other.end and other.start < self.end

    @property
    def width(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


class RangeReadSet:
    """A compact, over-approximated read set: disjoint sorted ranges.

    Adding overlapping or adjacent ranges coalesces them, so the
    representation stays at most O(#disjoint ranges) regardless of how
    many rows the analytical transaction scanned — this is the §5.2
    compactness property (a full-table scan is exactly one range).
    """

    def __init__(self, ranges: Iterable[RowRange] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for r in ranges:
            self.add(r)

    def add(self, new: RowRange) -> None:
        """Insert a range, coalescing overlaps and adjacency."""
        idx = bisect.bisect_left(self._starts, new.start)
        start, end = new.start, new.end
        # merge with the predecessor if it touches us
        if idx > 0 and self._ends[idx - 1] >= start:
            idx -= 1
            start = min(start, self._starts[idx])
            end = max(end, self._ends[idx])
            del self._starts[idx]
            del self._ends[idx]
        # swallow successors we cover or touch
        while idx < len(self._starts) and self._starts[idx] <= end:
            end = max(end, self._ends[idx])
            del self._starts[idx]
            del self._ends[idx]
        self._starts.insert(idx, start)
        self._ends.insert(idx, end)

    def add_row(self, row: int) -> None:
        self.add(RowRange(row, row + 1))

    def ranges(self) -> List[RowRange]:
        return [RowRange(s, e) for s, e in zip(self._starts, self._ends)]

    def contains(self, row: int) -> bool:
        idx = bisect.bisect_right(self._starts, row) - 1
        return idx >= 0 and row < self._ends[idx]

    @property
    def range_count(self) -> int:
        return len(self._starts)

    @property
    def covered_rows(self) -> int:
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.ranges()) + "}"


@dataclass(frozen=True)
class AnalyticalCommitRequest:
    """Commit request carrying a range read set instead of row ids."""

    start_ts: int
    read_ranges: Tuple[RowRange, ...]
    write_set: FrozenSet[int] = frozenset()
    skip_check: bool = False  # §5.2's "entirely skipped" mode


class AnalyticalOracle(WriteSnapshotIsolationOracle):
    """WSI oracle extended with range-based read-set checks.

    Inherits Algorithm 2 unchanged for OLTP requests; adds
    :meth:`commit_analytical` for requests whose read set is expressed
    as row ranges.  The range check scans ``lastCommit`` keys inside the
    range via a sorted index of the written integer rows, so a
    full-table analytical scan costs O(written rows) instead of O(table
    size).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sorted_rows: List[int] = []  # integer rows only, sorted
        self._indexed_size = 0  # len(lastCommit) when the index was built
        self.stats_analytical_commits = 0
        self.stats_analytical_aborts = 0
        self.stats_skipped_checks = 0

    def _row_index(self) -> List[int]:
        """The sorted integer rows of ``lastCommit``, rebuilt from the
        store whenever it has grown since the last range check.

        Read from the store itself, the index follows every writer —
        the decide loop, ``commit()``, WAL replay and a standby's
        catch-up — on every backend.  An unbounded store never drops a
        row, so its size changes exactly when a row is added."""
        lc = self._last_commit
        if len(lc) != self._indexed_size:
            self._sorted_rows = sorted(
                row for row in lc if isinstance(row, int)
            )
            self._indexed_size = len(lc)
        return self._sorted_rows

    def _max_lastcommit_in(self, row_range: RowRange) -> Optional[int]:
        rows = self._row_index()
        lo = bisect.bisect_left(rows, row_range.start)
        hi = bisect.bisect_left(rows, row_range.end)
        lc_get = self._last_commit.get
        best: Optional[int] = None
        for idx in range(lo, hi):
            ts = lc_get(rows[idx])
            if ts is not None and (best is None or ts > best):
                best = ts
        return best

    def commit_analytical(self, request: AnalyticalCommitRequest) -> CommitResult:
        """Process an analytical commit (§5.2).

        ``skip_check=True`` models statistics-producing transactions
        whose outputs OLTP never reads: they commit unconditionally and
        do not update ``lastCommit`` (their writes cannot conflict with
        anything by assumption), so they cost the oracle nothing.
        """
        if request.skip_check:
            commit_ts = self._tso.next()
            self.commit_table.record_commit(request.start_ts, commit_ts)
            self.stats.commits += 1
            self.stats_analytical_commits += 1
            self.stats_skipped_checks += 1
            return CommitResult(True, request.start_ts, commit_ts=commit_ts)

        for row_range in request.read_ranges:
            worst = self._max_lastcommit_in(row_range)
            if worst is not None and worst > request.start_ts:
                self.stats.aborts += 1
                self.stats.conflict_aborts += 1
                self.stats_analytical_aborts += 1
                self.commit_table.record_abort(request.start_ts)
                return CommitResult(
                    False,
                    request.start_ts,
                    reason="rw-conflict",
                    conflict_row=row_range,
                )
        commit_ts = self._tso.next()
        self._install(request.write_set, commit_ts)
        self.stats.rows_updated += len(request.write_set)
        self.commit_table.record_commit(request.start_ts, commit_ts)
        self.stats.commits += 1
        self.stats_analytical_commits += 1
        return CommitResult(True, request.start_ts, commit_ts=commit_ts)
