"""Result tables and shape checks shared by the benchmark suite.

Each figure-reproducing benchmark prints a table of its measured series
next to the paper's reported anchors, then asserts the *shape* criteria
recorded in DESIGN.md (who wins, where the knee falls, how curves order).
The helpers here keep that uniform across benchmarks/.
"""

from __future__ import annotations

import contextlib
import gc
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PaperAnchor:
    """A number the paper reports, for side-by-side display."""

    description: str
    paper_value: float
    measured_value: float
    unit: str = ""

    def as_row(self) -> str:
        ratio = (
            self.measured_value / self.paper_value if self.paper_value else float("nan")
        )
        return (
            f"{self.description:<52} paper={self.paper_value:>10.2f}{self.unit:<4} "
            f"measured={self.measured_value:>10.2f}{self.unit:<4} (x{ratio:.2f})"
        )


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table with column auto-sizing."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# shape assertions
# ----------------------------------------------------------------------
def saturates(throughputs: Sequence[float], tail_gain_limit: float = 0.35) -> bool:
    """True if the curve flattens: the last step gains less than
    ``tail_gain_limit`` relative throughput despite more load."""
    if len(throughputs) < 3:
        return False
    prev, last = throughputs[-2], throughputs[-1]
    if prev <= 0:
        return False
    return (last - prev) / prev < tail_gain_limit


def knee_index(throughputs: Sequence[float], gain_threshold: float = 0.25) -> int:
    """Index of the first point where marginal throughput gain drops
    below ``gain_threshold`` (the saturation knee)."""
    for i in range(1, len(throughputs)):
        prev, cur = throughputs[i - 1], throughputs[i]
        if prev > 0 and (cur - prev) / prev < gain_threshold:
            return i
    return len(throughputs) - 1


def monotonic_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True if values never drop by more than ``slack`` relative."""
    for a, b in zip(values, values[1:]):
        if a > 0 and (a - b) / a > slack:
            return False
    return True


def within_factor(measured: float, paper: float, factor: float) -> bool:
    """True if measured is within [paper/factor, paper*factor]."""
    if paper <= 0 or measured <= 0:
        return False
    return paper / factor <= measured <= paper * factor


# ----------------------------------------------------------------------
# collector share: what the cyclic collector costs a timed window
# ----------------------------------------------------------------------
@dataclass
class CollectorShare:
    """What :func:`collector_share` measured over its window."""

    wall_s: float = 0.0
    #: Seconds spent inside the collector, per generation collected.
    gen_s: List[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    #: Collections run, per generation.
    collections: List[int] = field(default_factory=lambda: [0, 0, 0])
    #: Tracked objects alive at the end of the window over those alive
    #: at its start, by type name: what the window left for every later
    #: full collection to walk.
    tracked: Counter = field(default_factory=Counter)

    @property
    def share(self) -> float:
        """Collector seconds over wall seconds (0.0 for an empty window)."""
        return sum(self.gen_s) / self.wall_s if self.wall_s else 0.0

    def table(self, title: str = "", top: int = 6) -> str:
        rows = [
            (f"gen {gen}", f"{self.gen_s[gen]:.3f}", self.collections[gen])
            for gen in range(3)
        ]
        rows.append(("wall", f"{self.wall_s:.3f}", f"{100 * self.share:.1f} %"))
        rows.extend(
            (f"+ {name}", "", count) for name, count in self.tracked.most_common(top)
        )
        rows.append(("+ tracked, all types", "", sum(self.tracked.values())))
        return format_table(["collector", "seconds", "count"], rows, title=title)


def _tracked_census() -> Counter:
    return Counter(type(obj).__name__ for obj in gc.get_objects())


@contextlib.contextmanager
def collector_share() -> Iterator[CollectorShare]:
    """Time the cyclic collector inside a ``with`` block.

    The span budget of ``benchmarks/e2e`` cannot see collector time: a
    collection runs inside whichever span happens to allocate.  This
    reads it off ``gc.callbacks`` instead (seconds and collections per
    generation) and adds a by-type census of the tracked objects the
    window left behind — the thing that sets the cost of every later
    generation-2 pass.  The yielded :class:`CollectorShare` is filled in
    when the block exits.  Collector settings are left alone; the two
    censuses run outside the timed window.
    """
    report = CollectorShare()
    started = [0.0]

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = perf_counter()
        else:
            report.gen_s[info["generation"]] += perf_counter() - started[0]
            report.collections[info["generation"]] += 1

    before = _tracked_census()
    gc.callbacks.append(on_gc)
    window_started = perf_counter()
    try:
        yield report
    finally:
        report.wall_s = perf_counter() - window_started
        gc.callbacks.remove(on_gc)
        report.tracked = _tracked_census() - before
