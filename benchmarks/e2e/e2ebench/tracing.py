"""Span tracer for the traced benchmark run.

The benchmark measures layers *from outside*: before a stack is wired,
:meth:`Tracer.wrap` replaces a public method on one **instance** with a
closure that records a span (name, start, end, parent, tag) around the
call.  Nothing in ``src/`` knows it is being traced.

Spans live in preallocated ``array`` columns — no allocation on record —
and are summarised after the run: a layer's *self time* is its spans'
duration minus the part their child spans cover, so the self times of
all names add up to the wall time of the root span.

``tag`` is whatever the driver last stored in :attr:`Tracer.tag` (the
index of the driver step in flight), so every span a step causes shares
one identifier; a flush's spans carry the tag of the submit that
triggered it.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, NamedTuple


class SpanTotals(NamedTuple):
    """Per-name aggregate over a finished trace (times in ns)."""

    count: int
    total_ns: int
    self_ns: int


class Tracer:
    """Fixed-capacity span recorder; see the module docstring."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.tag_of = array("q", bytes(8 * capacity))
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.n = 0  # spans allocated so far
        self.cur = -1  # index of the innermost open span
        self.tag = 0  # set by the driver: the step in flight

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def enter(self, name: str) -> int:
        """Open a span by hand (the driver's root span); returns its index."""
        i = self.n
        self.n = i + 1
        self.name_id[i] = self._intern(name)
        self.parent[i] = self.cur
        self.tag_of[i] = self.tag
        self.cur = i
        self.start[i] = perf_counter_ns()
        return i

    def exit(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.cur = self.parent[i]

    def traced(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so that every call made while a root span is
        open records one span."""
        nid = self._intern(name)
        name_id, parent, tag_of = self.name_id, self.parent, self.tag_of
        start, end = self.start, self.end
        clock = perf_counter_ns
        tr = self

        def call(*args, **kwargs):
            outer = tr.cur
            if outer < 0:  # outside the root span: set-up, verification
                return fn(*args, **kwargs)
            i = tr.n
            tr.n = i + 1
            tr.cur = i
            name_id[i] = nid
            parent[i] = outer
            tag_of[i] = tr.tag
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                tr.cur = outer

        return call

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` (a bound method) with its traced twin."""
        setattr(obj, attr, self.traced(getattr(obj, attr), name))

    def wrap_generator(self, obj: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a method that returns a generator: the
        work happens in ``next()``, so each resumption is one span and a
        consumer that stops early pays for no more than it pulled."""
        make = getattr(obj, attr)
        resume = self.traced(next, name)
        done = object()

        def generate(*args, **kwargs):
            it = make(*args, **kwargs)
            while True:
                item = resume(it, done)
                if item is done:
                    return
                yield item

        setattr(obj, attr, generate)

    # ------------------------------------------------------------------
    # after the run
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, SpanTotals]:
        """Count, inclusive time and self time per span name.

        Children are allocated after their parent, so one pass from the
        last span to the first has every child's duration charged to its
        parent before the parent itself is read.
        """
        n = self.n
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        covered = [0] * n  # ns of each span covered by its direct children
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            nid = name_id[i]
            count[nid] += 1
            total[nid] += dur
            own[nid] += dur - covered[i]
            p = parent[i]
            if p >= 0:
                covered[p] += dur
        return {
            name: SpanTotals(count[nid], total[nid], own[nid])
            for nid, name in enumerate(self.names)
        }

    def dump(self, path: str, limit: int) -> int:
        """Write the first ``limit`` spans as JSON lines; returns how many.

        The head of a run is enough to follow requests and batches across
        layers; the per-layer table is computed from *all* spans.
        """
        written = min(self.n, limit)
        names = self.names
        with open(path, "w") as out:
            out.write(json.dumps({"spans_recorded": self.n, "spans_written": written}))
            out.write("\n")
            for i in range(written):
                out.write(
                    '{"id":%d,"name":"%s","start_ns":%d,"end_ns":%d,"parent":%d,"tag":%d}\n'
                    % (i, names[self.name_id[i]], self.start[i], self.end[i],
                       self.parent[i], self.tag_of[i])
                )
        return written
