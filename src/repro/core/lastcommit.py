"""The ``lastCommit`` stores, and the one owner of their rules.

The status oracle's hot state is one logical table: row key -> commit
timestamp of the last transaction that wrote the row (``lastCommit`` in
the paper's Algorithms 1-3).  Every rule over that table lives in this
module, once per store kind, behind the two hooks :func:`store_hooks`
resolves for a store:

* ``scan(rows, start_ts) -> (conflict_row | None, rows_examined)`` —
  the first row, in ``rows`` iteration order, whose ``lastCommit`` is
  above ``start_ts`` (Algorithms 1/2, lines 1-5), with the number of
  rows examined up to and including it (all of them on a clean pass);
* ``install(rows, commit_ts)`` — set ``lastCommit`` of every row to
  ``commit_ts`` (lines 7-9).

:func:`newer_rows` is the replay filter the WAL paths apply before
``install``.  The decide loop, ``commit()``, the partitioned engine
and recovery all call these; none of them scans or installs by hand.

``dict`` (the default)
    An *exact* ``dict`` of row -> timestamp, so the cyclic collector
    never tracks it (a store of ints holds no references it could
    walk); its hooks are closures over the dict's bound ``get``,
    ``keys().isdisjoint`` and ``update``.  The scan runs one C-speed
    ``isdisjoint`` sweep first, so a request whose checked rows were
    never written costs no per-row probe; the install is one
    ``update(fromkeys(rows, Tc))``.  A ``dict`` subclass carrying the
    hooks as methods would be GC-tracked, and a full collection would
    walk every entry (see ROADMAP.md, "Decide path").

``array`` (:class:`ArrayLastCommit`)
    The same exact ``dict`` as the only store, and below
    :data:`NUMPY_MIN_ROWS` rows the same scan and install.  From that
    size up the scan is one gather plus one ``max(...) > start_ts``
    compare instead of N interpreted probes: numpy gathers int keys
    from a direct-addressed ``array('q')`` of timestamps (the *lane*,
    indexed by the key itself, 0 = never written), and a C-level
    ``itemgetter`` gather over the dict serves the rest.  The lane is
    built from the dict the first time the store meets a row set that
    wide, so a store that never gathers never carries one.  Benchmark
    E24 pins the >= 2x batch-128 speedup; the hypothesis equivalence
    suites pin array == dict decisions bit-for-bit.

bounded (:class:`BoundedLastCommit`)
    Algorithm 3 (Appendix A): at most ``max_rows`` rows in LRU order
    over an ``OrderedDict`` (whichever backend is named: the bounded
    scan is the scalar Algorithm 3 scan and reads no lane), plus
    ``tmax``, the highest commit timestamp ever evicted.  Its scan also
    aborts on an absent row when ``tmax > start_ts``; its install
    reinserts at the MRU end and evicts from the LRU end.

Every store speaks the ``MutableMapping`` protocol, so recovery,
analytics and the equivalence tests' ``dict(...)`` comparisons work on
any of them unchanged.

Backend selection mirrors the ``REPRO_ENGINE`` idiom
(:mod:`repro.core.engine`): ``make_lastcommit()`` resolves the
``REPRO_LASTCOMMIT`` environment variable (``dict`` | ``array``), and
``make_oracle(..., lastcommit=...)`` threads an explicit choice
through, per shard, for partitioned deployments.
"""

from __future__ import annotations

import os
from array import array
from collections import OrderedDict
from collections.abc import Mapping, MutableMapping
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple, Union

try:  # numpy is optional: the itemgetter path is the mandatory fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: ``ndarray.max()`` runs through a Python-level wrapper; the ufunc
#: reduction is the same C loop without the extra frame.
_np_max = _np.maximum.reduce if _np is not None else None

__all__ = [
    "INT_LANE_BOUND",
    "LASTCOMMIT_ENV",
    "NUMPY_MIN_ROWS",
    "LastCommitStore",
    "ArrayLastCommit",
    "BoundedLastCommit",
    "default_lastcommit_kind",
    "make_lastcommit",
    "newer_rows",
    "store_hooks",
]

#: Environment variable selecting the default backend (``dict``/``array``).
LASTCOMMIT_ENV = "REPRO_LASTCOMMIT"

#: Row-set size at which ``ArrayLastCommit.scan_conflict`` switches
#: from the dict store's scalar scan to a gather (numpy's lane, or the
#: itemgetter gather where the lane cannot run), and at which the store
#: first builds its lane.  Below it the fixed cost of a gather — the
#: index array and ``frombuffer`` view, or the ``KeyError`` on a
#: never-written row and the rescan after a conflict — outweighs N
#: interpreted probes; typical read sets and partition shares (<= ~21
#: rows) stay on the probe and never build a lane.
NUMPY_MIN_ROWS = 32

#: Largest int key (exclusive) the lane records, and the cap on its
#: length.  The lane is direct-addressed (8 bytes per possible key below
#: the largest recorded one), so the bound caps it at 16 MB.
INT_LANE_BOUND = 1 << 21

#: The one key type the lane holds: ``bool`` and every other numeric
#: type end it (numpy would cast them onto an int cell).
_INT_ONLY = frozenset((int,))

_fromkeys = dict.fromkeys


class LastCommitStore(MutableMapping):
    """Interface contract for the non-``dict`` ``lastCommit`` backends.

    A backend is a ``MutableMapping`` from row key to positive commit
    timestamp whose equality, iteration and ``dict(...)`` conversions
    match the plain-dict backend, plus the two hooks
    :func:`store_hooks` hands the decide paths:

    * :meth:`scan_conflict` — side-effect-free first-conflict scan with
      the dict backend's exact row order and rows-examined count;
    * :meth:`install` — store a whole write set at one timestamp (one
      call per committed transaction).

    The plain ``dict`` default does not subclass this ABC (it must stay
    an exact, untracked ``dict``); :func:`store_hooks` builds its hooks
    as closures instead.
    """

    __slots__ = ()

    #: Factory kind string this backend answers to.
    kind = "abstract"

    #: Highest commit timestamp the store has evicted: the floor an
    #: absent row is known to be below.  Only a bounded store evicts.
    tmax = 0

    def install(self, keys, commit_ts: int) -> None:
        raise NotImplementedError

    def scan_conflict(
        self, rows, start_ts: int
    ) -> Tuple[Optional[Hashable], int]:
        raise NotImplementedError


class ArrayLastCommit(LastCommitStore):
    """An exact ``dict`` of row -> commit timestamp, plus a lazily built
    timestamp lane that gathers wide int-keyed row sets in one step.

    The dict is the only authority.  The lane is a direct-addressed
    ``array('q')`` of timestamps indexed by the int key itself (0 =
    never written; commit timestamps are >= 1), built from the dict the
    first time the store meets a row set of :data:`NUMPY_MIN_ROWS` rows,
    so a store that never gathers never carries one.  ``_lane`` is
    ``None`` until then, ``False`` once a key the lane cannot hold (not
    an exact non-negative ``int``) has been written, and otherwise the
    array, which is never empty.  Int keys at or above
    :data:`INT_LANE_BOUND` stay in the dict only: the lane never grows
    past the bound, so its bounds guard sends any row set holding such
    a key to the exact ``itemgetter`` gather.

    Every write goes through :meth:`install`, which writes the lane or
    ends it.  A deleted row keeps its lane cell, so the lane may
    *over*-report; a gather above ``start_ts`` is only a suspicion,
    settled by the scalar rescan, and the lane never under-reports.
    """

    __slots__ = ("_d", "_lane", "_get", "_isdisjoint", "_update")

    kind = "array"

    def __init__(self) -> None:
        #: row -> commit timestamp: an exact dict of ints, which the
        #: cyclic collector never tracks.
        d: Dict[Hashable, int] = {}
        self._d = d
        #: None (not built) | False (ended) | array('q'): ts by int key.
        self._lane: Union[None, bool, array] = None
        # The dict's bound methods, resolved once (the keys view is
        # live: it sees every later write).
        self._get = d.get
        self._isdisjoint = d.keys().isdisjoint
        self._update = d.update

    # -- mapping protocol ------------------------------------------------

    def __getitem__(self, key: Hashable) -> int:
        return self._d[key]

    def get(self, key: Hashable, default=None):
        return self._d.get(key, default)

    def __setitem__(self, key: Hashable, commit_ts: int) -> None:
        self.install((key,), commit_ts)

    def __delitem__(self, key: Hashable) -> None:
        del self._d[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._d

    def __eq__(self, other: object) -> bool:
        # Mapping-value equality against *any* mapping (dict included),
        # so backend-crossed comparisons in tests behave like dict==dict.
        if isinstance(other, Mapping):
            return self._d == dict(other)
        return NotImplemented

    # MutableMapping sets __hash__ = None; keep it that way.
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._d!r})"

    def clear(self) -> None:
        self._d.clear()
        self._lane = None

    # -- the two hooks store_hooks() hands the decide paths ---------------

    def _build_lane(self) -> Union[bool, array]:
        """Build the lane from the dict, or end it when some key is not
        an exact non-negative ``int``.  Runs once per store."""
        d = self._d
        if not _INT_ONLY.issuperset(map(type, d)) or (d and min(d) < 0):
            self._lane = False
            return False
        top = min(max(d, default=0) + 1, INT_LANE_BOUND)
        lane = array("q", bytes(top << 3))
        for key, ts in d.items():
            if key < top:
                lane[key] = ts
        self._lane = lane
        return lane

    def install(self, keys, commit_ts: int) -> None:
        """Store a whole write set (a set, tuple or list) at ``commit_ts``.

        The dict store's own ``update(fromkeys(...))``, then the lane's
        cells for the same rows when the lane exists; a write set of
        :data:`NUMPY_MIN_ROWS` rows or more builds it.
        """
        if commit_ts <= 0:
            raise ValueError(
                f"ArrayLastCommit timestamps must be positive (0 is the "
                f"lane's absent value); got {commit_ts!r}"
            )
        self._update(_fromkeys(keys, commit_ts))
        lane = self._lane
        if lane is None:
            if len(keys) >= NUMPY_MIN_ROWS:
                self._build_lane()
        elif lane:
            for key in keys:
                if key.__class__ is not int or key < 0:
                    # numpy would cast such a key onto some int cell:
                    # the lane ends for good.
                    self._lane = False
                    return
                size = len(lane)
                if key >= size:
                    if key >= INT_LANE_BOUND:
                        continue  # dict only; the bounds guard covers it
                    # Doubling, zero-filled growth, capped at the bound.
                    grown = min(max(key + 1, 2 * size), INT_LANE_BOUND)
                    lane.frombytes(bytes((grown - size) << 3))
                lane[key] = commit_ts

    def scan_conflict(
        self, rows, start_ts: int
    ) -> Tuple[Optional[Hashable], int]:
        """First conflicting row and rows-examined count, dict-identically.

        Below :data:`NUMPY_MIN_ROWS` rows this is the dict store's scan:
        the C-speed ``isdisjoint`` sweep, then the early-stop ``get``
        probe.  From the threshold up, one gather and one ``max`` first:

        * **lane** (numpy present, the lane live, every checked row
          castable to an int below the lane's length): one ``fromiter``
          and one ``lane[keys]`` gather — no per-row Python work.  A
          checked key of another numeric type may cast onto some int
          cell, but while the lane is live no such key is stored, so
          the gather can only over-report.
        * **itemgetter** (otherwise): ``max(itemgetter(*rows)(d))``, a
          C-level dict probe per row; a never-written row raises
          ``KeyError`` and the scan falls back to the probe.

        A gather at or below ``start_ts`` clears the whole set; one
        above it, or one that cannot run, falls through to the probe —
        so the reported conflict row and the examined count match the
        dict store's scan exactly in every case.
        """
        n = len(rows)
        if n < NUMPY_MIN_ROWS:
            if self._isdisjoint(rows):
                # No checked row was ever written: one C-speed sweep.
                return None, n
        else:
            lane = self._lane
            if lane is None:
                lane = self._build_lane()
            peak = -1  # -1: no verdict
            try:
                if lane and _np is not None:
                    try:
                        keys_np = _np.fromiter(rows, _np.int64, n)
                    except (TypeError, ValueError, OverflowError):
                        keys_np = None
                    if (keys_np is not None
                            and int(_np_max(keys_np)) < len(lane)):
                        peak = int(_np_max(
                            _np.frombuffer(lane, dtype=_np.int64)[keys_np]
                        ))
                if peak < 0:
                    peak = max(itemgetter(*rows)(self._d))
            except (KeyError, IndexError):
                # A never-written row (itemgetter), or a negative key
                # beyond numpy's wrap-around (lane): no verdict.
                peak = -1
            if 0 <= peak <= start_ts:
                return None, n
            if peak < 0 and self._isdisjoint(rows):
                return None, n
        get = self._get
        examined = 0
        for row in rows:
            examined += 1
            last = get(row)
            if last is not None and last > start_ts:
                return row, examined
        return None, examined


class BoundedLastCommit(LastCommitStore):
    """Algorithm 3's ``lastCommit``: at most ``max_rows`` rows plus ``tmax``.

    The one bounded implementation, over an LRU-ordered ``OrderedDict``
    it reaches only through the ``get`` / ``pop`` / ``popitem`` mapping
    surface.  The mapping protocol is the LRU mapping's, unchanged
    (iteration runs oldest first).
    """

    __slots__ = ("_lru", "max_rows", "tmax")

    def __init__(self, lru: MutableMapping, max_rows: int) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self._lru = lru
        self.max_rows = max_rows
        #: the highest commit timestamp evicted so far (Appendix A's Tmax)
        self.tmax = 0

    def __getitem__(self, key: Hashable) -> int:
        return self._lru[key]

    def get(self, key: Hashable, default=None):
        return self._lru.get(key, default)

    def __setitem__(self, key: Hashable, commit_ts: int) -> None:
        self._lru[key] = commit_ts

    def __delitem__(self, key: Hashable) -> None:
        del self._lru[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._lru)

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def scan_conflict(
        self, rows, start_ts: int
    ) -> Tuple[Optional[Hashable], int]:
        """Algorithm 3, lines 1-11: the unbounded scan, plus a row absent
        from memory conflicts *pessimistically* when ``tmax > start_ts``
        (its evicted entry may be newer than the snapshot).  The caller
        tells the two verdicts apart by membership: only a ``tmax``
        conflict row is absent."""
        get = self._lru.get
        tmax = self.tmax
        examined = 0
        for row in rows:
            examined += 1
            last = get(row)
            if last is None:
                if tmax > start_ts:
                    return row, examined
            elif last > start_ts:
                return row, examined
        return None, examined

    def install(self, keys, commit_ts: int) -> None:
        """Reinsert every row at the MRU end; past ``max_rows``, evict
        from the LRU end and raise ``tmax`` to the evicted timestamp."""
        lru = self._lru
        max_rows = self.max_rows
        for row in keys:
            if row in lru:
                lru.pop(row)
            lru[row] = commit_ts
            if len(lru) > max_rows:
                evicted = lru.popitem(last=False)[1]
                if evicted > self.tmax:
                    self.tmax = evicted


def store_hooks(store) -> Tuple[Callable, Callable]:
    """``(scan, install)`` for ``store`` — see the module docstring.

    A ``dict`` gets closures over its bound methods: they add no
    attribute to the dict, so it stays an exact, untracked ``dict``.
    Every other store is a :class:`LastCommitStore` and hands over its
    own two methods.
    """
    if not isinstance(store, dict):
        return store.scan_conflict, store.install
    get = store.get
    isdisjoint = store.keys().isdisjoint  # a live view: sees later installs
    update = store.update
    fromkeys = dict.fromkeys

    def scan(rows, start_ts):
        if isdisjoint(rows):
            # No checked row was ever written: one C-speed sweep.
            return None, len(rows)
        examined = 0
        for row in rows:
            examined += 1
            last = get(row)
            if last is not None and last > start_ts:
                return row, examined
        return None, examined

    def install(rows, commit_ts):
        update(fromkeys(rows, commit_ts))

    return scan, install


def newer_rows(store, rows, commit_ts: int) -> List[Hashable]:
    """The replay filter: the rows of a recovered commit that
    ``commit_ts`` is newer for — above ``lastCommit(row)``, or above the
    store's ``tmax`` for an absent row (its evicted entry may be newer).

    Installing only these keeps a re-applied or out-of-order record from
    moving any row backwards, so replay is idempotent on every store.
    """
    get = store.get
    floor = 0 if isinstance(store, dict) else store.tmax
    return [row for row in rows if commit_ts > get(row, floor)]


def default_lastcommit_kind() -> str:
    """Backend selected by ``REPRO_LASTCOMMIT`` (``dict`` when unset)."""
    return os.environ.get(LASTCOMMIT_ENV, "dict").strip().lower() or "dict"


def make_lastcommit(
    kind: Union[str, MutableMapping, None] = None,
    *,
    bounded: bool = False,
):
    """Build a ``lastCommit`` store.

    ``kind`` is a backend name (``"dict"`` | ``"array"``), an existing
    store instance (returned as-is, for tests injecting a pre-seeded
    store), or ``None`` to resolve ``REPRO_LASTCOMMIT``.  ``bounded``
    returns the ``OrderedDict`` LRU mapping :class:`BoundedLastCommit`
    wraps, for either backend name: Algorithm 3's scan is scalar and
    reads no lane.
    """
    if kind is None:
        kind = default_lastcommit_kind()
    if not isinstance(kind, str):
        return kind
    name = kind.strip().lower()
    if name not in ("dict", "array"):
        raise ValueError(
            f"unknown lastcommit backend {kind!r} (expected 'dict' or "
            f"'array'; set {LASTCOMMIT_ENV} or pass lastcommit= explicitly)"
        )
    if bounded:
        return OrderedDict()
    return {} if name == "dict" else ArrayLastCommit()
