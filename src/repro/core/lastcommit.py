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
    Keys are interned to dense int ids (:class:`~repro.core.keyspace.
    KeyInterner`), timestamps live in a flat ``array('q')`` indexed by
    id, and 0 is the *absent* sentinel (commit timestamps are always
    >= 1; recovery already treats 0 as "never written").  From
    :data:`NUMPY_MIN_ROWS` rows up the scan is one gather plus one
    ``max(...) > start_ts`` compare instead of N interpreted dict
    probes — numpy vectorises the int-key case, a C-level
    ``itemgetter`` id + timestamp gather serves the rest; below it, the
    scan is the same early-stop per-row probe as the dict backend's.
    The install is one id gather plus a flat store sweep.  Benchmark
    E24 pins the >= 2x batch-128 speedup; the hypothesis equivalence
    suites pin array == dict decisions bit-for-bit.

bounded (:class:`BoundedLastCommit`)
    Algorithm 3 (Appendix A): at most ``max_rows`` rows in LRU order
    over an ``OrderedDict`` (dict backend) or a
    :class:`BoundedArrayLastCommit` (array backend), plus ``tmax``, the
    highest commit timestamp ever evicted.  Its scan also aborts on an
    absent row when ``tmax > start_ts``; its install reinserts at the
    MRU end and evicts from the LRU end.

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

from .keyspace import KeyInterner

try:  # numpy is optional: the itemgetter path is the mandatory fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: ``ndarray.max()`` runs through a Python-level wrapper; the ufunc
#: reduction is the same C loop without the extra frame.
_np_max = _np.maximum.reduce if _np is not None else None

__all__ = [
    "LASTCOMMIT_ENV",
    "NUMPY_MIN_ROWS",
    "LastCommitStore",
    "ArrayLastCommit",
    "BoundedArrayLastCommit",
    "BoundedLastCommit",
    "default_lastcommit_kind",
    "make_lastcommit",
    "newer_rows",
    "store_hooks",
]

#: Environment variable selecting the default backend (``dict``/``array``).
LASTCOMMIT_ENV = "REPRO_LASTCOMMIT"

#: Row-set size at which ``ArrayLastCommit.scan_conflict`` switches
#: from the scalar early-stop probe to a gather (numpy's int lane, or
#: the itemgetter chain where the lane cannot run).  Below it the fixed
#: cost of a gather — the index array and ``frombuffer`` view, or the
#: ``KeyError`` on a never-written row and the rescan after a conflict —
#: outweighs N interpreted probes; typical read sets and partition
#: shares (<= ~16 rows) stay on the probe even when numpy is installed.
NUMPY_MIN_ROWS = 32


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
    """Flat ``array('q')`` of commit timestamps indexed by interned slot.

    Zero-valued slots are absent (commit timestamps are >= 1), and slot
    0 — which the interner never assigns — stays permanently 0 so the
    vectorised check can route "unseen" lookups there without masking.
    The array grows monotonically with the interner — keys deleted from
    the *mapping* keep their slot, so re-installs never re-intern and
    ids stay stable for the store's lifetime (and across processes, per
    the interner's contract).
    """

    __slots__ = ("_interner", "_ts", "_live")

    kind = "array"

    def __init__(self, interner: Optional[KeyInterner] = None) -> None:
        self._interner = interner if interner is not None else KeyInterner()
        #: commit timestamp per slot; 0 == absent.  Grown (never shrunk)
        #: to the interner's slot capacity on demand.
        self._ts: array = array("q", bytes(8 * self._interner.slot_capacity))
        #: live (non-zero) entry count: the mapping's len().
        self._live = 0

    # -- growth ----------------------------------------------------------

    def _grow(self) -> array:
        """Extend the slot array to the interner's current capacity.

        numpy views are never cached across calls precisely because of
        this method: a live ``frombuffer`` view pins the buffer and
        ``array.extend`` would raise ``BufferError``.
        """
        ts = self._ts
        short = self._interner.slot_capacity - len(ts)
        if short > 0:
            ts.frombytes(bytes(8 * short))
        return ts

    # -- mapping protocol ------------------------------------------------

    def __getitem__(self, key: Hashable) -> int:
        kid = self._interner._ids.get(key)
        if kid is not None and kid < len(self._ts):
            ts = self._ts[kid]
            if ts:
                return ts
        raise KeyError(key)

    def get(self, key: Hashable, default=None):
        kid = self._interner._ids.get(key)
        if kid is not None and kid < len(self._ts):
            ts = self._ts[kid]
            if ts:
                return ts
        return default

    def __setitem__(self, key: Hashable, commit_ts: int) -> None:
        if commit_ts <= 0:
            raise ValueError(
                f"ArrayLastCommit timestamps must be positive (0 is the "
                f"absent sentinel); got {commit_ts!r} for {key!r}"
            )
        kid = self._interner.intern(key)
        ts = self._ts
        if kid >= len(ts):
            ts = self._grow()
        if ts[kid] == 0:
            self._live += 1
            self._record_insert(kid)
        ts[kid] = commit_ts

    def __delitem__(self, key: Hashable) -> None:
        kid = self._interner._ids.get(key)
        if kid is None or kid >= len(self._ts) or self._ts[kid] == 0:
            raise KeyError(key)
        self._ts[kid] = 0
        self._live -= 1
        self._record_delete(kid)

    def __iter__(self) -> Iterator[Hashable]:
        # Id (= deterministic intern) order; callers needing LRU order
        # use BoundedArrayLastCommit.
        keys = self._interner._keys
        ts = self._ts
        for kid in range(len(ts)):
            if ts[kid]:
                yield keys[kid]

    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: Hashable) -> bool:
        kid = self._interner._ids.get(key)
        return kid is not None and kid < len(self._ts) and self._ts[kid] != 0

    def __eq__(self, other: object) -> bool:
        # Mapping-value equality against *any* mapping (dict included),
        # so backend-crossed comparisons in tests behave like dict==dict.
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    # MutableMapping sets __hash__ = None; keep it that way.
    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({dict(self)!r})"

    # -- LRU-order hooks (no-ops here; BoundedArrayLastCommit overrides) --

    def _record_insert(self, kid: int) -> None:
        pass

    def _record_delete(self, kid: int) -> None:
        pass

    # -- the two hooks store_hooks() hands the decide paths ---------------

    def install(self, keys, commit_ts: int) -> None:
        """Store a whole write set (a set, tuple or list) at ``commit_ts``.

        Already-interned keys take one C-level id gather; only a write
        set with an unseen key pays ``intern_many`` (deterministic id
        order for the new ones) and the slot-array grow.  Then one
        store sweep — no Python call per row.
        """
        if commit_ts <= 0:
            raise ValueError(
                f"ArrayLastCommit timestamps must be positive (0 is the "
                f"absent sentinel); got {commit_ts!r}"
            )
        if not keys:
            return
        interner = self._interner
        ts = self._ts
        try:
            kids = itemgetter(*keys)(interner._ids)
        except KeyError:
            kids = interner.intern_many(keys)
        if len(ts) < len(interner._keys):
            ts = self._grow()
        fresh = 0
        if kids.__class__ is int:  # one key: itemgetter returned its id
            if ts[kids] == 0:
                fresh = 1
            ts[kids] = commit_ts
        else:
            for kid in kids:
                if ts[kid] == 0:
                    fresh += 1
                ts[kid] = commit_ts
        self._live += fresh

    def scan_conflict(
        self, rows, start_ts: int
    ) -> Tuple[Optional[Hashable], int]:
        """First conflicting row and rows-examined count, dict-identically.

        Three regimes, by row count:

        * **scalar probe** (below :data:`NUMPY_MIN_ROWS` rows): the dict
          backend's faithful early-stop scan, one id probe and one slot
          read per row.  On a short row set a gather costs more than it
          saves: a never-interned row makes it raise, and a conflict
          pays a full rescan after it.
        * **int lane** (at or above :data:`NUMPY_MIN_ROWS`, numpy
          present, every interned key an exact int): one ``fromiter``
          over the row set, one vectorised slot gather from the
          interner's int table (0 routes to the reserved always-0
          slot), one vectorised timestamp gather + ``max`` — zero
          per-row Python work.  The gathered max can only over-report
          (see :mod:`repro.core.keyspace` on checked-key aliasing), so
          a value above ``start_ts`` is a *suspicion*, not a verdict.
        * **itemgetter chain** (at or above the threshold, when the int
          lane cannot run: numpy absent, non-int keys, keys beyond the
          int table): one C-level id gather + one C-level timestamp
          gather + one ``max`` — no per-row bytecode, but still a dict
          probe per row inside the C call.

        A gather that finds a suspected conflict, or cannot run because
        a row was never interned, falls through to the scalar probe —
        so the reported conflict row and the examined count match the
        dict backend's scan exactly in every case.
        """
        interner = self._interner
        ids_map = interner._ids
        ts = self._ts
        n = len(rows)
        if n >= NUMPY_MIN_ROWS:
            peak = -1  # -1: no gather ran, probe row by row
            try:
                if _np is not None and interner._int_lane:
                    try:
                        keys_np = _np.fromiter(rows, _np.int64, n)
                    except (TypeError, ValueError, OverflowError):
                        keys_np = None
                    if keys_np is not None:
                        table = interner._int_table
                        if len(table) and int(_np_max(keys_np)) < len(table):
                            kids_np = _np.frombuffer(table, dtype=_np.int64)[
                                keys_np
                            ]
                            peak = int(_np_max(
                                _np.frombuffer(ts, dtype=_np.int64)[kids_np]
                            ))
                if peak < 0:
                    kids = itemgetter(*rows)(ids_map)
                    peak = max(itemgetter(*kids)(ts))
            except (KeyError, IndexError):
                # Some row was never interned (or its slot predates the
                # last grow): no gather possible.
                peak = -1
            if 0 <= peak <= start_ts:
                return None, n
        ids_get = ids_map.get
        examined = 0
        for row in rows:
            examined += 1
            kid = ids_get(row)
            if kid is not None and kid < len(ts) and ts[kid] > start_ts:
                return row, examined
        return None, examined

    def bulk_reset(self, watermark: Optional[int] = None) -> None:
        """Epoch reset: drop all entries, or those at/below ``watermark``.

        The interner (and therefore every id) survives — the point of
        an epoch flip is to reuse the keyspace without re-interning.
        """
        ts = self._ts
        if watermark is None:
            self._ts = array("q", bytes(8 * len(ts)))
            self._live = 0
            self._order_clear()
            return
        live = self._live
        for kid in range(len(ts)):
            stamp = ts[kid]
            if stamp and stamp <= watermark:
                ts[kid] = 0
                live -= 1
                self._record_delete(kid)
        self._live = live

    def clear(self) -> None:
        self.bulk_reset()

    def _order_clear(self) -> None:
        pass

    # -- introspection ----------------------------------------------------

    @property
    def interner(self) -> KeyInterner:
        return self._interner

    def slot_count(self) -> int:
        """Allocated slots (interned keys), live or not."""
        return len(self._ts)


class BoundedArrayLastCommit(ArrayLastCommit):
    """LRU-ordered array store under :class:`BoundedLastCommit`.

    Adds the ``OrderedDict`` surface the bounded store uses —
    insertion-ordered iteration, ``pop(row)``, ``popitem(last=False)``
    — on top of the flat timestamp array.  Order lives in an
    insertion-ordered ``dict`` of ids; evicted keys keep their interner
    slot (the array never shrinks), so a bounded store's footprint is
    bounded in *live entries* while the slot array tracks total keys
    ever seen — the documented trade-off for id stability.
    """

    __slots__ = ("_order",)

    def __init__(self, interner: Optional[KeyInterner] = None) -> None:
        super().__init__(interner)
        #: id -> None, in LRU order (dict preserves insertion order).
        self._order: Dict[int, None] = {}

    def _record_insert(self, kid: int) -> None:
        self._order[kid] = None

    def _record_delete(self, kid: int) -> None:
        del self._order[kid]

    def _order_clear(self) -> None:
        self._order.clear()

    def __iter__(self) -> Iterator[Hashable]:
        keys = self._interner._keys
        for kid in self._order:
            yield keys[kid]

    def __len__(self) -> int:
        return len(self._order)

    def install(self, keys, commit_ts: int) -> None:
        # Per key, so every fresh key is recorded in LRU order.
        for key in keys:
            self[key] = commit_ts

    def popitem(self, last: bool = True) -> Tuple[Hashable, int]:
        """(key, ts) from the LRU (``last=False``) or MRU end."""
        order = self._order
        if not order:
            raise KeyError("popitem(): store is empty")
        kid = next(reversed(order)) if last else next(iter(order))
        key = self._interner._keys[kid]
        ts = self._ts[kid]
        del order[kid]
        self._ts[kid] = 0
        self._live -= 1
        return key, ts


class BoundedLastCommit(LastCommitStore):
    """Algorithm 3's ``lastCommit``: at most ``max_rows`` rows plus ``tmax``.

    The one bounded implementation, over either backend's LRU-ordered
    mapping (``OrderedDict`` or :class:`BoundedArrayLastCommit`), which
    it reaches only through the ``get`` / ``pop`` / ``popitem`` mapping
    surface both share.  The mapping protocol is the LRU mapping's,
    unchanged (iteration runs oldest first).
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
    interner: Optional[KeyInterner] = None,
):
    """Build a ``lastCommit`` store.

    ``kind`` is a backend name (``"dict"`` | ``"array"``), an existing
    store instance (returned as-is, for tests injecting a pre-seeded
    store), or ``None`` to resolve ``REPRO_LASTCOMMIT``.  ``bounded``
    selects the LRU-ordered mapping each backend provides
    (``OrderedDict`` / :class:`BoundedArrayLastCommit`) for
    :class:`BoundedLastCommit` to wrap.
    """
    if kind is None:
        kind = default_lastcommit_kind()
    if not isinstance(kind, str):
        return kind
    name = kind.strip().lower()
    if name == "dict":
        return OrderedDict() if bounded else {}
    if name == "array":
        cls = BoundedArrayLastCommit if bounded else ArrayLastCommit
        return cls(interner)
    raise ValueError(
        f"unknown lastcommit backend {kind!r} (expected 'dict' or 'array'; "
        f"set {LASTCOMMIT_ENV} or pass lastcommit= explicitly)"
    )
