"""The status oracle: centralized, lock-free conflict detection.

This module implements the paper's three commit algorithms:

* **Algorithm 1** (§2.2) — snapshot isolation.  The commit request carries
  the *write set* ``R``; the oracle aborts if any written row has
  ``lastCommit(r) > Ts(txn)``, else assigns ``Tc`` and updates
  ``lastCommit`` for every written row.
* **Algorithm 2** (§5) — write-snapshot isolation.  The commit request
  carries both the write set ``Rw`` and the read set ``Rr``; the oracle
  checks ``lastCommit`` over the **read** rows and, on commit, updates it
  over the **write** rows.
* **Algorithm 3** (Appendix A) — the bounded-memory refinement used by the
  real Omid deployment: ``lastCommit`` keeps only the most recent rows
  that fit in memory plus ``Tmax``, the maximum timestamp evicted; a row
  missing from memory with ``Tmax > Ts(txn)`` aborts *pessimistically*.

The diff between Algorithms 1 and 2 is deliberately tiny — which rows are
checked, and nothing else — making the paper's claim that "the changes
into the implementation of snapshot isolation ... are a few" (§5) literal
in this code: compare :meth:`SnapshotIsolationOracle.rows_to_check`
against :meth:`WriteSnapshotIsolationOracle.rows_to_check`.

The oracle is single-threaded by construction ("the current implementation
of status oracle executes the conflict detection algorithm in a critical
section", §6.3); callers that want concurrency model it *around* the
oracle (see :mod:`repro.sim`).

Two request surfaces share the same semantics: :meth:`StatusOracle.commit`
decides one request at a time (one WAL record per decision), and
:meth:`StatusOracle.decide_batch` decides a whole group-commit batch in a
single bulk pass persisted as one group-commit record — the hot path the
:mod:`repro.server` frontend flushes through (see that package's
docstring for where the time goes).

**Hot path.**  The batch decide loop is the single-node ceiling, and it
exists in two representations behind the same decisions (selected by
``REPRO_LASTCOMMIT`` / ``make_oracle(..., lastcommit=...)``; see
:mod:`repro.core.lastcommit`):

* ``dict`` (default) — :meth:`StatusOracle._decide_batch_fast`: one
  C-speed ``keys().isdisjoint`` sweep per request filters the common
  never-written case; only requests whose checked rows intersect
  ``lastCommit`` pay the per-row probe scan.  Installs are one
  ``dict.update(dict.fromkeys(ws, Tc))``.  Weakness: under a *warmed*
  keyspace (every checked row present), the prefilter always fails and
  each request degrades to N interpreted probe iterations.
* ``array`` — :meth:`StatusOracle._decide_batch_fast_array`: row keys
  are interned to dense ids (:class:`~repro.core.keyspace.KeyInterner`)
  and timestamps live in a flat ``array('q')``.  Each conflict check is
  one :meth:`~repro.core.lastcommit.ArrayLastCommit.scan_conflict`
  call: for plain non-negative int row keys (the interner's *int lane*)
  a fully vectorised numpy sweep — key array -> slot-id gather ->
  timestamp gather -> one ``max(...) > Ts`` compare, zero per-row
  interpreted work; otherwise a C-level ``itemgetter`` double gather
  over the id map and timestamp array.  Only a *suspected* conflict
  rescans scalar-wise (in the same frozenset order, so the reported
  conflict row and ``rows_checked`` match the dict backend
  bit-for-bit).  Installs intern the write set once and store into
  flat slots.

Benchmark E18 pins the batching win itself; E24 pins the array backend
at >= 2x the dict backend on warmed batch-128 decides and measures the
per-entry footprint of both; the hypothesis equivalence suites pin
array == dict across decisions, commit timestamps, WAL replay and
recovery.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import FrozenInstanceError, dataclass, field
from operator import itemgetter
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.core.commit_table import CommitTable
from repro.core.engine import CommitEngine
from repro.core.errors import OracleClosed, RecoveryError
from repro.core.lastcommit import ArrayLastCommit, make_lastcommit
from repro.core.timestamps import TimestampOracle
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL

RowKey = Hashable

# Appendix A sizing: row id + start ts + commit ts at 8 bytes each, plus
# bookkeeping, is estimated at 32 bytes per lastCommit entry.
BYTES_PER_LASTCOMMIT_ENTRY = 32

#: Reason tag recorded for client-initiated (non-conflict) aborts in a
#: decision batch (re-exported by :mod:`repro.server`).
CLIENT_ABORT = "client-abort"


class CommitRequest:
    """A client's commit request.

    Under SI only ``write_set`` matters; under WSI the oracle checks
    ``read_set`` and installs ``write_set``.  A read-only transaction
    submits both sets empty (§5.1) so the oracle commits it without any
    conflict computation or WAL write.

    An immutable record built once per commit on the submit path, so it
    is a slotted class rather than a frozen dataclass: the dataclass
    stores each field through ``object.__setattr__`` by name (~0.3 us
    more per request, measured); here ``__init__`` writes the three
    slots through their descriptors.  Equality, hash and repr are the
    dataclass's: nominal (a request never equals a bare tuple), over the
    three fields.
    """

    __slots__ = ("start_ts", "write_set", "read_set")

    start_ts: int
    write_set: FrozenSet[RowKey]
    read_set: FrozenSet[RowKey]

    def __init__(
        self,
        start_ts: int,
        write_set: FrozenSet[RowKey] = frozenset(),
        read_set: FrozenSet[RowKey] = frozenset(),
    ) -> None:
        _set_start_ts(self, start_ts)
        _set_write_set(self, write_set)
        _set_read_set(self, read_set)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.start_ts == other.start_ts
                and self.write_set == other.write_set
                and self.read_set == other.read_set
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start_ts, self.write_set, self.read_set))

    def __repr__(self) -> str:
        return (
            f"CommitRequest(start_ts={self.start_ts!r}, "
            f"write_set={self.write_set!r}, read_set={self.read_set!r})"
        )

    @property
    def is_read_only(self) -> bool:
        return not self.write_set


_set_start_ts = CommitRequest.start_ts.__set__
_set_write_set = CommitRequest.write_set.__set__
_set_read_set = CommitRequest.read_set.__set__


@dataclass(frozen=True)
class CommitResult:
    """Outcome of a commit request."""

    committed: bool
    start_ts: int
    commit_ts: Optional[int] = None
    reason: str = ""  # "" on commit; "ww-conflict"/"rw-conflict"/"tmax"
    conflict_row: Optional[RowKey] = None


@dataclass
class OracleStats:
    """Counters the benchmarks read off the oracle."""

    commits: int = 0
    aborts: int = 0
    read_only_commits: int = 0
    conflict_aborts: int = 0
    tmax_aborts: int = 0
    rows_checked: int = 0
    rows_updated: int = 0

    @property
    def total_requests(self) -> int:
        return self.commits + self.aborts

    @property
    def abort_rate(self) -> float:
        total = self.total_requests
        return self.aborts / total if total else 0.0


class StatusOracle(CommitEngine):
    """Base class: timestamp allocation, lastCommit state, WAL, stats.

    Subclasses choose which rows are *checked* against ``lastCommit`` and
    which rows *update* it — that single decision is the entire difference
    between snapshot isolation and write-snapshot isolation.

    The oracle is the reference implementation of the
    :class:`~repro.core.engine.CommitEngine` contract: the
    ``decide_batch`` / ``recover_from`` templates are inherited, and
    this class supplies the protocol-specific pieces (sequential
    commit/abort, the ``_decide_batch`` bulk loop, WAL record
    application, timestamp re-seeding).
    """

    #: isolation level tag ("si" or "wsi"); set by subclasses.
    level: str = "base"

    def __init__(
        self,
        timestamp_oracle: Optional[TimestampOracle] = None,
        wal: Optional[BookKeeperWAL] = None,
        naive_read_only: bool = False,
        lastcommit=None,
    ) -> None:
        #: Ablation switch (benchmark E16): when True, a read-only request
        #: that submitted a non-empty read set is checked like any other —
        #: the §1 "naive implementation".  The default enforces §4.1
        #: condition 3: an empty write set never aborts.
        self.naive_read_only = naive_read_only
        self._wal = wal
        if timestamp_oracle is None:
            # With a WAL attached, persist timestamp reservations so a
            # recovered instance never reissues a start timestamp
            # (Appendix A's batched-reservation protocol).
            wal_hook = self._log_ts_reservation if wal is not None else None
            timestamp_oracle = TimestampOracle(wal_append=wal_hook)
        self._tso = timestamp_oracle
        #: lastCommit store: plain dict (default), an ArrayLastCommit, or
        #: any backend ``make_lastcommit`` resolves — "dict"/"array"
        #: strings, a pre-built store instance, or None for the
        #: REPRO_LASTCOMMIT environment default.
        self._last_commit = make_lastcommit(lastcommit)
        self.commit_table = CommitTable()
        self.stats = OracleStats()
        self._closed = False

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        """Rows whose ``lastCommit`` is compared against ``Ts`` (line 1)."""
        raise NotImplementedError

    def rows_to_update(self, request: CommitRequest) -> FrozenSet[RowKey]:
        """Rows whose ``lastCommit`` is set to ``Tc`` on commit (line 7).

        Both algorithms update the *write* set: committed writes are what
        future transactions can conflict with.
        """
        return request.write_set

    # ------------------------------------------------------------------
    # the commit protocol
    # ------------------------------------------------------------------
    def begin(self) -> int:
        """Serve a start timestamp (the only oracle cost a read-only
        transaction ever pays, §5.1)."""
        if self._closed:
            raise OracleClosed("status oracle is closed")
        return self._tso.next()

    def lease(self, n: int) -> Tuple[int, int]:
        """Lease a contiguous block of ``n`` start timestamps.

        The begin-side amortization matching :meth:`decide_batch` on the
        commit side: a frontend serves ``begin()`` from the leased block
        with no oracle round-trip per transaction.  Durability rides the
        usual reservation protocol
        (:meth:`~repro.core.timestamps.TimestampOracle.lease`), so a
        leaseholder crash can only leave gaps, never reuse.
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")
        return self._tso.lease(n)

    def commit(self, request: CommitRequest) -> CommitResult:
        """Process a commit request (Algorithms 1 and 2).

        Returns a :class:`CommitResult`; never raises for conflicts — an
        abort is a normal protocol outcome, and the *client* turns it into
        an exception if it wants one.
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")

        # §4.1 condition 3 / §5.1: an empty write set can never conflict,
        # so a read-only transaction commits with no check, no commit
        # timestamp and no WAL record — even if the client submitted its
        # read set.  (``naive_read_only`` disables the exemption for the
        # E16 ablation.)
        if request.is_read_only and not (
            self.naive_read_only and request.read_set
        ):
            self.stats.commits += 1
            self.stats.read_only_commits += 1
            return CommitResult(True, request.start_ts, commit_ts=None)

        # Lines 1-5: conflict check against lastCommit.
        conflict = self._check(request)
        if conflict is not None:
            reason, row = conflict
            self.stats.aborts += 1
            self.stats.conflict_aborts += 1
            if reason == "tmax":
                self.stats.tmax_aborts += 1
                self.stats.conflict_aborts -= 1
            self.commit_table.record_abort(request.start_ts)
            self._log("abort", (request.start_ts,))
            return CommitResult(
                False, request.start_ts, reason=reason, conflict_row=row
            )

        # Line 6: assign the commit timestamp (inside the critical section,
        # which is why checking only lastCommit(r) > Ts suffices — no
        # later-committing transaction can slip between check and assign).
        commit_ts = self._tso.next()

        # Lines 7-9: install the write set.
        rows = self.rows_to_update(request)
        self._install(rows, commit_ts)
        self.stats.rows_updated += len(rows)

        self.commit_table.record_commit(request.start_ts, commit_ts)
        self.stats.commits += 1
        self._log("commit", (request.start_ts, commit_ts, tuple(rows)))
        return CommitResult(True, request.start_ts, commit_ts=commit_ts)

    def abort(self, start_ts: int) -> None:
        """Record a client-initiated abort (e.g. application rollback)."""
        if self._closed:
            raise OracleClosed("status oracle is closed")
        self.commit_table.record_abort(start_ts)
        self.stats.aborts += 1
        self._log("abort", (start_ts,))

    # ------------------------------------------------------------------
    # the batch-decide fast path (one critical section per batch).
    # ``decide_batch`` itself — the public template that wraps this
    # engine hook with group-record WAL persistence and error re-raise —
    # is inherited from :class:`~repro.core.engine.CommitEngine`.
    # ------------------------------------------------------------------
    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """The batch decision engine behind :meth:`decide_batch` and
        :meth:`repro.server.OracleFrontend.flush`.

        ``batch`` items are ``CommitRequest`` (commit request), ``int``
        (client abort), or ``(CommitRequest | int, future)`` pairs — the
        frontend's submission format; futures get their outcome
        attributes written directly.  Decision payloads are appended to
        ``payload_commits`` / ``payload_aborts`` in the order they must
        appear in a group-commit WAL record (``rows`` is still the
        request's write set; the WAL boundary freezes it into the
        record's normal form); per-request protocol errors
        go to ``errors`` (and the matching ``results`` slot is ``None``).
        Returns ``(commits, aborts, rows_checked, rows_updated)``.

        Plain SI/WSI oracles take the inlined loop; subclasses that
        refine ``_check``/``_install`` (the bounded oracle overrides this
        method entirely) go through their own hooks so policy semantics
        are preserved exactly.

        The per-outcome bookkeeping (commit-table error isolation,
        payload/future/result fills) is deliberately inlined in every
        engine — this loop, the array-backed twin below, the bounded
        override, the partitioned engine, and the frontend's
        per-request fallback — because a shared helper costs a Python
        call per decision on the measured hot path (benchmark E18).
        Change one, change all; the hypothesis equivalence suite pins
        decisions and stats across all of them.
        """
        if type(self) in (SnapshotIsolationOracle, WriteSnapshotIsolationOracle):
            lc = self._last_commit
            if lc.__class__ is dict:
                return self._decide_batch_fast(
                    batch, payload_commits, payload_aborts, errors, results
                )
            if lc.__class__ is ArrayLastCommit:
                return self._decide_batch_fast_array(
                    batch, payload_commits, payload_aborts, errors, results
                )
        return self._decide_batch_generic(
            batch, payload_commits, payload_aborts, errors, results
        )

    def _decide_batch_fast(self, batch, payload_commits, payload_aborts,
                           errors, results):
        """Inlined decision loop for plain SI/WSI oracles.

        Observationally equivalent to calling ``commit()`` / ``abort()``
        per item in batch order — same decisions, lastCommit/commit-table
        state, OracleStats and timestamp-reservation behaviour — but with
        locally-bound lookups, one C-speed ``isdisjoint`` sweep for the
        no-conflict common case, ``dict``-bulk write-set installs, and
        stats counted once per batch instead of once per row/request.
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        lc = self._last_commit
        lc_get = lc.get
        lc_update = lc.update
        lc_isdisjoint = lc.keys().isdisjoint  # live view: sees batch installs
        fromkeys = dict.fromkeys
        ct = self.commit_table
        # Replicas subscribed to the commit table must see every decision,
        # so only bypass its record methods when nobody is listening.
        fast_ct = not ct._subscribers
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        check_reads = self.level == "wsi"
        # §4.1 condition 3 short-circuit, unless the E16 ablation is on.
        exempt_ro = not self.naive_read_only
        reason_tag = "rw-conflict" if check_reads else "ww-conflict"
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        nxt = tso._next
        reserved = tso._reserved_until
        commits = conflict_aborts = client_aborts = ro_commits = issued = 0
        rows_checked = rows_updated = 0
        try:
            for item in batch:
                if item.__class__ is CommitRequest:
                    req = item  # nowait commit: no future to fill in
                    fut = None
                else:
                    if item.__class__ is tuple:
                        req, fut = item
                    else:
                        req, fut = item, None
                    if req.__class__ is not CommitRequest:
                        # client-initiated abort; req is the start timestamp
                        start = req
                        try:
                            if fast_ct:
                                if start in ct_commits:
                                    raise ValueError(
                                        f"txn {start} already committed; "
                                        "cannot abort"
                                    )
                                ct_aborted.add(start)
                            else:
                                ct.record_abort(start)
                        except Exception as exc:
                            # Protocol misuse is isolated to this request
                            # (the unbatched oracle raises at its call
                            # site); the rest of the batch decides on.
                            errors.append((start, exc))
                            if fut is not None:
                                fut._error = exc
                            if res_append is not None:
                                res_append(None)
                            continue
                        client_aborts += 1
                        pa_append(start)
                        if fut is not None:
                            fut._reason = CLIENT_ABORT
                        if res_append is not None:
                            res_append(
                                CommitResult(False, start, reason=CLIENT_ABORT)
                            )
                        continue
                start = req.start_ts
                ws = req.write_set
                if not ws and (exempt_ro or not req.read_set):
                    # §4.1 condition 3: an empty write set never aborts —
                    # no check, no commit timestamp, no WAL payload.
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                rows = req.read_set if check_reads else ws
                conflict_row = None
                if rows:
                    if lc_isdisjoint(rows):
                        # No checked row was ever written (the common case
                        # under a large keyspace): the whole scan is one
                        # C-speed membership sweep.
                        rows_checked += len(rows)
                    else:
                        # Some checked row has a lastCommit entry: run the
                        # faithful first-conflict scan in frozenset order.
                        for row in rows:
                            rows_checked += 1
                            last = lc_get(row)
                            if last is not None and last > start:
                                conflict_row = row
                                break
                if conflict_row is not None:
                    try:
                        if fast_ct:
                            if start in ct_commits:
                                raise ValueError(
                                    f"txn {start} already committed; "
                                    "cannot abort"
                                )
                            ct_aborted.add(start)
                        else:
                            ct.record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    conflict_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = reason_tag
                        fut._row = conflict_row
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start,
                                reason=reason_tag, conflict_row=conflict_row,
                            )
                        )
                    continue
                # commit: assign Tc (inlined tso.next with the same
                # reservation protocol), bulk-install the write set.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                lc_update(fromkeys(ws, cts))
                rows_updated += len(ws)
                try:
                    if fast_ct:
                        if cts <= start:
                            raise ValueError(
                                f"commit_ts {cts} must exceed start_ts {start}"
                            )
                        if start in ct_aborted:
                            raise ValueError(
                                f"txn {start} already aborted; cannot commit"
                            )
                        ct_commits[start] = cts
                    else:
                        ct.record_commit(start, cts)
                except Exception as exc:
                    # Same partial effects as the unbatched oracle, which
                    # installs the write set and consumes Tc before its
                    # commit-table write raises — but here the error stays
                    # with this request instead of killing the batch.
                    errors.append((start, exc))
                    if fut is not None:
                        fut._error = exc
                    if res_append is not None:
                        res_append(None)
                    continue
                commits += 1
                pc_append((start, cts, ws))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                if res_append is not None:
                    res_append(CommitResult(True, start, commit_ts=cts))
        finally:
            # Keep oracle-visible state consistent even on a mid-batch
            # protocol error: timestamps consumed so far stay consumed.
            tso._next = nxt
            tso._issued += issued
            st = self.stats
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.rows_checked += rows_checked
            st.rows_updated += rows_updated
        return (
            commits + ro_commits,
            conflict_aborts + client_aborts,
            rows_checked,
            rows_updated,
        )

    def _decide_batch_fast_array(self, batch, payload_commits, payload_aborts,
                                 errors, results):
        """Inlined decision loop over an :class:`ArrayLastCommit` store.

        The third copy of the inlined bookkeeping (see
        :meth:`_decide_batch` — change one, change all): identical
        decisions, state, stats and reservation behaviour to
        :meth:`_decide_batch_fast`, but each conflict check delegates
        to :meth:`ArrayLastCommit.scan_conflict` — one bulk id gather
        + one timestamp gather + one ``max`` compare (the int lane or
        itemgetter chain) instead of a per-row dict probe scan — and
        installs intern the write set once and store into flat slots.
        ``scan_conflict`` guarantees the reported conflict row and the
        examined-row count match the dict loop exactly (first conflict
        in frozenset order; full count on a clean sweep), so the stats
        stay pinned by the equivalence suite.
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        lc = self._last_commit
        interner = lc._interner
        ids_map = interner._ids
        intern_many = interner.intern_many
        keys_table = interner._keys
        scan = lc.scan_conflict
        ts_arr = lc._ts  # grows in place (frombytes): binding stays valid
        getter = itemgetter
        ct = self.commit_table
        # Replicas subscribed to the commit table must see every decision,
        # so only bypass its record methods when nobody is listening.
        fast_ct = not ct._subscribers
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        check_reads = self.level == "wsi"
        # §4.1 condition 3 short-circuit, unless the E16 ablation is on.
        exempt_ro = not self.naive_read_only
        reason_tag = "rw-conflict" if check_reads else "ww-conflict"
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        nxt = tso._next
        reserved = tso._reserved_until
        commits = conflict_aborts = client_aborts = ro_commits = issued = 0
        rows_checked = rows_updated = fresh = 0
        try:
            for item in batch:
                if item.__class__ is CommitRequest:
                    req = item  # nowait commit: no future to fill in
                    fut = None
                else:
                    if item.__class__ is tuple:
                        req, fut = item
                    else:
                        req, fut = item, None
                    if req.__class__ is not CommitRequest:
                        # client-initiated abort; req is the start timestamp
                        start = req
                        try:
                            if fast_ct:
                                if start in ct_commits:
                                    raise ValueError(
                                        f"txn {start} already committed; "
                                        "cannot abort"
                                    )
                                ct_aborted.add(start)
                            else:
                                ct.record_abort(start)
                        except Exception as exc:
                            errors.append((start, exc))
                            if fut is not None:
                                fut._error = exc
                            if res_append is not None:
                                res_append(None)
                            continue
                        client_aborts += 1
                        pa_append(start)
                        if fut is not None:
                            fut._reason = CLIENT_ABORT
                        if res_append is not None:
                            res_append(
                                CommitResult(False, start, reason=CLIENT_ABORT)
                            )
                        continue
                start = req.start_ts
                ws = req.write_set
                if not ws and (exempt_ro or not req.read_set):
                    # §4.1 condition 3: an empty write set never aborts —
                    # no check, no commit timestamp, no WAL payload.
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                rows = req.read_set if check_reads else ws
                conflict_row = None
                if rows:
                    conflict_row, examined = scan(rows, start)
                    rows_checked += examined
                if conflict_row is not None:
                    try:
                        if fast_ct:
                            if start in ct_commits:
                                raise ValueError(
                                    f"txn {start} already committed; "
                                    "cannot abort"
                                )
                            ct_aborted.add(start)
                        else:
                            ct.record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    conflict_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = reason_tag
                        fut._row = conflict_row
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start,
                                reason=reason_tag, conflict_row=conflict_row,
                            )
                        )
                    continue
                # commit: assign Tc (inlined tso.next with the same
                # reservation protocol), intern + install the write set.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                try:
                    kids = getter(*ws)(ids_map)
                except KeyError:
                    # Unseen write rows: intern (deterministic id order
                    # for the new ones) and grow the slot array in place.
                    kids = intern_many(ws)
                    short = len(keys_table) - len(ts_arr)
                    if short > 0:
                        ts_arr.frombytes(bytes(short << 3))
                if kids.__class__ is tuple or kids.__class__ is list:
                    for kid in kids:
                        if ts_arr[kid] == 0:
                            fresh += 1
                        ts_arr[kid] = cts
                else:  # single-row write set: itemgetter returned the id
                    if ts_arr[kids] == 0:
                        fresh += 1
                    ts_arr[kids] = cts
                rows_updated += len(ws)
                try:
                    if fast_ct:
                        if cts <= start:
                            raise ValueError(
                                f"commit_ts {cts} must exceed start_ts {start}"
                            )
                        if start in ct_aborted:
                            raise ValueError(
                                f"txn {start} already aborted; cannot commit"
                            )
                        ct_commits[start] = cts
                    else:
                        ct.record_commit(start, cts)
                except Exception as exc:
                    errors.append((start, exc))
                    if fut is not None:
                        fut._error = exc
                    if res_append is not None:
                        res_append(None)
                    continue
                commits += 1
                pc_append((start, cts, ws))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                if res_append is not None:
                    res_append(CommitResult(True, start, commit_ts=cts))
        finally:
            # Keep oracle-visible state consistent even on a mid-batch
            # protocol error: timestamps consumed so far stay consumed,
            # and the store's live-entry count reflects every install.
            lc._live += fresh
            tso._next = nxt
            tso._issued += issued
            st = self.stats
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.rows_checked += rows_checked
            st.rows_updated += rows_updated
        return (
            commits + ro_commits,
            conflict_aborts + client_aborts,
            rows_checked,
            rows_updated,
        )

    def _decide_batch_generic(self, batch, payload_commits, payload_aborts,
                              errors, results):
        """Hook-faithful loop for StatusOracle subclasses that refine
        ``_check``/``_install``: defers to the subclass's own methods so
        policy refinements keep their exact semantics."""
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        ct = self.commit_table
        st = self.stats
        commits = aborts = rows_updated_total = 0
        rows_checked_before = st.rows_checked
        for item in batch:
            req, fut = item if item.__class__ is tuple else (item, None)
            result = None
            try:
                if req.__class__ is not CommitRequest:
                    ct.record_abort(req)
                    st.aborts += 1
                    aborts += 1
                    payload_aborts.append(req)
                    if fut is not None:
                        fut._reason = CLIENT_ABORT
                    result = CommitResult(False, req, reason=CLIENT_ABORT)
                    continue
                if not req.write_set and not (
                    self.naive_read_only and req.read_set
                ):
                    st.commits += 1
                    st.read_only_commits += 1
                    commits += 1
                    if fut is not None:
                        fut._committed = True
                    result = CommitResult(True, req.start_ts, commit_ts=None)
                    continue
                conflict = self._check(req)
                if conflict is not None:
                    reason, row = conflict
                    ct.record_abort(req.start_ts)
                    st.aborts += 1
                    st.conflict_aborts += 1
                    if reason == "tmax":
                        st.tmax_aborts += 1
                        st.conflict_aborts -= 1
                    aborts += 1
                    payload_aborts.append(req.start_ts)
                    if fut is not None:
                        fut._reason = reason
                        fut._row = row
                    result = CommitResult(
                        False, req.start_ts, reason=reason, conflict_row=row
                    )
                    continue
                cts = tso.next()
                rows = self.rows_to_update(req)
                self._install(rows, cts)
                st.rows_updated += len(rows)
                rows_updated_total += len(rows)
                ct.record_commit(req.start_ts, cts)
                st.commits += 1
                commits += 1
                payload_commits.append((req.start_ts, cts, rows))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                result = CommitResult(True, req.start_ts, commit_ts=cts)
            except Exception as exc:
                start = req if req.__class__ is not CommitRequest else req.start_ts
                errors.append((start, exc))
                if fut is not None:
                    fut._error = exc
            finally:
                if results is not None:
                    results.append(result)
        rows_checked = st.rows_checked - rows_checked_before
        return commits, aborts, rows_checked, rows_updated_total

    # ------------------------------------------------------------------
    # lastCommit plumbing (overridden by the bounded oracle)
    # ------------------------------------------------------------------
    def _check(self, request: CommitRequest) -> Optional[Tuple[str, RowKey]]:
        # The lastCommit comparison is identical for every policy; only
        # the *rows* differ, and the reason tag follows from which rows
        # are checked (SI and SSI check writes, WSI checks reads).
        # ``rows_checked`` counts rows actually examined (a conflict stops
        # the scan) and is bumped once per request, not once per row.
        reason = "rw-conflict" if self.level == "wsi" else "ww-conflict"
        lc = self._last_commit
        start = request.start_ts
        if lc.__class__ is ArrayLastCommit:
            # Bulk gather + compare; scalar rescan on suspected conflict
            # keeps the examined count and conflict row dict-identical.
            row, examined = lc.scan_conflict(self.rows_to_check(request), start)
            self.stats.rows_checked += examined
            if row is not None:
                return reason, row
            return None
        lc_get = lc.get
        checked = 0
        for row in self.rows_to_check(request):
            checked += 1
            last = lc_get(row)
            if last is not None and last > start:
                self.stats.rows_checked += checked
                return reason, row
        self.stats.rows_checked += checked
        return None

    def check_share(
        self, rows: Iterable[RowKey], start_ts: int
    ) -> Tuple[Optional[RowKey], int]:
        """Validate one *share* of a footprint against ``lastCommit``.

        The bulk share-check primitive of the partitioned deployment
        (§6.3 footnote 6): a coordinator hands each involved partition
        the rows it owns, and the partition answers with the first
        conflicting row — scanning ``rows`` in iteration order with the
        same early stop as a sequential :meth:`commit` — plus how many
        rows it examined.  Returns ``(conflict_row, rows_examined)``;
        ``conflict_row`` is ``None`` when every row passes.

        Deliberately side-effect free: no stats, no state.  The caller
        — :meth:`PartitionedOracle._commit_cross` for one request, the
        partitioned batch protocol for a whole run of them — owns the
        accounting, because only the caller knows whether the scan
        "really happened" in the sequential-equivalent order (the batch
        protocol validates shares eagerly and attributes ``rows_checked``
        during its merge pass).  The comparison is the plain lastCommit
        rule shared by SI and WSI; *which* rows form the share is the
        caller's level-dependent choice.  The bounded oracle's Tmax
        refinement is not modelled here — conflict partitions are plain
        SI/WSI oracles.

        On an array store the scan is the bulk gather+compare
        (:meth:`~repro.core.lastcommit.ArrayLastCommit.scan_conflict`),
        with the same first-conflict row and examined count.
        """
        lc = self._last_commit
        if lc.__class__ is ArrayLastCommit:
            return lc.scan_conflict(rows, start_ts)
        lc_get = lc.get
        checked = 0
        for row in rows:
            checked += 1
            last = lc_get(row)
            if last is not None and last > start_ts:
                return row, checked
        return None, checked

    def _install(self, rows: Iterable[RowKey], commit_ts: int) -> None:
        lc = self._last_commit
        if lc.__class__ is ArrayLastCommit:
            lc.install(rows, commit_ts)
            return
        for row in rows:
            lc[row] = commit_ts

    def last_commit(self, row: RowKey) -> Optional[int]:
        """Expose lastCommit(r) for tests and checkers."""
        return self._last_commit.get(row)

    # ------------------------------------------------------------------
    # durability / recovery
    # ------------------------------------------------------------------
    def _log(self, kind: str, payload) -> None:
        if self._wal is not None:
            self._wal.append(kind, payload, size=BYTES_PER_LASTCOMMIT_ENTRY)

    def _log_ts_reservation(self, high_water: int) -> None:
        """Persist a timestamp-reservation high-water mark.

        The reservation must be durable *before* any timestamp from the
        batch is served, so it is flushed immediately rather than
        batched with commit records.
        """
        if self._wal is not None:
            self._wal.append("ts-reserve", high_water, size=8)
            self._wal.flush()

    def apply_wal_record(self, record) -> int:
        """Apply one durable WAL record to this oracle's in-memory state.

        Returns the highest timestamp the record mentions, so the caller
        can track the recovery floor across records.  This is the single
        record-application authority: :meth:`recover_from` loops it over
        a full replay, and a *warm standby*
        (:class:`~repro.coord.failover.OracleHost` tailing the leader's
        WAL through a :class:`~repro.wal.bookkeeper.WALTail`) applies
        records incrementally as they become durable — identical state
        either way, which is what makes an O(delta) takeover safe.
        A standby that has been applying records must still call
        :meth:`seal_recovery` before serving.
        """
        kind = record.kind
        if kind == "commit":
            start_ts, commit_ts, rows = record.payload
            return self._apply_recovered_commit(start_ts, commit_ts, rows)
        if kind == "abort":
            (start_ts,) = record.payload
            return self._apply_recovered_abort(start_ts)
        if kind == GROUP_COMMIT_RECORD:
            # One record per frontend batch (repro.server): replay its
            # decisions in order, exactly as the per-record path would.
            max_ts = 0
            commits, aborts = record.payload
            for start_ts, commit_ts, rows in commits:
                max_ts = max(
                    max_ts, self._apply_recovered_commit(start_ts, commit_ts, rows)
                )
            for start_ts in aborts:
                max_ts = max(max_ts, self._apply_recovered_abort(start_ts))
            return max_ts
        if kind == "ts-reserve":
            return record.payload
        raise RecoveryError(f"unknown WAL record kind {record.kind!r}")

    def _apply_recovered_commit(self, start_ts: int, commit_ts: int, rows) -> int:
        self.commit_table.record_commit(start_ts, commit_ts)
        last_commit = self._last_commit
        for row in rows:
            prev = last_commit.get(row, 0)
            last_commit[row] = max(prev, commit_ts)
        return commit_ts

    def _apply_recovered_abort(self, start_ts: int) -> int:
        if not self.commit_table.is_aborted(start_ts):
            self.commit_table.record_abort(start_ts)
        return start_ts

    def seal_recovery(self, max_recovered_ts: int) -> None:
        """Re-seed the timestamp oracle after applying durable records.

        ``max_recovered_ts`` is the highest timestamp any applied record
        mentioned (the running maximum of :meth:`apply_wal_record`
        returns).  Called by :meth:`recover_from` after a full replay and
        by a warm standby at takeover, after its final catch-up poll.
        """
        max_ts = max_recovered_ts
        # Resume timestamps strictly above anything recovered — including
        # persisted reservation marks — so no timestamp is ever reused.
        # The floor is the current TSO's *reservation* high-water mark,
        # not its in-memory cursor (``peek() - 1``): mid-reservation the
        # cursor sits below the persisted mark, and timestamps up to the
        # mark — reserved for ``next()`` batches or handed out through
        # begin leases — may already be in client hands.
        # Keep persisting reservations wherever this instance already
        # did: through its own WAL if it has one, else through whatever
        # sink the old TSO carried (e.g. a group-commit frontend's WAL
        # adopted via ``TimestampOracle.attach_wal``) — dropping that
        # hook would silently un-persist post-failover begin leases.
        if self._wal is not None:
            wal_append = self._log_ts_reservation
        else:
            wal_append = self._tso.reservation_sink
        self._tso = TimestampOracle.recover(
            max(max_ts, self._tso.reserved_high_water),
            reservation_batch=self._tso.reservation_batch,
            wal_append=wal_append,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def timestamp_oracle(self) -> TimestampOracle:
        return self._tso

    @property
    def lastcommit_size(self) -> int:
        return len(self._last_commit)

    def memory_bytes(self) -> int:
        """Estimated lastCommit footprint (Appendix A: 32 B per row)."""
        return len(self._last_commit) * BYTES_PER_LASTCOMMIT_ENTRY


class SnapshotIsolationOracle(StatusOracle):
    """Algorithm 1: write-write conflict detection (snapshot isolation).

    Checks the **write set** against ``lastCommit``.
    """

    level = "si"

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        return request.write_set


class WriteSnapshotIsolationOracle(StatusOracle):
    """Algorithm 2: read-write conflict detection (write-snapshot isolation).

    Checks the **read set** against ``lastCommit``.  This is the entire
    change relative to Algorithm 1 — and it buys serializability
    (Theorem 1 of the paper; verified by property tests in this repo).
    """

    level = "wsi"

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        return request.read_set


class BoundedStatusOracle(StatusOracle):
    """Algorithm 3: lastCommit bounded to ``max_rows`` entries plus Tmax.

    The production concern (Appendix A): the full ``lastCommit`` map over
    a 100M-row table does not fit in RAM.  Omid keeps only the most
    recently written rows and tracks ``Tmax``, the maximum commit
    timestamp ever evicted.  A commit request touching a row that is *not*
    in memory must be aborted pessimistically if its start timestamp is
    below ``Tmax`` — the oracle can no longer prove the row wasn't
    overwritten after the transaction started.

    Safety is one-sided: eviction can only *add* aborts (false positives),
    never admit a conflicting commit.  Appendix A argues false positives
    are negligible when ``Tmax - Ts >> MaxCommitTime`` — e.g. 1 GB of
    entries covers ~50 s of history at 80K TPS, far above typical commit
    latencies.  Benchmark E10 sweeps ``max_rows`` to expose the trade-off.

    Args:
        policy: ``"si"`` (check write set) or ``"wsi"`` (check read set).
        max_rows: lastCommit capacity in rows (LRU-evicted).
    """

    def __init__(
        self,
        policy: str = "wsi",
        max_rows: int = 1_000_000,
        timestamp_oracle: Optional[TimestampOracle] = None,
        wal: Optional[BookKeeperWAL] = None,
        naive_read_only: bool = False,
        lastcommit=None,
    ) -> None:
        if policy not in ("si", "wsi"):
            raise ValueError(f"policy must be 'si' or 'wsi', not {policy!r}")
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        super().__init__(
            timestamp_oracle=timestamp_oracle,
            wal=wal,
            naive_read_only=naive_read_only,
        )
        self.level = policy
        self._max_rows = max_rows
        # LRU order, oldest first: OrderedDict for the dict backend,
        # BoundedArrayLastCommit for the array backend — both speak the
        # pop/popitem(last=False) surface the decide loops use.
        self._last_commit = make_lastcommit(lastcommit, bounded=True)
        self.tmax = 0

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        if self.level == "si":
            return request.write_set
        return request.read_set

    # Algorithm 3, lines 1-11.  As in the base class, ``rows_checked``
    # counts rows actually examined and is bumped once per request.
    def _check(self, request: CommitRequest) -> Optional[Tuple[str, RowKey]]:
        reason = "ww-conflict" if self.level == "si" else "rw-conflict"
        lc_get = self._last_commit.get
        tmax = self.tmax
        start = request.start_ts
        checked = 0
        for row in self.rows_to_check(request):
            checked += 1
            last = lc_get(row)
            if last is not None:
                if last > start:  # line 3
                    self.stats.rows_checked += checked
                    return reason, row
            elif tmax > start:  # line 7
                self.stats.rows_checked += checked
                return "tmax", row
        self.stats.rows_checked += checked
        return None

    def _install(self, rows: Iterable[RowKey], commit_ts: int) -> None:
        lc = self._last_commit
        for row in rows:
            if row in lc:
                lc.pop(row)
            lc[row] = commit_ts
            if len(lc) > self._max_rows:
                _, evicted_ts = lc.popitem(last=False)
                if evicted_ts > self.tmax:
                    self.tmax = evicted_ts

    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """Bounded-oracle batch loop: the fast-loop structure with the
        Algorithm 3 refinements inlined — Tmax pessimistic aborts, LRU
        reinsertion on install, eviction bookkeeping — plus deferred
        stats.  LRU order and Tmax evolve exactly as under sequential
        ``commit()`` calls (per-request install order is preserved)."""
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        lc = self._last_commit
        lc_get = lc.get
        lc_popitem = lc.popitem
        max_rows = self._max_rows
        tmax = self.tmax
        ct = self.commit_table
        check_reads = self.level == "wsi"
        exempt_ro = not self.naive_read_only
        reason_tag = "rw-conflict" if check_reads else "ww-conflict"
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        nxt = tso._next
        reserved = tso._reserved_until
        commits = conflict_aborts = tmax_aborts = client_aborts = 0
        ro_commits = issued = 0
        rows_checked = rows_updated = 0
        try:
            for item in batch:
                req, fut = item if item.__class__ is tuple else (item, None)
                if req.__class__ is not CommitRequest:
                    start = req  # client-initiated abort
                    try:
                        ct.record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    client_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = CLIENT_ABORT
                    if res_append is not None:
                        res_append(
                            CommitResult(False, start, reason=CLIENT_ABORT)
                        )
                    continue
                start = req.start_ts
                ws = req.write_set
                if not ws and (exempt_ro or not req.read_set):
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                # Algorithm 3 lines 1-11, scanning in frozenset order.
                conflict = None
                for row in (req.read_set if check_reads else ws):
                    rows_checked += 1
                    last = lc_get(row)
                    if last is not None:
                        if last > start:
                            conflict = (reason_tag, row)
                            break
                    elif tmax > start:
                        conflict = ("tmax", row)
                        break
                if conflict is not None:
                    reason, row = conflict
                    try:
                        ct.record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    if reason == "tmax":
                        tmax_aborts += 1
                    else:
                        conflict_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = reason
                        fut._row = row
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start, reason=reason, conflict_row=row
                            )
                        )
                    continue
                # commit: assign Tc, LRU-install the write set.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                for row in ws:
                    if row in lc:
                        lc.pop(row)
                    lc[row] = cts
                    if len(lc) > max_rows:
                        _, evicted_ts = lc_popitem(last=False)
                        if evicted_ts > tmax:
                            tmax = evicted_ts
                rows_updated += len(ws)
                try:
                    ct.record_commit(start, cts)
                except Exception as exc:
                    errors.append((start, exc))
                    if fut is not None:
                        fut._error = exc
                    if res_append is not None:
                        res_append(None)
                    continue
                commits += 1
                pc_append((start, cts, ws))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                if res_append is not None:
                    res_append(CommitResult(True, start, commit_ts=cts))
        finally:
            self.tmax = tmax
            tso._next = nxt
            tso._issued += issued
            st = self.stats
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + tmax_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.tmax_aborts += tmax_aborts
            st.rows_checked += rows_checked
            st.rows_updated += rows_updated
        return (
            commits + ro_commits,
            conflict_aborts + tmax_aborts + client_aborts,
            rows_checked,
            rows_updated,
        )

    @property
    def max_rows(self) -> int:
        return self._max_rows

    def memory_budget_rows(self) -> int:
        """Rows representable per Appendix A's 32 B/entry estimate."""
        return self._max_rows

    @staticmethod
    def rows_for_memory(memory_bytes: int) -> int:
        """Appendix A sizing: 1 GB -> 32M rows at 32 B per entry."""
        return max(1, memory_bytes // BYTES_PER_LASTCOMMIT_ENTRY)


def make_oracle(
    level: str,
    bounded: bool = False,
    max_rows: int = 1_000_000,
    timestamp_oracle: Optional[TimestampOracle] = None,
    wal: Optional[BookKeeperWAL] = None,
    naive_read_only: bool = False,
    lastcommit=None,
) -> StatusOracle:
    """Factory: build a status oracle for ``level`` in {"si", "wsi"}.

    ``lastcommit`` selects the conflict-detection backend ("dict",
    "array", a store instance, or None for the ``REPRO_LASTCOMMIT``
    default; see :mod:`repro.core.lastcommit`).
    """
    if bounded:
        return BoundedStatusOracle(
            policy=level,
            max_rows=max_rows,
            timestamp_oracle=timestamp_oracle,
            wal=wal,
            naive_read_only=naive_read_only,
            lastcommit=lastcommit,
        )
    if level == "si":
        return SnapshotIsolationOracle(
            timestamp_oracle=timestamp_oracle,
            wal=wal,
            naive_read_only=naive_read_only,
            lastcommit=lastcommit,
        )
    if level == "wsi":
        return WriteSnapshotIsolationOracle(
            timestamp_oracle=timestamp_oracle,
            wal=wal,
            naive_read_only=naive_read_only,
            lastcommit=lastcommit,
        )
    raise ValueError(f"unknown isolation level {level!r}")
