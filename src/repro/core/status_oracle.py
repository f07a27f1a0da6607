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

**Decide path.**  One batch loop, :meth:`StatusOracle._decide_batch`,
serves every store.  It keeps the per-outcome bookkeeping (commit
table, timestamp reservation, WAL payload, futures, results, stats)
inlined once, and calls the store's two hooks — ``scan`` and
``install``, built by :func:`~repro.core.lastcommit.store_hooks` once
per store and bound once per batch — for everything that touches
``lastCommit``.  Which store backs the oracle (selected by
``REPRO_LASTCOMMIT`` / ``make_oracle(..., lastcommit=...)``) decides
how those hooks run:

* ``dict`` (default) — one C-speed ``keys().isdisjoint`` sweep per
  request filters the never-written case, so only a request whose
  checked rows intersect ``lastCommit`` pays the per-row probe scan;
  installs are one ``dict.update(dict.fromkeys(ws, Tc))``.  The store
  stays an exact, untracked ``dict``: the cyclic collector never walks
  its entries.
* ``array`` — the same exact ``dict`` and, below 32 rows, the same
  scan and install; from 32 rows up a scan is one gather + ``max(...)
  > Ts`` compare (numpy over a direct-addressed timestamp lane for int
  keys, built the first time the store meets a row set that wide),
  with a scalar rescan only on a *suspected* conflict, so the reported
  conflict row and ``rows_checked`` match the dict store bit-for-bit.
* bounded (Algorithm 3) — the scan adds the pessimistic ``tmax``
  abort; the install reinserts in LRU order and evicts.  The loop
  tells a ``tmax`` abort from a conflict on the abort path only: its
  conflict row is absent from the store.

:meth:`StatusOracle.commit` is the sequential reference the
equivalence suites compare the loop against; it calls the same hooks.
Benchmark E18 pins the batching win itself; E24 pins the array backend
at >= 2x the dict backend on warmed batch-128 decides and measures the
per-entry footprint of both.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.commit_table import CommitTable
from repro.core.engine import CommitEngine
from repro.core.errors import OracleClosed
from repro.core.lastcommit import (
    BoundedLastCommit,
    make_lastcommit,
    newer_rows,
    store_hooks,
)
from repro.core.timestamps import TimestampOracle
from repro.wal.bookkeeper import BookKeeperWAL

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
        #: (store, scan, install) as :meth:`_hooks` last resolved them.
        self._bound_hooks: Tuple[Any, Any, Any] = (None, None, None)
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
    # the batch decide kernel (one critical section per batch).
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

        Observationally equivalent to calling ``commit()`` / ``abort()``
        per item in batch order — same decisions, lastCommit/commit-table
        state, OracleStats and timestamp-reservation behaviour — but
        with locally-bound lookups, the commit table and timestamp
        oracle inlined, and stats counted once per batch.  Every
        ``lastCommit`` access is one of the store's hooks, so this is
        the one loop for every store.  On the dict and array stores a
        decision enters at most two Python frames — the scan, then the
        install or (array store, abort) the membership test — whatever
        its footprint size (``tests/core/test_decide_budget.py``).
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        lc, scan, install = self._hooks()
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
        commits = conflict_aborts = tmax_aborts = client_aborts = 0
        ro_commits = issued = rows_checked = rows_updated = 0
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
                        if conflict_row in lc:
                            reason = reason_tag
                            conflict_aborts += 1
                        else:  # Algorithm 3: the row was evicted
                            reason = "tmax"
                            tmax_aborts += 1
                        pa_append(start)
                        if fut is not None:
                            fut._reason = reason
                            fut._row = conflict_row
                        if res_append is not None:
                            res_append(
                                CommitResult(
                                    False, start,
                                    reason=reason, conflict_row=conflict_row,
                                )
                            )
                        continue
                # commit: assign Tc (inlined tso.next with the same
                # reservation protocol), install the write set.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                install(ws, cts)
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

    # ------------------------------------------------------------------
    # lastCommit plumbing: the store's hooks (repro.core.lastcommit)
    # ------------------------------------------------------------------
    def _hooks(self):
        """``(store, scan, install)`` for the current ``lastCommit``
        store, resolved once per store rather than once per call."""
        hooks = self._bound_hooks
        lc = self._last_commit
        if hooks[0] is not lc:
            hooks = self._bound_hooks = (lc, *store_hooks(lc))
        return hooks

    def _check(self, request: CommitRequest) -> Optional[Tuple[str, RowKey]]:
        """Lines 1-5 for one request: ``(reason, row)`` or ``None``.
        Counts the rows examined (a conflict stops the scan)."""
        lc, scan, _ = self._hooks()
        row, examined = scan(self.rows_to_check(request), request.start_ts)
        self.stats.rows_checked += examined
        if row is None:
            return None
        if row not in lc:
            return "tmax", row
        return ("rw-conflict" if self.level == "wsi" else "ww-conflict"), row

    def _install(self, rows: Iterable[RowKey], commit_ts: int) -> None:
        self._hooks()[2](rows, commit_ts)

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

    def _apply_decisions(self, commits, aborts) -> int:
        """The WAL-apply kernel: one inlined pass over a record's decisions.

        Cold recovery, warm catch-up and the warm takeover's final poll
        all land here (through the inherited
        :meth:`~repro.core.engine.CommitEngine.apply_wal_record`), one
        call per record — a group-commit record's whole flush, or the
        one decision of a ``"commit"`` / ``"abort"`` record.  The pass
        binds ``lastCommit`` and the commit table's mapping and abort
        set once, and is observationally the per-decision
        ``record_commit`` / ``record_abort`` + per-row install it
        replaces:

        * both ``record_commit`` checks run inline, in its order —
          commit after abort, then ``commit_ts <= start_ts`` — and on a
          failed check the commit table itself raises its
          ``ValueError``, before the decision touches any state, with
          the record's earlier decisions applied (the same partial
          effects as the per-decision calls); a commit-then-abort
          raises the same way from ``record_abort``;
        * the per-row ``max`` rule stays (see ``apply_wal_record``): a
          row's entry is written only when ``commit_ts`` is greater, so
          duplicated or re-polled records are idempotent.

        The kernel runs on the default store — an exact ``dict`` — with
        no commit-table subscribers.  Anything else — a subscribed
        replica, the array store, the bounded store — takes the
        hook-faithful default (the commit table's record methods, so
        every subscriber sees every decision, and :meth:`_replay_rows`
        per commit).
        """
        lc = self._last_commit
        ct = self.commit_table
        if lc.__class__ is not dict or ct._subscribers:
            return super()._apply_decisions(commits, aborts)
        lc_get = lc.get
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        max_ts = 0
        for start, cts, rows in commits:
            if start in ct_aborted or cts <= start:
                ct.record_commit(start, cts)  # raises record_commit's error
            ct_commits[start] = cts
            for row in rows:
                if cts > lc_get(row, 0):
                    lc[row] = cts
            if cts > max_ts:
                max_ts = cts
        for start in aborts:
            if start not in ct_aborted:
                if start in ct_commits:
                    ct.record_abort(start)  # raises record_abort's error
                ct_aborted.add(start)
            if start > max_ts:
                max_ts = start
        return max_ts

    def _replay_rows(self, rows, commit_ts: int, start_ts: int) -> None:
        """The store's replay filter, then its install: only rows the
        record is newer for are written, so re-applying changes nothing
        (see :func:`~repro.core.lastcommit.newer_rows`)."""
        lc, _, install = self._hooks()
        newer = newer_rows(lc, rows, commit_ts)
        if newer:
            install(newer, commit_ts)

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
        # Algorithm 3 lives in the store: LRU order, eviction, Tmax and
        # the pessimistic scan (repro.core.lastcommit.BoundedLastCommit).
        super().__init__(
            timestamp_oracle=timestamp_oracle,
            wal=wal,
            naive_read_only=naive_read_only,
            lastcommit=BoundedLastCommit(
                make_lastcommit(lastcommit, bounded=True), max_rows
            ),
        )
        self.level = policy

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        if self.level == "si":
            return request.write_set
        return request.read_set

    @property
    def tmax(self) -> int:
        """The highest commit timestamp evicted so far (Appendix A)."""
        return self._last_commit.tmax

    @property
    def max_rows(self) -> int:
        return self._last_commit.max_rows

    def memory_budget_rows(self) -> int:
        """Rows representable per Appendix A's 32 B/entry estimate."""
        return self._last_commit.max_rows

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
