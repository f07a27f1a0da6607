"""Percolator as a :class:`~repro.core.engine.CommitEngine`.

The seed's :mod:`repro.percolator.percolator` is an *interactive* port
of Percolator's client-driven 2PC: every transaction is a
:class:`~repro.percolator.percolator.PercolatorTransaction` object that
prewrites and finalizes its own rows.  That surface cannot sit behind
the group-commit frontend, which speaks
:class:`~repro.core.status_oracle.CommitRequest` decisions.  This
module adds the missing decision tier:

:class:`PercolatorEngine`
    decides commit requests with Percolator's rules — first-committer-
    wins via the **write column** (a committed ``commit_ts`` newer than
    the requester's snapshot aborts it) and mutual exclusion via the
    **lock column** — against the *same*
    :class:`~repro.percolator.percolator.PercolatorStore` and
    :class:`~repro.percolator.percolator.PercolatorTransactionManager`
    machinery interactive clients use, so both populations coexist and
    conflict correctly.

Three design points:

* **The engine is a decision tier, not a data path.**  A
  ``CommitRequest`` carries row *names*, not values, so the engine
  writes only the lock and write columns; interactive transactions
  (which buffer values) still write data versions.  Conflict detection
  only ever consults the write/lock columns, so the two populations
  compose.
* **Group commit batches the 2PC itself.**  ``_decide_batch`` runs one
  bulk *prewrite* pass over the whole flush — every request's conflict
  checks, with batch-internal mutual exclusion tracked in a local
  pending-row set instead of the store's lock column — and then one
  bulk *finalize* pass that appends the write records.  Decisions,
  commit timestamps and stats are exactly
  the sequential outcome in batch order (``tests/engines`` pins the
  equivalence); a conflict with an earlier *batch-mate's* pending row
  reports the ``"ww-conflict"`` the sequential run would see (the mate
  would have finalized a newer write record already), never a spurious
  ``"lock-held"``.
* **Crash-orphaned locks resolve instead of stalling the flush.**  A
  lock whose holder crashed mid-prewrite (or already finalized /
  rolled back its primary) is resolved *inline* through the manager's
  primary-lock protocol — roll forward if the primary's write record
  exists, roll back if the primary is gone or the holder is known
  crashed — so the blocked request's future settles with a real
  decision in the same flush.  Only a *live* holder's lock aborts the
  requester (``"lock-held"``, Percolator's ABORT_SELF policy).
  ``lock_cleanups`` counts the orphans cleaned.
"""

from __future__ import annotations

from array import array
from typing import Any, FrozenSet, List, Optional, Tuple

from repro.core.commit_table import CommitTable
from repro.core.engine import CommitEngine
from repro.core.errors import OracleClosed, RecoveryError
from repro.core.status_oracle import (
    CLIENT_ABORT,
    CommitRequest,
    CommitResult,
    OracleStats,
    RowKey,
)
from repro.core.timestamps import TimestampOracle
from repro.percolator.percolator import (
    Lock,
    PercolatorStore,
    PercolatorTransactionManager,
    WriteRecord,
)
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL


class PercolatorEngine(CommitEngine):
    """Batch-capable commit decisions over Percolator's lock/write columns.

    Wraps (or creates) a
    :class:`~repro.percolator.percolator.PercolatorTransactionManager`
    and implements the full :class:`~repro.core.engine.CommitEngine`
    surface: sequential :meth:`commit`/:meth:`abort`, the
    ``_decide_batch`` group-commit loop, begin leases, WAL recovery
    hooks, and :class:`~repro.core.status_oracle.OracleStats`.
    """

    level = "percolator"

    def __init__(
        self,
        manager: Optional[PercolatorTransactionManager] = None,
        store: Optional[PercolatorStore] = None,
        timestamp_oracle: Optional[TimestampOracle] = None,
        wal: Optional[BookKeeperWAL] = None,
    ) -> None:
        self._wal = wal
        if manager is None:
            if timestamp_oracle is None:
                # Same no-reuse discipline as the status oracle: with a
                # WAL attached, timestamp reservations are persisted so
                # a recovered instance never reissues a start timestamp.
                wal_hook = self._log_ts_reservation if wal is not None else None
                timestamp_oracle = TimestampOracle(wal_append=wal_hook)
            manager = PercolatorTransactionManager(
                store=store, tso=timestamp_oracle
            )
        self._manager = manager
        self._store = manager.store
        self._tso = manager.tso
        self.commit_table = CommitTable()
        self.stats = OracleStats()
        #: crash-orphaned (or stale) locks resolved by this engine.
        self.lock_cleanups = 0
        self._closed = False

    # ------------------------------------------------------------------
    # timestamps
    # ------------------------------------------------------------------
    def begin(self) -> int:
        if self._closed:
            raise OracleClosed("percolator engine is closed")
        return self._tso.next()

    def lease(self, n: int) -> Tuple[int, int]:
        if self._closed:
            raise OracleClosed("percolator engine is closed")
        return self._tso.lease(n)

    @property
    def timestamp_oracle(self) -> TimestampOracle:
        return self._tso

    @property
    def manager(self) -> PercolatorTransactionManager:
        """The shared lock-resolution machinery (and interactive-client
        factory) this engine decides against."""
        return self._manager

    @property
    def store(self) -> PercolatorStore:
        return self._store

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        return request.write_set  # Percolator keeps SI's ww rule

    def _sorted_rows(self, request: CommitRequest) -> List[RowKey]:
        # Deterministic prewrite order (the interactive path sorts the
        # same way): makes the first-conflict row reproducible and keeps
        # the sequential and batched scans identical.
        return sorted(request.write_set, key=repr)

    def _resolve_if_stale(self, row: RowKey, lock: Lock) -> Optional[Lock]:
        """Run the primary-lock protocol on ``lock``; return the lock
        still standing (a live holder keeps its locks) or ``None``."""
        self._manager.resolve_lock(row, lock)
        remaining = self._store.lock_of(row)
        if remaining is None:
            self.lock_cleanups += 1
        return remaining

    # ------------------------------------------------------------------
    # the sequential reference path
    # ------------------------------------------------------------------
    def commit(self, request: CommitRequest) -> CommitResult:
        """Decide one commit request with Percolator's prewrite/finalize.

        Never raises for conflicts — an abort is a normal protocol
        outcome, same contract as the status oracle.
        """
        if self._closed:
            raise OracleClosed("percolator engine is closed")
        start = request.start_ts
        if request.is_read_only:
            # Percolator read-only transactions commit for free at their
            # snapshot (no lock, no write record, no commit timestamp).
            self.stats.commits += 1
            self.stats.read_only_commits += 1
            return CommitResult(True, start, commit_ts=None)

        store = self._store
        rows = self._sorted_rows(request)
        primary = rows[0]
        conflict: Optional[Tuple[str, RowKey]] = None
        acquired: List[RowKey] = []
        checked = 0
        for row in rows:
            checked += 1
            # Lock column first: resolving a finished/crashed holder may
            # roll its commit forward, which the write-column check below
            # must observe.
            lock = store.lock_of(row)
            if lock is not None:
                lock = self._resolve_if_stale(row, lock)
            if lock is not None:
                conflict = ("lock-held", row)
                break
            latest = store.latest_commit_ts(row)
            if latest is not None and latest > start:
                conflict = ("ww-conflict", row)
                break
            store.acquire_lock(
                row, Lock(start, primary, is_primary=row == primary)
            )
            acquired.append(row)
        self.stats.rows_checked += checked

        if conflict is not None:
            for row in acquired:
                store.release_lock(row, start)
            reason, crow = conflict
            self.stats.aborts += 1
            self.stats.conflict_aborts += 1
            self.commit_table.record_abort(start)
            self._log("abort", (start,))
            return CommitResult(False, start, reason=reason, conflict_row=crow)

        # Finalize: one commit timestamp, write records primary-first
        # (the commit point), release every lock.
        commit_ts = self._tso.next()
        for row in rows:
            store.add_write_record(row, WriteRecord(commit_ts, start))
            store.release_lock(row, start)
        self.stats.rows_updated += len(rows)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        self._log("commit", (start, commit_ts, tuple(rows)))
        return CommitResult(True, start, commit_ts=commit_ts)

    def abort(self, start_ts: int) -> None:
        if self._closed:
            raise OracleClosed("percolator engine is closed")
        self.commit_table.record_abort(start_ts)
        self.stats.aborts += 1
        self._log("abort", (start_ts,))

    # ------------------------------------------------------------------
    # the group-commit hot path
    # ------------------------------------------------------------------
    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """Batched 2PC: bulk prewrite pass, then bulk finalize pass.

        Phase 1 walks the flush in submission order — per request:
        resolve stale locks, run the write-column check, and on success
        assign its commit timestamp and commit-table entry.  Batch-mates
        take no real locks (the flush is one critical section, and the
        sequential run releases each request's locks before the next
        begins, so the lock column's end state is identical); a conflict
        with an earlier mate's pending row is the sequential run's
        ww-conflict (the mate would already hold a newer write record)
        and is reported as such.  Phase 2 appends every decided commit's
        write records.  Observationally equivalent to
        :meth:`commit`/:meth:`abort` in batch order; per-request
        protocol misuse is isolated to ``errors`` exactly like the
        status-oracle loops.
        """
        if self._closed:
            raise OracleClosed("percolator engine is closed")
        store = self._store
        locks = store.lock_column
        lock_isdisjoint = locks.keys().isdisjoint
        lock_of = locks.get
        writes = store.write_column
        writes_get = writes.get
        ct = self.commit_table
        # Replicas subscribed to the commit table must see every decision,
        # so only bypass its record methods when nobody is listening.
        fast_ct = not ct._subscribers
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        tso = self._tso
        nxt = tso._next
        reserved = tso._reserved_until
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        # Rows written by an earlier batch-mate whose prewrite succeeded.
        # Its write records are deferred to phase 2, so membership here
        # stands in for the newer write record the sequential scan would
        # see — always a ww-conflict, since the mate's Tc postdates every
        # start in the batch.  No real locks are taken for batch-mates at
        # all: the flush runs in one critical section, and the sequential
        # run releases each request's locks before the next begins, so
        # the store's lock column is observationally untouched either way.
        mate_rows = set()
        mate_isdisjoint = mate_rows.isdisjoint
        mate_update = mate_rows.update
        finalize: List[Tuple[int, int, List[RowKey]]] = []
        commits = conflict_aborts = client_aborts = ro_commits = issued = 0
        rows_checked = rows_updated = 0
        try:
            for item in batch:
                if item.__class__ is CommitRequest:
                    req, fut = item, None
                else:
                    if item.__class__ is tuple:
                        req, fut = item
                    else:
                        req, fut = item, None
                    if req.__class__ is not CommitRequest:
                        start = req  # client-initiated abort
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
                if not ws:
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                conflict = None
                if lock_isdisjoint(ws) and mate_isdisjoint(ws):
                    # Fast path (the common case under a large keyspace):
                    # no lock-column traffic anywhere in the write set, so
                    # only the side-effect-free write-column check remains.
                    # Clean scan: the checked count is len(ws) in any
                    # order.  On a conflict, redo the scan in prewrite
                    # (sorted) order to recover the exact sequential
                    # first-conflict row and checked count.
                    conflict_row = None
                    for row in ws:
                        recs = writes_get(row)
                        if recs is not None and recs[-2] > start:
                            conflict_row = row
                            break
                    if conflict_row is None:
                        rows_checked += len(ws)
                    else:
                        for row in sorted(ws, key=repr):
                            rows_checked += 1
                            recs = writes_get(row)
                            if recs is not None and recs[-2] > start:
                                conflict = ("ww-conflict", row)
                                break
                else:
                    # Slow path: a lock (external — batch-mates take
                    # none), or a mate's pending row, intersects the
                    # write set.  Faithful sequential scan in prewrite
                    # order, with stale-lock resolution side effects.
                    # A mate row can never still carry a lock: the mate
                    # only committed because that lock was resolved away.
                    for row in sorted(ws, key=repr):
                        rows_checked += 1
                        if row in mate_rows:
                            conflict = ("ww-conflict", row)
                            break
                        lock = lock_of(row)
                        if lock is not None:
                            lock = self._resolve_if_stale(row, lock)
                            if lock is not None:
                                conflict = ("lock-held", row)
                                break
                        recs = writes_get(row)
                        if recs is not None and recs[-2] > start:
                            conflict = ("ww-conflict", row)
                            break
                if conflict is not None:
                    reason, crow = conflict
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
                        fut._reason = reason
                        fut._row = crow
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start, reason=reason, conflict_row=crow
                            )
                        )
                    continue
                # Prewrite succeeded: assign Tc now (inlined tso.next with
                # the same reservation protocol, same TSO order as the
                # sequential run) and defer the write column to phase 2.
                if nxt > reserved:
                    tso._next = nxt
                    tso._reserve()
                    reserved = tso._reserved_until
                cts = nxt
                nxt += 1
                issued += 1
                rows = sorted(ws, key=repr)
                rows_updated += len(rows)
                finalize.append((start, cts, rows))
                mate_update(ws)
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
                    # Same partial effects as the sequential path, which
                    # writes its records and consumes Tc before the
                    # commit-table write raises.
                    errors.append((start, exc))
                    if fut is not None:
                        fut._error = exc
                    if res_append is not None:
                        res_append(None)
                    continue
                commits += 1
                pc_append((start, cts, rows))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = cts
                if res_append is not None:
                    res_append(CommitResult(True, start, commit_ts=cts))
        finally:
            # Keep engine-visible state consistent even on a mid-batch
            # protocol error: timestamps consumed so far stay consumed.
            tso._next = nxt
            tso._issued += issued
            # Phase 2 — bulk finalize: append every decided commit's
            # write records (direct ``commit_ts, start_ts`` appends — Tc
            # strictly increases across the finalize list, preserving the
            # store's commit-order invariant).  No batch locks exist to
            # release.
            for start, cts, rows in finalize:
                pair = (cts, start)
                for row in rows:
                    recs = writes_get(row)
                    if recs is None:
                        writes[row] = array("q", pair)
                    else:
                        recs.extend(pair)
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

    # ------------------------------------------------------------------
    # durability / recovery
    # ------------------------------------------------------------------
    def _log(self, kind: str, payload) -> None:
        if self._wal is not None:
            self._wal.append(kind, payload, size=32)

    def _log_ts_reservation(self, high_water: int) -> None:
        if self._wal is not None:
            self._wal.append("ts-reserve", high_water, size=8)
            self._wal.flush()

    def apply_wal_record(self, record) -> int:
        """Apply one durable record: rebuild the write column and the
        commit table (locks are volatile — a recovered engine starts
        lock-free, exactly like a restarted Percolator tablet server)."""
        kind = record.kind
        if kind == "commit":
            start_ts, commit_ts, rows = record.payload
            return self._apply_recovered_commit(start_ts, commit_ts, rows)
        if kind == "abort":
            (start_ts,) = record.payload
            return self._apply_recovered_abort(start_ts)
        if kind == GROUP_COMMIT_RECORD:
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
        writes = self._store.write_column
        for row in rows:
            records = writes.get(row)
            if records is None:
                writes[row] = array("q", (commit_ts, start_ts))
            elif commit_ts > records[-2]:
                records.extend((commit_ts, start_ts))
        return commit_ts

    def _apply_recovered_abort(self, start_ts: int) -> int:
        if not self.commit_table.is_aborted(start_ts):
            self.commit_table.record_abort(start_ts)
        return start_ts

    def seal_recovery(self, max_recovered_ts: int) -> None:
        """Re-seed the (shared) timestamp oracle above everything
        recovered — same no-reuse rule as the status oracle."""
        if self._wal is not None:
            wal_append = self._log_ts_reservation
        else:
            wal_append = self._tso.reservation_sink
        self._tso = TimestampOracle.recover(
            max(max_recovered_ts, self._tso.reserved_high_water),
            reservation_batch=self._tso.reservation_batch,
            wal_append=wal_append,
        )
        self._manager.tso = self._tso
