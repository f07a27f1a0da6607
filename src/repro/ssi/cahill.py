"""Serializable snapshot isolation (Cahill et al. [8]), oracle-adapted.

The paper's related work (§7.1) discusses Cahill, Röhm and Fekete's
*Serializable Isolation for Snapshot Databases* (TODS 2009): keep
snapshot isolation's write-write aborts, additionally track read-write
**antidependencies** (``rw``-edges: reader → overwriting writer) between
concurrent transactions, and abort when a transaction becomes a *pivot*
— it has both an incoming and an outgoing rw-edge — since every
SI anomaly contains such a structure.  The check is conservative:
"It, however, allows for false positives, which further lowers the
concurrency level due to unnecessary aborts."

This module adapts the algorithm to the paper's centralized, lock-free
setting so it can be compared head-to-head with SI and WSI: instead of
SIREAD locks, the oracle retains the (read set, write set, interval) of
recently committed transactions and evaluates rw-edges at commit time.

At commit of ``T`` against each *concurrent* committed ``C``:

* ``C.read_set ∩ T.write_set`` ≠ ∅  →  edge ``C → T`` (T has in-conflict,
  C gains out-conflict);
* ``T.read_set ∩ C.write_set`` ≠ ∅  →  edge ``T → C`` (T has
  out-conflict, C gains in-conflict).

``T`` aborts if committing it would give *any* transaction — itself or
an already-committed neighbour — both flags (a committed transaction
cannot be aborted retroactively, so the pivot must be prevented by
aborting ``T``).

The retained-footprint window is pruned below the oldest active start
timestamp, mirroring how SIREAD locks are released once no concurrent
transaction remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.errors import OracleClosed
from repro.core.status_oracle import (
    CLIENT_ABORT,
    CommitRequest,
    CommitResult,
    StatusOracle,
)

RowKey = Hashable


@dataclass(slots=True)
class _CommittedTxn:
    """Footprint of a committed transaction retained for edge detection."""

    start_ts: int
    commit_ts: int
    read_set: FrozenSet[RowKey]
    write_set: FrozenSet[RowKey]
    in_conflict: bool = False   # some concurrent txn has an rw-edge INTO it
    out_conflict: bool = False  # it has an rw-edge into a concurrent txn
    #: position in ``_recent`` while a batched flush is running — the
    #: deferred-prune liveness predicate compares it against the
    #: clear-all watermark (meaningless outside ``_decide_batch``).
    idx: int = 0


class SerializableSIOracle(StatusOracle):
    """SI + commit-time dangerous-structure detection (Cahill-style).

    Keeps Algorithm 1's write-write check (SSI retains SI's first-
    committer-wins rule) and layers the pivot check on top.
    """

    level = "ssi"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._active_starts: Set[int] = set()
        self._recent: List[_CommittedTxn] = []
        self.pivot_aborts = 0

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def begin(self) -> int:
        ts = super().begin()
        self._active_starts.add(ts)
        return ts

    def abort(self, start_ts: int) -> None:
        # A client abort ends the transaction: without the discard its
        # start pins the prune horizon and ``_recent`` never shrinks.
        self._active_starts.discard(start_ts)
        super().abort(start_ts)

    def release_start(self, start_ts: int) -> None:
        """Mark a begun transaction finished without a commit/abort call.

        The serving frontend resolves empty-footprint commit requests at
        submit time — correct (no footprint, no dangerous structure),
        but the engine would otherwise keep the start in its active set
        forever, pinning the min-active prune horizon at that start and
        making the retained-footprint window grow without bound.  The
        frontend calls this hook from its fast path when the backend
        exposes it.
        """
        self._active_starts.discard(start_ts)

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        return request.write_set  # the SI ww-check is kept verbatim

    def commit(self, request: CommitRequest) -> CommitResult:
        self._active_starts.discard(request.start_ts)

        # Read-only fast path: a read-only transaction can participate in
        # a dangerous structure only as a pivot's *source*; Cahill's
        # optimization (and ours): snapshot reads make it safe to commit
        # read-only transactions that submit empty sets.
        if request.is_read_only and not request.read_set:
            return super().commit(request)

        # Phase 1: SI's write-write check (inherited machinery).
        conflict = self._check(request)
        if conflict is not None:
            reason, row = conflict
            self.stats.aborts += 1
            self.stats.conflict_aborts += 1
            self.commit_table.record_abort(request.start_ts)
            self._log("abort", (request.start_ts,))
            return CommitResult(
                False, request.start_ts, reason=reason, conflict_row=row
            )

        # Phase 2: dangerous-structure (pivot) check against concurrent
        # committed transactions.
        in_edge, out_edge, neighbours = self._edges(request)
        if in_edge and out_edge:
            self.pivot_aborts += 1
            return self._abort_pivot(request, "ssi-pivot-self")
        for neighbour, gains_in, gains_out in neighbours:
            if (neighbour.in_conflict or gains_in) and (
                neighbour.out_conflict or gains_out
            ):
                self.pivot_aborts += 1
                return self._abort_pivot(request, "ssi-pivot-neighbour")

        # Safe: commit, apply edge flags, retain the footprint.
        commit_ts = self._tso.next()
        rows = self.rows_to_update(request)
        self._install(rows, commit_ts)
        self.stats.rows_updated += len(rows)
        self.commit_table.record_commit(request.start_ts, commit_ts)
        self.stats.commits += 1
        self._log("commit", (request.start_ts, commit_ts, tuple(rows)))
        for neighbour, gains_in, gains_out in neighbours:
            neighbour.in_conflict = neighbour.in_conflict or gains_in
            neighbour.out_conflict = neighbour.out_conflict or gains_out
        self._recent.append(
            _CommittedTxn(
                request.start_ts,
                commit_ts,
                request.read_set,
                request.write_set,
                in_conflict=in_edge,
                out_conflict=out_edge,
            )
        )
        self._prune()
        return CommitResult(True, request.start_ts, commit_ts=commit_ts)

    # ------------------------------------------------------------------
    # the group-commit hot path
    # ------------------------------------------------------------------
    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """Bulk rw-antidependency pass for a whole flush.

        The :class:`StatusOracle` loop would skip the pivot check
        entirely (it only knows the store's scan and install hooks), so
        SSI supplies its own engine around the same two hooks.  Observationally equivalent to
        :meth:`commit`/:meth:`abort` in batch order — same decisions,
        commit timestamps, lastCommit, commit table, stats,
        ``pivot_aborts`` and retained footprints — with the edge scan
        restructured for the batch:

        * an **aggregate screen** over the retained footprints (the
          union of their read rows, the union of their written rows) is
          built once per flush and kept current as batch commits
          append; a request disjoint from both aggregates — the common
          case — provably has no rw-edge and skips the scan, and only
          an aggregate hit pays the per-footprint intersection pass;
        * pruning is **deferred**: the sequential path rebuilds
          ``_recent`` after every commit, but a footprint dead at any
          intermediate horizon is dead at every later one (the
          min-active horizon only rises, commit timestamps only grow),
          so liveness is tracked as a predicate — appended at or after
          the last clear-all, commit_ts above the highest horizon — and
          the list is rebuilt once at the end of the flush.
        """
        if self._closed:
            raise OracleClosed("status oracle is closed")
        tso = self._tso
        if tso._closed:
            raise OracleClosed("timestamp oracle is closed")
        _, scan, install = self._hooks()
        ct = self.commit_table
        # Replicas subscribed to the commit table must see every decision,
        # so only bypass its record methods when nobody is listening.
        fast_ct = not ct._subscribers
        ct_commits = ct._commits
        ct_aborted = ct._aborted
        record_abort = ct.record_abort
        record_commit = ct.record_commit
        active = self._active_starts
        active_discard = active.discard
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        nxt = tso._next
        reserved = tso._reserved_until
        # The bulk rw-edge screen: two aggregate row sets — every row
        # any retained footprint read, every row one wrote.  A request
        # whose write set misses the read aggregate and whose read set
        # misses the write aggregate has no rw-edge with *any* retained
        # footprint (two C-speed ``isdisjoint`` calls decide the common
        # no-overlap case); only on a hit does the slow path scan the
        # live footprints with per-pair intersections.  The aggregates
        # are conservative — they keep rows of footprints a deferred
        # prune has already condemned — which costs a false slow-path,
        # never a wrong edge (the scan re-checks liveness per
        # footprint via ``idx``/``commit_ts``).
        recent = self._recent
        recent_append = recent.append
        agg_read: set = set()
        agg_write: set = set()
        agg_read_update = agg_read.update
        agg_write_update = agg_write.update
        agg_read_isdisjoint = agg_read.isdisjoint
        agg_write_isdisjoint = agg_write.isdisjoint
        committed_txn = _CommittedTxn
        for i, c in enumerate(recent):
            c.idx = i
            agg_read_update(c.read_set)
            agg_write_update(c.write_set)
        no_gains: Dict[int, list] = {}
        # Deferred-prune liveness: a footprint is live iff its index is
        # >= clear_from (no clear-all since it was retained) and its
        # commit_ts > floor (above every horizon pruned so far).
        floor = 0
        clear_from = 0
        commits = conflict_aborts = client_aborts = ro_commits = 0
        pivots = issued = rows_checked = rows_updated = 0
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
                        active_discard(start)
                        try:
                            if fast_ct:
                                if start in ct_commits:
                                    raise ValueError(
                                        f"txn {start} already committed; "
                                        "cannot abort"
                                    )
                                ct_aborted.add(start)
                            else:
                                record_abort(start)
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
                active_discard(start)
                ws = req.write_set
                rs = req.read_set
                if not ws and not rs:
                    # Cahill's read-only optimization: an empty footprint
                    # cannot be part of a dangerous structure.
                    ro_commits += 1
                    if fut is not None:
                        fut._committed = True
                    if res_append is not None:
                        res_append(CommitResult(True, start, commit_ts=None))
                    continue
                # Phase 1: SI's write-write check (the store's scan).
                conflict_row = None
                if ws:
                    conflict_row, examined = scan(ws, start)
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
                            record_abort(start)
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
                        fut._reason = "ww-conflict"
                        fut._row = conflict_row
                    if res_append is not None:
                        res_append(
                            CommitResult(
                                False, start,
                                reason="ww-conflict",
                                conflict_row=conflict_row,
                            )
                        )
                    continue
                # Phase 2: dangerous-structure check.  Aggregate screen
                # first; on a hit, scan the live footprints pairwise
                # (exactly the sequential :meth:`_edges` semantics,
                # restricted by the deferred-prune liveness predicate).
                t_in = t_out = False
                if agg_read_isdisjoint(ws) and agg_write_isdisjoint(rs):
                    gains = no_gains
                else:
                    gains = {}
                    for c in recent:
                        if (
                            c.idx >= clear_from
                            and c.commit_ts > floor
                            and c.commit_ts > start
                        ):
                            gain_in = gain_out = False
                            if not c.read_set.isdisjoint(ws):
                                t_in = True  # edge C -> T
                                gain_out = True
                            if not c.write_set.isdisjoint(rs):
                                t_out = True  # edge T -> C
                                gain_in = True
                            if gain_in or gain_out:
                                gains[c.idx] = [c, gain_in, gain_out]
                pivot_reason = None
                if t_in and t_out:
                    pivot_reason = "ssi-pivot-self"
                else:
                    for c, g_in, g_out in gains.values():
                        if (c.in_conflict or g_in) and (
                            c.out_conflict or g_out
                        ):
                            pivot_reason = "ssi-pivot-neighbour"
                            break
                if pivot_reason is not None:
                    try:
                        if fast_ct:
                            if start in ct_commits:
                                raise ValueError(
                                    f"txn {start} already committed; "
                                    "cannot abort"
                                )
                            ct_aborted.add(start)
                        else:
                            record_abort(start)
                    except Exception as exc:
                        errors.append((start, exc))
                        if fut is not None:
                            fut._error = exc
                        if res_append is not None:
                            res_append(None)
                        continue
                    pivots += 1
                    conflict_aborts += 1
                    pa_append(start)
                    if fut is not None:
                        fut._reason = pivot_reason
                    if res_append is not None:
                        res_append(
                            CommitResult(False, start, reason=pivot_reason)
                        )
                    continue
                # Safe: commit (inlined tso.next with the reservation
                # protocol), install, retain and index the footprint.
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
                        record_commit(start, cts)
                except Exception as exc:
                    # Same partial effects as the unbatched path, which
                    # installs and consumes Tc before its commit-table
                    # write raises.
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
                for c, g_in, g_out in gains.values():
                    if g_in:
                        c.in_conflict = True
                    if g_out:
                        c.out_conflict = True
                footprint = committed_txn(
                    start, cts, rs, ws,
                    in_conflict=t_in, out_conflict=t_out, idx=len(recent),
                )
                recent_append(footprint)
                agg_read_update(rs)
                agg_write_update(ws)
                # Deferred prune: only advance the liveness predicate.
                if not active:
                    clear_from = len(recent)
                else:
                    horizon = min(active)
                    if horizon > floor:
                        floor = horizon
        finally:
            tso._next = nxt
            tso._issued += issued
            self.pivot_aborts += pivots
            st = self.stats
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.rows_checked += rows_checked
            st.rows_updated += rows_updated
            # Materialize the deferred prunes exactly once.
            if clear_from >= len(recent):
                self._recent = []
            elif clear_from or floor:
                self._recent = [
                    c
                    for i, c in enumerate(recent)
                    if i >= clear_from and c.commit_ts > floor
                ]
        return (
            commits + ro_commits,
            conflict_aborts + client_aborts,
            rows_checked,
            rows_updated,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _edges(
        self, request: CommitRequest
    ) -> Tuple[bool, bool, List[Tuple[_CommittedTxn, bool, bool]]]:
        """rw-edges between the committing txn and concurrent committed
        txns.  Returns (T has in-edge, T has out-edge, per-neighbour
        (txn, neighbour gains in, neighbour gains out))."""
        t_in = t_out = False
        neighbours: List[Tuple[_CommittedTxn, bool, bool]] = []
        for committed in self._recent:
            # concurrency: C committed after T started (T could not see
            # C's writes; C could not have seen T's).
            if committed.commit_ts <= request.start_ts:
                continue
            c_gains_in = c_gains_out = False
            if committed.read_set & request.write_set:
                t_in = True          # edge C -> T
                c_gains_out = True
            if request.read_set & committed.write_set:
                t_out = True         # edge T -> C
                c_gains_in = True
            if c_gains_in or c_gains_out:
                neighbours.append((committed, c_gains_in, c_gains_out))
        return t_in, t_out, neighbours

    def _abort_pivot(self, request: CommitRequest, reason: str) -> CommitResult:
        self.stats.aborts += 1
        self.stats.conflict_aborts += 1
        self.commit_table.record_abort(request.start_ts)
        self._log("abort", (request.start_ts,))
        return CommitResult(False, request.start_ts, reason=reason)

    def _prune(self) -> None:
        """Drop footprints no active transaction can be concurrent with."""
        if not self._active_starts:
            horizon: Optional[int] = None
        else:
            horizon = min(self._active_starts)
        if horizon is None:
            self._recent.clear()
            return
        self._recent = [c for c in self._recent if c.commit_ts > horizon]

    @property
    def retained_footprints(self) -> int:
        return len(self._recent)
