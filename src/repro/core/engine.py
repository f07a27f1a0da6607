"""The ``CommitEngine`` contract: what the serving stack needs from a
commit protocol.

The paper's claim is comparative — write-snapshot isolation against
Percolator-style SI locking against SSI — but PRs 1–6 gave only the
status-oracle engine the serving-stack treatment (group commit,
``decide_batch``, begin leases, admission control, HA).  This module
extracts the *interface* those layers actually consume, so that any
commit protocol — the lock-free status oracle (Algorithms 1–3), the
Percolator two-phase locking port, Cahill-style SSI — can sit behind
the same batched/replicated frontend.

The contract
============

A commit engine is the decision tier of one commit protocol.  The
serving stack (:mod:`repro.server`, :mod:`repro.sim`,
:mod:`repro.bench`, :mod:`repro.coord`) touches engines **only**
through this surface:

Timestamps
    ``begin() -> int`` serves a start timestamp; ``lease(n)``
    (optional — may be absent or ``None``) leases a contiguous block
    for the frontend's begin-lease fast path; ``timestamp_oracle``
    exposes the TSO so a WAL-owning frontend can adopt its
    reservation stream (``persists_reservations`` /
    ``attach_wal``).  An engine without ``lease`` degrades the
    frontend to per-call begins — Cahill SSI needs exactly this,
    because every begin must be observed for its concurrency window.

Decisions
    ``commit(request) -> CommitResult`` decides one
    :class:`~repro.core.status_oracle.CommitRequest`;
    ``abort(start_ts)`` records a client-initiated abort;
    ``rows_to_check(request)`` names the rows the protocol validates
    (the SI/WSI/SSI policy hook, also used by the partition router).
    ``_decide_batch(batch, payload_commits, payload_aborts, errors,
    results=None)`` is the group-commit hook: it decides a whole flush,
    observationally equivalent to the sequential calls in batch order —
    same decisions, commit timestamps, engine state and stats.  Batch
    items are ``CommitRequest`` | ``int`` (client abort) |
    ``(request_or_ts, future)``; futures get their outcome written
    directly via the ``_committed``/``_commit_ts``/``_reason``/
    ``_row``/``_error`` attributes.  The method returns ``(commits,
    aborts, rows_checked, rows_updated)`` for the frontend's batch
    accounting.  The default here *is* the sequential loop — one
    ``commit()`` / ``abort()`` call per item — and is what the
    partitioned engine decides with; the monolithic engines override it
    with one bulk pass per flush.  The hypothesis suite in
    ``tests/engines`` pins ``decide_batch ≡ sequential`` per engine.

Durability and recovery
    ``_wal`` is the engine-owned write-ahead log (or ``None`` when a
    frontend logs on the engine's behalf — one group-commit record
    per flush).  ``apply_wal_record(record) -> int`` applies one
    durable record and returns the highest timestamp it mentions;
    ``recover_from(wal)`` replays a log through it;
    ``seal_recovery(max_ts)`` re-seeds the timestamp oracle above
    everything recovered.  These three are what make an engine
    HA-capable: :class:`~repro.coord.failover.OracleHost` warm
    standbys tail the shared WAL through the same hooks.

Observability
    ``stats`` is an :class:`~repro.core.status_oracle.OracleStats`;
    ``commit_table`` the transaction-status table; ``level`` the
    protocol tag; ``naive_read_only`` tells the frontend whether
    read-only requests *with read sets* must still reach the engine
    (SSI: yes — they are rw-edge sources; the status oracle: only
    under the E16 ablation).

Implementations
===============

* :class:`~repro.core.status_oracle.StatusOracle` and subclasses —
  the paper's Algorithms 1–3.
* :class:`~repro.core.partitioned.PartitionedOracle` — the §6.3
  footnote-6 deployment: N ``lastCommit`` shards behind one TSO,
  batches decided by the default ``commit()`` loop.
* :class:`~repro.percolator.engine.PercolatorEngine` — group-committed
  prewrite/finalize over the Percolator lock/write columns.
* :class:`~repro.ssi.engine.SSIEngine` — Cahill SSI with a bulk
  rw-antidependency pass per batch.

:func:`make_engine` is the one-call factory keyed by the
``REPRO_ENGINE`` environment variable — the axis ``make check`` sweeps.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.errors import OracleClosed

#: Engine kinds :func:`make_engine` understands.
ENGINE_KINDS = ("oracle", "percolator", "ssi")


class CommitEngine:
    """Base class / structural contract for commit-protocol engines.

    Deliberately *not* an ``abc.ABC``: the serving stack duck-types
    against this surface, and the class exists to document the contract
    and to host the shared ``decide_batch`` / ``_decide_batch`` /
    ``recover_from`` templates.  A foreign backend that duck-types the
    surface without subclassing must supply ``_decide_batch`` too: it is
    the frontend's one decision path, and
    :class:`~repro.server.OracleFrontend` refuses a backend without it
    with a ``TypeError``.
    """

    #: protocol tag ("si" / "wsi" / "ssi" / "percolator" / ...).
    level: str = "base"

    #: When True, the frontend must route read-only requests that carry
    #: a read set through the engine instead of fast-pathing them.
    naive_read_only: bool = False

    #: Engine-owned WAL (None when the frontend logs for the engine).
    _wal: Any = None
    _closed: bool = False

    # ------------------------------------------------------------------
    # required surface (see module docstring for the full contract)
    # ------------------------------------------------------------------
    def begin(self) -> int:
        raise NotImplementedError

    def commit(self, request) -> Any:
        raise NotImplementedError

    def abort(self, start_ts: int) -> None:
        raise NotImplementedError

    def rows_to_check(self, request):
        raise NotImplementedError

    def _rows_checked(self) -> int:
        """Rows examined by conflict checks so far — the counter the
        default :meth:`_decide_batch` differences per flush (an engine
        that counts per shard sums its shards)."""
        return self.stats.rows_checked

    def _decide_batch(self, batch, payload_commits, payload_aborts, errors,
                      results=None):
        """The default batch decision: one :meth:`commit` /
        :meth:`abort` call per item, in batch order.

        Sequential equivalence holds by construction.  Decision payloads
        go to ``payload_commits`` / ``payload_aborts`` in decision order;
        a call that raises is isolated to its item through ``errors``
        (its future gets the error, its ``results`` slot is ``None``) and
        the rest of the batch is still decided.  ``results``, when given,
        receives one entry per item: the ``CommitResult`` of
        :meth:`commit`, or ``CommitResult(False, start_ts,
        reason=CLIENT_ABORT)`` for a client abort.
        """
        # Lazy: status_oracle subclasses this module's CommitEngine.
        from repro.core.status_oracle import (
            CLIENT_ABORT,
            CommitRequest,
            CommitResult,
        )

        commit, abort = self.commit, self.abort
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        res_append = results.append if results is not None else None
        checked_before = self._rows_checked()
        commits = aborts = rows_updated = 0
        for item in batch:
            req, fut = item if item.__class__ is tuple else (item, None)
            try:
                if req.__class__ is not CommitRequest:
                    abort(req)
                    aborts += 1
                    pa_append(req)
                    if fut is not None:
                        fut._reason = CLIENT_ABORT
                    if res_append is not None:
                        res_append(CommitResult(False, req, reason=CLIENT_ABORT))
                    continue
                result = commit(req)
            except Exception as exc:
                errors.append(
                    (req if req.__class__ is not CommitRequest
                     else req.start_ts, exc)
                )
                if fut is not None:
                    fut._error = exc
                if res_append is not None:
                    res_append(None)
                continue
            if res_append is not None:
                res_append(result)
            if result.committed:
                commits += 1
                if result.commit_ts is not None:
                    rows_updated += len(req.write_set)
                    pc_append((req.start_ts, result.commit_ts, req.write_set))
                if fut is not None:
                    fut._committed = True
                    fut._commit_ts = result.commit_ts
            else:
                aborts += 1
                pa_append(req.start_ts)
                if fut is not None:
                    fut._reason = result.reason
                    fut._row = result.conflict_row
        return commits, aborts, self._rows_checked() - checked_before, rows_updated

    @property
    def timestamp_oracle(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the batch surface (shared template)
    # ------------------------------------------------------------------
    def decide_batch(self, requests: Iterable[Any]) -> List[Any]:
        """Decide a whole group-commit batch in one pass.

        ``requests`` is a sequence of
        :class:`~repro.core.status_oracle.CommitRequest` objects,
        optionally interleaved with bare start timestamps (``int``)
        that denote client-initiated aborts.  Returns one
        :class:`~repro.core.status_oracle.CommitResult` per item, in
        order; a client abort yields
        ``CommitResult(False, start_ts, reason=CLIENT_ABORT)``.

        Semantics are identical to feeding the items one at a time
        through :meth:`commit` / :meth:`abort` — same decisions, commit
        timestamps, engine state and stats (the property suites in
        ``tests/server`` and ``tests/engines`` pin this for every
        engine) — but the per-request interpreter overhead is
        amortized by the engine's ``_decide_batch`` loop, and the whole
        batch persists as a **single** group-commit WAL record instead
        of one record per decision (replayed by :meth:`recover_from`).

        Protocol misuse (e.g. committing an already-aborted
        transaction) is isolated to the offending request: the rest of
        the batch is still decided and persisted, then the first such
        error re-raises.
        """
        if self._closed:
            raise OracleClosed(f"{type(self).__name__} is closed")
        payload_commits: List[Tuple[int, int, Any]] = []
        payload_aborts: List[int] = []
        errors: List[Tuple[int, BaseException]] = []
        results: List[Optional[Any]] = []
        try:
            self._decide_batch(
                list(requests), payload_commits, payload_aborts, errors, results
            )
        finally:
            # Mirror the sequential path: decisions made before an error
            # were already appended per-record there, so they must be
            # durable here too.
            if self._wal is not None and (payload_commits or payload_aborts):
                self._wal.append_decisions(payload_commits, payload_aborts)
        if errors:
            raise errors[0][1]
        return results

    # ------------------------------------------------------------------
    # durability / recovery (shared template over the per-record hook)
    # ------------------------------------------------------------------
    def apply_wal_record(self, record) -> int:
        raise NotImplementedError

    def seal_recovery(self, max_recovered_ts: int) -> None:
        raise NotImplementedError

    def recover_from(self, wal) -> int:
        """Rebuild engine state by WAL replay.

        "if the status oracle server fails ... another fresh instance
        of the status oracle could still recreate the memory state from
        the write-ahead log and continue servicing the commit requests"
        (Appendix A) — generalized to any engine that can apply one
        durable record at a time.

        Returns the number of records replayed — counted during this
        one pass, because the pass *is* the failover cost the caller
        wants to report (a second counting replay would double recovery
        time).
        """
        max_ts = 0
        replayed = 0
        for record in wal.replay():
            max_ts = max(max_ts, self.apply_wal_record(record))
            replayed += 1
        self.seal_recovery(max_ts)
        return replayed

    def close(self) -> None:
        if self._wal is not None:
            self._wal.flush()
        self._closed = True


def default_engine_kind() -> str:
    """The engine kind the serving stack assumes when none is given:
    the ``REPRO_ENGINE`` environment variable, then ``"oracle"``.

    The protocol-agnostic entry points (:class:`ReplicatedFrontend`,
    :class:`OracleReplicaSet`, :class:`GroupCommitSim`) resolve their
    ``engine=None`` default through this, so ``make check`` can sweep
    the whole serving stack across protocols by exporting the
    variable.  Layers with a protocol-specific contract (e.g.
    ``create_system``'s isolation-level API) pin ``engine="oracle"``
    explicitly instead.
    """
    return os.environ.get("REPRO_ENGINE", "oracle").strip().lower()


def make_engine(kind: Optional[str] = None, **kwargs) -> CommitEngine:
    """Build a commit engine by protocol kind.

    ``kind`` defaults to the ``REPRO_ENGINE`` environment variable
    (then ``"oracle"``) — the axis ``make check`` sweeps so the fast
    suite runs once per protocol.  Recognized kinds:

    * ``"oracle"`` — the status oracle; ``level=`` selects "si"/"wsi"
      (default "wsi") and the remaining kwargs go to
      :func:`~repro.core.status_oracle.make_oracle`.
    * ``"si"`` / ``"wsi"`` — shorthand for the oracle at that level.
    * ``"percolator"`` — :class:`~repro.percolator.engine.PercolatorEngine`.
    * ``"ssi"`` — :class:`~repro.ssi.engine.SSIEngine`.

    Imports are deliberately lazy: ``repro.percolator`` and
    ``repro.ssi`` import :mod:`repro.core`, not the other way around.
    """
    if kind is None:
        kind = default_engine_kind()
    kind = kind.strip().lower()
    if kind in ("oracle", "si", "wsi"):
        from repro.core.status_oracle import make_oracle

        level = kwargs.pop("level", None) or ("wsi" if kind == "oracle" else kind)
        return make_oracle(level, **kwargs)
    kwargs.pop("level", None)
    if kind == "percolator":
        from repro.percolator.engine import PercolatorEngine

        return PercolatorEngine(**kwargs)
    if kind in ("ssi", "serializable"):
        from repro.ssi.engine import SSIEngine

        return SSIEngine(**kwargs)
    raise ValueError(
        f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
    )
