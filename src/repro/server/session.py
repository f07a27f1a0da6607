"""Async client sessions over the group-commit frontend.

A :class:`ClientSession` is one logical client: it begins transactions
against the frontend, submits their commit/abort requests, and receives
:class:`~repro.server.frontend.CommitFuture` handles that resolve when
the enclosing batch flushes.  A session may keep any number of
transactions in flight — the paper's oracle stress setup runs 100
outstanding transactions per client (§6.3) — and tallies its own
commit/abort outcomes as its futures settle, which the stress tests
reconcile against the backend's :class:`~repro.core.status_oracle.OracleStats`.

A session may also hold its **own begin lease**
(``ClientSession(begin_lease=n)``): a private block of start timestamps
refilled through one :meth:`~repro.server.frontend.OracleFrontend.begin_many`
call per ``n`` begins.  This shards the frontend's single local lease
block for thread-per-session deployments — each session touches only its
own block on ``begin()``, instead of every session contending on the
frontend's one cursor pair — at the usual lease cost: the unserved
remainder of a dropped session becomes a permanent timestamp gap (never
reuse; the block was durably reserved), and a lease-served begin carries
the snapshot of its refill time.  The default (``begin_lease=1``) keeps
per-call semantics exactly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional

from repro.core.errors import InvalidTransactionState, OracleClosed, Overloaded
from repro.core.status_oracle import CommitRequest
from repro.server.frontend import CommitFuture, OracleFrontend
from repro.server.retry import RetryPolicy

_session_ids = itertools.count(1)


class ClientSession:
    """One logical client multiplexed onto an :class:`OracleFrontend`.

    Args:
        frontend: the serving tier to multiplex onto (an
            :class:`OracleFrontend` or anything duck-typing its client
            surface, e.g. :class:`~repro.server.ha.ReplicatedFrontend`).
        name: label for diagnostics; auto-generated when omitted.
        begin_lease: private begin-lease block size (module docstring).
        retry_policy: how to respond when admission control sheds a
            submit with :class:`~repro.core.errors.Overloaded` — back
            off per the policy and resubmit, re-raising once the policy
            is spent.  ``None`` (default) propagates the rejection
            immediately.
        sleep: callable receiving each backoff delay in seconds; the
            deployment decides what a delay means (advance the manual
            clock and tick the frontend so it drains, or time out in
            the simulator).  Without it retries are immediate.
    """

    def __init__(
        self,
        frontend: OracleFrontend,
        name: Optional[str] = None,
        begin_lease: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Optional[callable] = None,
    ) -> None:
        if begin_lease < 1:
            raise ValueError("begin_lease must be >= 1")
        self._frontend = frontend
        self._retry_policy = retry_policy
        self._sleep = sleep
        self.name = name or f"session-{next(_session_ids)}"
        self._open: set = set()
        self._last_begun: Optional[int] = None
        # Per-session begin lease: a reversed block served oldest-first
        # from the tail, refilled via one frontend.begin_many(n) per n
        # begins (the module docstring covers the trade-offs).
        self._begin_lease = begin_lease
        self._lease: List[int] = []
        # per-session outcome tallies, updated as each future settles
        self.submitted = 0
        self.commits = 0
        self.aborts = 0
        self.read_only_commits = 0
        self.errors = 0
        #: Overloaded rejections absorbed by the retry policy (each one
        #: cost a backoff; rejections that exhausted the policy re-raise
        #: and are not counted here).
        self.overload_retries = 0
        #: Injected-time seconds this session spent backing off.
        self.backoff_seconds = 0.0

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> int:
        """Open a transaction; multiple may be in flight concurrently.

        With ``begin_lease=n`` the common case is one ``list.pop`` off
        the session's private block; one ``frontend.begin_many(n)``
        refill pays for the next ``n`` begins.
        """
        # A closed frontend must refuse begins even while this session
        # still holds leased timestamps (the frontend empties its *own*
        # lease on close for exactly this guarantee); the remainder
        # stays droppable via release_lease.
        if self._frontend.closed:
            raise OracleClosed(f"{self.name}: oracle frontend is closed")
        lease = self._lease
        if lease:
            start_ts = lease.pop()
        elif self._begin_lease == 1:
            start_ts = self._frontend.begin()
        else:
            block = self._frontend.begin_many(self._begin_lease)
            start_ts = block[0]
            block.reverse()
            block.pop()
            self._lease = block
        self._open.add(start_ts)
        self._last_begun = start_ts
        return start_ts

    def begin_many(self, n: int) -> List[int]:
        """Open ``n`` transactions in one frontend call.

        The batched begin surface for clients that keep many
        transactions in flight (the paper's stress setup runs 100 per
        client, §6.3): one ``frontend.begin_many`` round-trip instead of
        ``n`` begins.  All ``n`` are open concurrently; the last one is
        the default target for :meth:`commit`/:meth:`abort`.  The
        session lease is drained first and the shortfall leased exactly
        (no over-refill), mirroring the frontend's own ``begin_many``.
        """
        if n < 1:
            raise ValueError("begin_many needs n >= 1")
        if self._frontend.closed:
            raise OracleClosed(f"{self.name}: oracle frontend is closed")
        lease = self._lease
        starts = [lease.pop() for _ in range(min(n, len(lease)))]
        short = n - len(starts)
        if short:
            starts.extend(self._frontend.begin_many(short))
        self._open.update(starts)
        self._last_begun = starts[-1]
        return starts

    def release_lease(self) -> int:
        """Drop the unserved remainder of the session's begin lease.

        Returns how many timestamps were dropped.  They become permanent
        gaps, never reuse — the block was durably reserved before it was
        served (the same crash semantics as the frontend's own lease).
        Call this when retiring a session whose frontend lives on.
        """
        dropped = len(self._lease)
        self._lease = []
        return dropped

    @property
    def lease_remaining(self) -> int:
        """Unserved timestamps left in the session's private lease."""
        return len(self._lease)

    def commit(
        self,
        write_set: Iterable = (),
        read_set: Iterable = (),
        start_ts: Optional[int] = None,
    ) -> CommitFuture:
        """Submit the commit request of an open transaction.

        Defaults to the most recently begun transaction; pass ``start_ts``
        to pick one of several in-flight transactions.

        This is the stack's hottest client call: without a retry policy
        the request goes to the frontend in one call — no closure, no
        ``_submit`` frame — and the tally rides the future's owner slot
        (:meth:`CommitFuture._attach_owner`), not a per-request callback
        list.
        """
        ts = self._resolve_open(start_ts)
        request = CommitRequest(ts, frozenset(write_set), frozenset(read_set))
        if self._retry_policy is None:
            future = self._frontend.submit_commit(request)
        else:
            future = self._submit(self._frontend.submit_commit, request)
        self._forget_open(ts)
        self.submitted += 1
        future._attach_owner(self)
        return future

    def abort(self, start_ts: Optional[int] = None) -> CommitFuture:
        """Submit a client-initiated abort for an open transaction."""
        ts = self._resolve_open(start_ts)
        future = self._submit(self._frontend.submit_abort, ts)
        self._forget_open(ts)
        self.submitted += 1
        future._attach_owner(self)
        return future

    def _submit(self, submit, arg) -> CommitFuture:
        """Run ``submit(arg)`` under the session's overload-retry policy.

        ``Overloaded`` is the only retryable error: the request was
        *shed*, not decided, so resubmitting cannot double-decide it.
        The transaction stays open throughout (``_forget_open`` runs
        only after a submit is accepted), so a rejection that exhausts
        the policy leaves it retryable elsewhere.
        """
        policy = self._retry_policy
        if policy is None:
            return submit(arg)
        attempt = 1
        while True:
            try:
                return submit(arg)
            except Overloaded:
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_for(attempt)
                self.overload_retries += 1
                self.backoff_seconds += delay
                if self._sleep is not None:
                    self._sleep(delay)
                attempt += 1

    def _resolve_open(self, start_ts: Optional[int]) -> int:
        """Validate (without removing) the transaction to act on."""
        ts = start_ts if start_ts is not None else self._last_begun
        if ts is None or ts not in self._open:
            raise InvalidTransactionState(
                f"{self.name}: transaction {ts} is not open in this session"
            )
        return ts

    def _forget_open(self, ts: int) -> None:
        """Close out a transaction *after* its request was accepted.

        Deliberately separate from :meth:`_resolve_open`: if ``submit_*``
        raises (e.g. the frontend closed), the transaction must stay
        open in the session rather than vanish untracked — the caller
        can retry or abort it elsewhere.
        """
        self._open.discard(ts)
        if ts == self._last_begun:
            self._last_begun = None

    def _tally(self, future: CommitFuture) -> None:
        outcome = future.outcome()
        if outcome == "error":
            # a decision that raised is neither a commit nor an abort —
            # the backend recorded nothing for it
            self.errors += 1
        elif outcome == "aborted":
            self.aborts += 1
        else:
            self.commits += 1
            if outcome == "read-only":
                self.read_only_commits += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        return len(self._open)

    @property
    def decided(self) -> int:
        return self.commits + self.aborts + self.errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClientSession({self.name!r}, open={len(self._open)}, "
            f"commits={self.commits}, aborts={self.aborts})"
        )
