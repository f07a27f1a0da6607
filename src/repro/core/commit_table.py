"""The commit table: start-timestamp -> commit-timestamp mapping.

Line 6 of Algorithms 1 and 2 "maintains the mapping between the
transaction start and commit timestamps.  This data could be used later
to process queries about the transaction statuses."  Readers need this
mapping to decide version visibility (the snapshot skip rule).  The paper
lists three places the mapping can live: the status oracle itself, the
data servers ("written back into the database"), or replicated on the
clients — the paper's experiments, and this reproduction, use the client
replica.

:class:`CommitTable` is the authoritative copy inside the status oracle;
:class:`ClientCommitView` is a read-only replica a client keeps in sync by
applying the oracle's broadcast stream.  Both satisfy the
:class:`repro.mvcc.snapshot.CommitStatusSource` protocol, and on both
``commit_timestamp`` *is* the mapping's own bound ``dict.get`` (assigned
in ``__init__``; the dict is never rebound): the snapshot-read kernel
probes it once per version examined, so the probe is a C call.  Commit
and abort are mutually exclusive per transaction — ``record_commit`` /
``record_abort`` enforce it — which is why ``None`` from that one probe
already means "running or aborted" and readers never ask ``is_aborted``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.errors import InvariantViolation


class CommitTable:
    """Authoritative commit/abort state, owned by the status oracle."""

    def __init__(self) -> None:
        self._commits: Dict[int, int] = {}  # start_ts -> commit_ts
        self._aborted: Set[int] = set()
        self._subscribers: List[Callable[[str, int, Optional[int]], None]] = []
        #: CommitStatusSource: commit timestamp of the transaction that
        #: started at ``start_ts``, ``None`` while running or if aborted.
        self.commit_timestamp: Callable[[int], Optional[int]] = self._commits.get

    # ------------------------------------------------------------------
    # updates (status-oracle side)
    # ------------------------------------------------------------------
    def record_commit(self, start_ts: int, commit_ts: int) -> None:
        if start_ts in self._aborted:
            raise ValueError(f"txn {start_ts} already aborted; cannot commit")
        if commit_ts <= start_ts:
            raise ValueError(
                f"commit_ts {commit_ts} must exceed start_ts {start_ts}"
            )
        self._commits[start_ts] = commit_ts
        self._publish("commit", start_ts, commit_ts)

    def record_abort(self, start_ts: int) -> None:
        if start_ts in self._commits:
            raise ValueError(f"txn {start_ts} already committed; cannot abort")
        self._aborted.add(start_ts)
        self._publish("abort", start_ts, None)

    # ------------------------------------------------------------------
    # CommitStatusSource protocol (commit_timestamp: see __init__)
    # ------------------------------------------------------------------
    def is_aborted(self, start_ts: int) -> bool:
        return start_ts in self._aborted

    def is_committed(self, start_ts: int) -> bool:
        return start_ts in self._commits

    # ------------------------------------------------------------------
    # replication to clients
    # ------------------------------------------------------------------
    def subscribe(
        self, callback: Callable[[str, int, Optional[int]], None]
    ) -> None:
        """Register a replica feed: callback(kind, start_ts, commit_ts)."""
        self._subscribers.append(callback)

    def _publish(self, kind: str, start_ts: int, commit_ts: Optional[int]) -> None:
        for callback in self._subscribers:
            callback(kind, start_ts, commit_ts)

    def snapshot_entries(self) -> Iterator[Tuple[str, int, Optional[int]]]:
        """Dump current state (bootstrap for a late-joining replica)."""
        for start_ts, commit_ts in self._commits.items():
            yield "commit", start_ts, commit_ts
        for start_ts in self._aborted:
            yield "abort", start_ts, None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def commit_count(self) -> int:
        return len(self._commits)

    @property
    def abort_count(self) -> int:
        return len(self._aborted)


class ClientCommitView:
    """A client-side replica of the commit table (paper's configuration).

    The client applies the oracle's broadcast stream; visibility decisions
    are made against this local copy, avoiding a round trip to the oracle
    per read ("replicated on the clients [17]", §2.2).

    A view can be constructed *attached* (live subscription) or *detached*
    and fed manually — the latter lets tests model replication lag, which
    is safe for SI/WSI: a lagging replica makes recently-committed
    versions look uncommitted, so a reader may skip data it could have
    seen, but it never reads data outside its snapshot.
    """

    def __init__(self, source: Optional[CommitTable] = None) -> None:
        self._commits: Dict[int, int] = {}
        self._aborted: Set[int] = set()
        #: CommitStatusSource: as :attr:`CommitTable.commit_timestamp`,
        #: answered from this replica (``None`` also for a commit the
        #: replication stream has not delivered yet).
        self.commit_timestamp: Callable[[int], Optional[int]] = self._commits.get
        if source is not None:
            for kind, start_ts, commit_ts in source.snapshot_entries():
                self.apply(kind, start_ts, commit_ts)
            source.subscribe(self.apply)

    def apply(self, kind: str, start_ts: int, commit_ts: Optional[int]) -> None:
        """Apply one replication record."""
        if kind == "commit":
            if commit_ts is None:
                raise InvariantViolation(
                    f"commit record for txn {start_ts} carries no commit_ts"
                )
            self._commits[start_ts] = commit_ts
        elif kind == "abort":
            self._aborted.add(start_ts)
        else:
            raise ValueError(f"unknown commit-table record kind {kind!r}")

    # CommitStatusSource protocol (commit_timestamp: see __init__) -----
    def is_aborted(self, start_ts: int) -> bool:
        return start_ts in self._aborted

    @property
    def size(self) -> int:
        return len(self._commits) + len(self._aborted)
