"""Partitioned status oracles: the paper's scale-out footnote, implemented.

§6.3, footnote 6: "the reported performance is for one status oracle
implemented on a simple dual-core machine.  To get a higher throughput,
one could partition the database and use a status oracle for each
partition."

:class:`PartitionedOracle` shards the ``lastCommit`` state by row hash
across N independent conflict-detection partitions while keeping a
single shared timestamp oracle, so timestamps still form one global
commit order and snapshot semantics are unchanged.  Rows are placed by a
process-independent :class:`~repro.core.sharding.ShardingPolicy` (by
default :func:`~repro.core.sharding.stable_hash` modulo the partition
count; :class:`~repro.core.sharding.RangeSharding` and
:class:`~repro.core.sharding.DirectorySharding` trade cross-partition
traffic for aligned traffic): every frontend, replica and recovered
instance must agree on which partition owns a row, which Python's
salted builtin ``hash()`` cannot guarantee.
:meth:`~PartitionedOracle.commit` decides one request:

* a transaction whose footprint touches **one** partition is decided by
  that partition alone (:meth:`~PartitionedOracle._commit_single`) —
  the common case the footnote envisions, and the source of the
  throughput scaling;
* a **cross-partition** transaction runs a two-phase decision
  (:meth:`~PartitionedOracle._commit_cross`): every involved partition
  validates its share of the checked rows with its store's ``scan``
  hook (:func:`~repro.core.lastcommit.store_hooks`, phase 1); only if
  *all* shares pass is the commit timestamp assigned
  and every partition's ``lastCommit`` share installed (phase 2).
  Because checks precede any update and the commit timestamp is
  allocated once, the outcome is identical to what a single monolithic
  oracle would decide — a property the test suite checks by
  differential execution.

A group-commit batch (``decide_batch``, and the frontend's flush) runs
the default :meth:`~repro.core.engine.CommitEngine._decide_batch` loop:
one :meth:`commit` call per item, in batch order.  In-process there is
no per-partition RPC for a batch protocol to amortize, and measured end
to end a bulk three-phase protocol bought nothing over this loop.

The isolation policy (which rows are checked) is inherited per-partition
from the usual SI/WSI oracles, so the partitioned deployment serves
either level.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.commit_table import CommitTable
from repro.core.engine import CommitEngine
from repro.core.errors import OracleClosed
from repro.core.sharding import (
    INT_IDENTITY_BOUND,
    HashSharding,
    ShardingPolicy,
    stable_hash,
)
from repro.core.status_oracle import (
    CommitRequest,
    CommitResult,
    OracleStats,
    StatusOracle,
    make_oracle,
)
from repro.core.timestamps import TimestampOracle

RowKey = Hashable


class PartitionedOracle(CommitEngine):
    """N conflict-detection partitions behind one timestamp oracle.

    A :class:`~repro.core.engine.CommitEngine` with the same ``begin`` /
    ``commit`` / ``abort`` / ``decide_batch`` surface as
    :class:`~repro.core.status_oracle.StatusOracle`, so the transaction
    client, the frontend and the benchmarks use it interchangeably.  It
    owns no WAL (``_wal`` stays ``None``): the group-commit frontend
    supplies durability.

    Args:
        level: isolation level, ``"si"`` or ``"wsi"``.
        num_partitions: how many conflict-detection shards.
        timestamp_oracle: the shared TSO (one is created if omitted).
        sharding: a :class:`~repro.core.sharding.ShardingPolicy`, which
            must place rows deterministically across processes; defaults
            to ``HashSharding()`` (``stable_hash`` modulo the partition
            count).
        executor: compatibility keyword, ``None`` or ``"serial"`` only
            (anything else raises ``ValueError``); it selects nothing.
            Its one caller is the end-to-end benchmark's
            ``benchmarks/e2e/e2ebench/workloads.py``.
        lastcommit: the per-shard ``lastCommit`` store kind, ``"dict"``
            or ``"array"`` (``None``: the ``REPRO_LASTCOMMIT`` default).
    """

    def __init__(
        self,
        level: str = "wsi",
        num_partitions: int = 4,
        timestamp_oracle: Optional[TimestampOracle] = None,
        sharding: Optional[ShardingPolicy] = None,
        executor: Optional[str] = None,
        lastcommit: Any = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if executor not in (None, "serial"):
            raise ValueError(
                f"executor must be None or 'serial', not {executor!r}"
            )
        if lastcommit is not None and not isinstance(lastcommit, str):
            # A concrete store instance would be *shared* across shards,
            # which breaks the per-shard interner premise — only a kind
            # string (resolved per shard) is meaningful here.
            raise ValueError(
                "PartitionedOracle takes a lastcommit kind string "
                "('dict'/'array'), not a store instance"
            )
        self.level = level
        self._tso = timestamp_oracle or TimestampOracle()
        self._sharding = sharding or HashSharding()
        # Routing fast path: the default hash placement inlines the
        # per-row policy call (stable_hash % n, with small non-negative
        # ints hashing to themselves) in _split / _single_partition_of.
        self._fast_hash = type(self._sharding) is HashSharding
        # Every partition shares the TSO (one global commit order) and
        # gets its own lastCommit + stats; their private commit tables
        # are unused — the partitioned deployment keeps one authoritative
        # commit table, like the monolithic oracle.  Under the array
        # backend each shard gets its *own* interner (ids are per-shard
        # dense, never shared — the shared-nothing premise of the
        # partition-server design), built fresh per shard by
        # make_lastcommit inside make_oracle.
        self.partitions: List[StatusOracle] = [
            make_oracle(level, timestamp_oracle=self._tso,
                        lastcommit=lastcommit)
            for _ in range(num_partitions)
        ]
        self.commit_table = CommitTable()
        self.stats = OracleStats()
        self.cross_partition_commits = 0
        self.cross_partition_aborts = 0
        self.single_partition_commits = 0
        self.single_partition_aborts = 0
        self._closed = False

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def partition_of(self, row: RowKey) -> int:
        return self._sharding.partition_of(row, len(self.partitions))

    def _split(self, rows: FrozenSet[RowKey]) -> Dict[int, List[RowKey]]:
        num = len(self.partitions)
        shares: Dict[int, List[RowKey]] = {}
        setdefault = shares.setdefault
        # _split is hot (every cross-partition commit): with the default
        # placement, small non-negative integer rows hash to themselves,
        # so the per-row stable_hash call is inlined away for them (its
        # identity rule, bound included so cross-type numeric equality
        # holds).  Shares are lists (the input is a set, so rows are
        # already unique): they are cheaper to build and to scan than
        # sets, and their order — the footprint's iteration order
        # restricted to the partition — is the order the checks scan.
        if self._fast_hash:
            for row in rows:
                if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                    p = row % num
                else:
                    p = stable_hash(row) % num
                setdefault(p, []).append(row)
        else:
            p_of = self._sharding.partition_of
            for row in rows:
                setdefault(p_of(row, num), []).append(row)
        return shares

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def begin(self) -> int:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        return self._tso.next()

    def lease(self, n: int) -> Tuple[int, int]:
        """Lease a contiguous block of ``n`` start timestamps from the
        shared TSO (the begin-side counterpart of :meth:`decide_batch`;
        see :meth:`repro.core.status_oracle.StatusOracle.lease`).  The
        block stays one global commit order: every partition's commit
        timestamps are assigned from the same cursor, above the block."""
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        return self._tso.lease(n)

    def commit(self, request: CommitRequest) -> CommitResult:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")

        # Read-only fast path, identical to the monolithic oracle
        # (§4.1 condition 3 / §5.1: an empty write set never aborts,
        # whether or not the client submitted its read set).
        if request.is_read_only:
            self.stats.commits += 1
            self.stats.read_only_commits += 1
            return CommitResult(True, request.start_ts, commit_ts=None)

        pid = self._single_partition_of(request)
        if pid >= 0:
            # The common case the §6.3 footnote envisions: the whole
            # footprint lives in one partition — decided there directly,
            # with no share splitting or share-request construction.
            return self._commit_single(request, pid)
        return self._commit_cross(request)

    def _single_partition_of(self, request: CommitRequest) -> int:
        """The single partition owning the whole footprint, or -1.

        Under SI the checked rows *are* the write set, so only WSI needs
        the second (read-set) scan.
        """
        num = len(self.partitions)
        if num == 1:
            return 0
        if not self._fast_hash:
            # Non-default policy: every row through partition_of.
            p_of = self._sharding.partition_of
            pid = -1
            for row in request.write_set:
                p = p_of(row, num)
                if pid < 0:
                    pid = p
                elif p != pid:
                    return -1
            if self.level == "wsi":
                for row in request.read_set:
                    p = p_of(row, num)
                    if pid < 0:
                        pid = p
                    elif p != pid:
                        return -1
            return pid
        # Same inlined integer fast path as _split: this scan runs for
        # every non-read-only request.
        pid = -1
        for row in request.write_set:
            if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                p = row % num
            else:
                p = stable_hash(row) % num
            if pid < 0:
                pid = p
            elif p != pid:
                return -1
        if self.level == "wsi":
            for row in request.read_set:
                if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                    p = row % num
                else:
                    p = stable_hash(row) % num
                if pid < 0:
                    pid = p
                elif p != pid:
                    return -1
        return pid

    def _commit_single(self, request: CommitRequest, pid: int) -> CommitResult:
        """Decide a single-partition request against one shard directly."""
        partition = self.partitions[pid]
        _, scan, install = partition._hooks()
        start = request.start_ts
        conflict_row, checked = scan(self.rows_to_check(request), start)
        partition.stats.rows_checked += checked
        if conflict_row is not None:
            reason = "rw-conflict" if self.level == "wsi" else "ww-conflict"
            self.stats.aborts += 1
            self.stats.conflict_aborts += 1
            self.single_partition_aborts += 1
            self.commit_table.record_abort(start)
            return CommitResult(
                False, start, reason=reason, conflict_row=conflict_row
            )
        commit_ts = self._tso.next()
        install(request.write_set, commit_ts)
        self.stats.rows_updated += len(request.write_set)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        self.single_partition_commits += 1
        return CommitResult(True, start, commit_ts=commit_ts)

    def _commit_cross(self, request: CommitRequest) -> CommitResult:
        """Two-phase decision for one cross-partition footprint.

        Phase 1 scans each involved partition's share of the checked
        rows with that partition's store hook; phase 2 assigns Tc once
        and installs every write share.
        """
        start = request.start_ts
        checked_shares = self._split(self.rows_to_check(request))
        # Under SI the checked rows *are* the write set: one split
        # serves both phases.
        write_shares = (
            self._split(request.write_set)
            if self.level == "wsi"
            else checked_shares
        )

        # Phase 1: every involved partition validates its share (for SI
        # the write share, for WSI the read share).
        for pid in sorted(checked_shares):
            partition = self.partitions[pid]
            row, checked = partition._hooks()[1](checked_shares[pid], start)
            partition.stats.rows_checked += checked
            if row is not None:
                reason = "rw-conflict" if self.level == "wsi" else "ww-conflict"
                self.stats.aborts += 1
                self.stats.conflict_aborts += 1
                self.cross_partition_aborts += 1
                self.commit_table.record_abort(start)
                return CommitResult(
                    False, start, reason=reason, conflict_row=row
                )

        # Phase 2: decision is commit — assign Tc once, install shares.
        commit_ts = self._tso.next()
        for pid, rows in write_shares.items():
            self.partitions[pid]._install(rows, commit_ts)
            self.stats.rows_updated += len(rows)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        self.cross_partition_commits += 1
        return CommitResult(True, start, commit_ts=commit_ts)

    def abort(self, start_ts: int) -> None:
        if self._closed:
            raise OracleClosed("partitioned oracle is closed")
        self.commit_table.record_abort(start_ts)
        self.stats.aborts += 1

    def rows_to_check(self, request: CommitRequest) -> FrozenSet[RowKey]:
        if self.level == "si":
            return request.write_set
        return request.read_set

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def last_commit(self, row: RowKey) -> Optional[int]:
        return self.partitions[self.partition_of(row)].last_commit(row)

    @property
    def timestamp_oracle(self) -> TimestampOracle:
        return self._tso

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def sharding(self) -> ShardingPolicy:
        return self._sharding

    def cross_partition_fraction(self) -> float:
        """Fraction of *decisions* (commits and conflict aborts alike)
        whose footprint crossed partitions.  Counting only commits would
        report a misleading ~0 on a heavily-conflicting cross-partition
        workload; read-only commits and client aborts involve no
        partition and are excluded."""
        cross = self.cross_partition_commits + self.cross_partition_aborts
        total = (
            cross
            + self.single_partition_commits
            + self.single_partition_aborts
        )
        return cross / total if total else 0.0

    def _rows_checked(self) -> int:
        # Conflict checks are counted on the shard that ran them.
        return self.stats.rows_checked + sum(
            p.stats.rows_checked for p in self.partitions
        )
