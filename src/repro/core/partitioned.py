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
:meth:`~PartitionedOracle.commit` decides one request on one path:

* **phase 1** routes the checked rows once
  (:meth:`~PartitionedOracle._split`: one list per partition id) and
  every involved partition validates its share, in partition-id order,
  with its store's ``scan`` hook
  (:func:`~repro.core.lastcommit.store_hooks`); the first conflict
  aborts the whole request;
* **phase 2**, only if *all* shares pass, assigns the commit timestamp
  once and installs every partition's write share.  Under SI the
  checked shares are the write shares; under WSI the write set is
  routed only now (an abort routes it only for the tally below).

Because checks precede any update and the commit timestamp is
allocated once, the outcome is identical to what a single monolithic
oracle would decide — a property the test suite checks by differential
execution.  A decision counts as **single-partition** (the common case
the footnote envisions, and the source of the throughput scaling) when
its footprint — the checked rows plus the write set — touches one
partition, and as **cross-partition** otherwise; the tally comes from a
bitmask of the partitions routing saw, so a conflict routes its write
set only when its checked rows touched one partition, and stops at the
first written row placed elsewhere.

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

from typing import Any, FrozenSet, Hashable, List, Optional, Tuple

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
            # which breaks the shared-nothing premise — only a kind
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
        # ints hashing to themselves) in _split.
        self._fast_hash = type(self._sharding) is HashSharding
        # Every partition shares the TSO (one global commit order) and
        # gets its own lastCommit + stats; their private commit tables
        # are unused — the partitioned deployment keeps one authoritative
        # commit table, like the monolithic oracle.  Each shard's store
        # is its own (the shared-nothing premise of the partition-server
        # design), built fresh per shard by make_lastcommit inside
        # make_oracle.
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

    def _split(self, rows: FrozenSet[RowKey]) -> List[List[RowKey]]:
        """``rows`` routed: one list per partition id, each holding that
        partition's rows in ``rows`` iteration order (the order the
        checks scan; the input is a set, so rows are already unique)."""
        num = len(self.partitions)
        shares: List[List[RowKey]] = [[] for _ in range(num)]
        # Every decision routes through here: with the default
        # placement, small non-negative integer rows hash to themselves,
        # so the per-row stable_hash call is inlined away for them (its
        # identity rule, bound included so cross-type numeric equality
        # holds).
        if self._fast_hash:
            for row in rows:
                if type(row) is int and 0 <= row < INT_IDENTITY_BOUND:
                    shares[row % num].append(row)
                else:
                    shares[stable_hash(row) % num].append(row)
        else:
            p_of = self._sharding.partition_of
            for row in rows:
                shares[p_of(row, num)].append(row)
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

        start = request.start_ts
        wsi = self.level == "wsi"
        partitions = self.partitions
        # Phase 1: route the checked rows once and validate each share
        # in partition-id order (under SI the write share, under WSI the
        # read share).  ``touched`` is the bitmask of the partitions the
        # footprint has shown so far.
        shares = self._split(self.rows_to_check(request))
        touched = 0
        for pid, share in enumerate(shares):
            if not share:
                continue
            touched |= 1 << pid
            partition = partitions[pid]
            row, checked = partition._hooks()[1](share, start)
            partition.stats.rows_checked += checked
            if row is not None:
                # The footprint is single-partition only if no other
                # checked share is non-empty and, under WSI, no written
                # row lives elsewhere: the write set is routed only in
                # that case, up to its first row in another partition.
                partition_of = self.partition_of
                if (
                    touched == 1 << pid
                    and not any(shares[pid + 1:])
                    and (
                        not wsi
                        or all(partition_of(w) == pid for w in request.write_set)
                    )
                ):
                    self.single_partition_aborts += 1
                else:
                    self.cross_partition_aborts += 1
                self.stats.aborts += 1
                self.stats.conflict_aborts += 1
                self.commit_table.record_abort(start)
                return CommitResult(
                    False,
                    start,
                    reason="rw-conflict" if wsi else "ww-conflict",
                    conflict_row=row,
                )

        # Phase 2: decision is commit — assign Tc once, install every
        # write share (under SI the checked shares are the write shares).
        if wsi:
            shares = self._split(request.write_set)
        commit_ts = self._tso.next()
        for pid, share in enumerate(shares):
            if share:
                touched |= 1 << pid
                partitions[pid]._install(share, commit_ts)
        self.stats.rows_updated += len(request.write_set)
        self.commit_table.record_commit(start, commit_ts)
        self.stats.commits += 1
        if touched & (touched - 1):
            self.cross_partition_commits += 1
        else:
            self.single_partition_commits += 1
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
