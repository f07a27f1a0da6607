"""Core contribution: write-snapshot isolation and the lock-free oracle.

Public surface:

* :class:`CommitEngine`, :func:`make_engine` — the protocol-agnostic
  engine contract the serving stack depends on.
* :class:`IsolationLevel`, :func:`create_system` — one-call assembly.
* :class:`TransactionManager`, :class:`Transaction` — the client API.
* :class:`SnapshotIsolationOracle` (Alg. 1),
  :class:`WriteSnapshotIsolationOracle` (Alg. 2),
  :class:`BoundedStatusOracle` (Alg. 3), :func:`make_oracle`.
* :class:`TimestampOracle` — batched-durability timestamp server.
* :class:`CommitTable`, :class:`ClientCommitView` — commit-state replicas.
* :class:`LastCommitStore` backends — :class:`ArrayLastCommit` (the
  dict store plus a gatherable timestamp lane for wide int row sets)
  and Algorithm 3's :class:`BoundedLastCommit`, selected per oracle via
  ``lastcommit=`` or globally via ``REPRO_LASTCOMMIT``
  (:func:`make_lastcommit`).
* :class:`PartitionedOracle` (§6.3 footnote 6: sharded ``lastCommit``
  behind one TSO) with pluggable
  :class:`~repro.core.sharding.ShardingPolicy` placement
  (:class:`HashSharding` / :class:`RangeSharding` /
  :class:`DirectorySharding`).
* conflict predicates — the paper's §2/§4 definitions as functions.
* the exception hierarchy in :mod:`repro.core.errors`.
"""

from repro.core.analytics import (
    AnalyticalCommitRequest,
    AnalyticalOracle,
    RangeReadSet,
    RowRange,
)
from repro.core.commit_table import ClientCommitView, CommitTable
from repro.core.engine import ENGINE_KINDS, CommitEngine, make_engine
from repro.core.conflicts import (
    TxnFootprint,
    conflicts_under,
    rw_conflict,
    rw_spatial_overlap,
    rw_temporal_overlap,
    spatial_overlap,
    temporal_overlap,
    ww_conflict,
)
from repro.core.errors import (
    AbortException,
    ConflictAbort,
    DecisionPending,
    InvalidTransactionState,
    LockConflict,
    OracleClosed,
    RecoveryError,
    TmaxAbort,
    TransactionError,
    WALError,
)
from repro.core.isolation import IsolationLevel, TransactionalSystem, create_system
from repro.core.lastcommit import (
    ArrayLastCommit,
    BoundedLastCommit,
    LastCommitStore,
    make_lastcommit,
)
from repro.core.partitioned import PartitionedOracle
from repro.core.sharding import (
    DirectorySharding,
    HashSharding,
    RangeSharding,
    ShardingPolicy,
    make_sharding,
    stable_hash,
)
from repro.core.status_oracle import (
    BoundedStatusOracle,
    CommitRequest,
    CommitResult,
    OracleStats,
    SnapshotIsolationOracle,
    StatusOracle,
    WriteSnapshotIsolationOracle,
    make_oracle,
)
from repro.core.timestamps import TimestampOracle
from repro.core.transaction import Transaction, TransactionManager, TxnState

__all__ = [
    "CommitEngine",
    "make_engine",
    "ENGINE_KINDS",
    "AnalyticalOracle",
    "AnalyticalCommitRequest",
    "RangeReadSet",
    "RowRange",
    "IsolationLevel",
    "TransactionalSystem",
    "create_system",
    "TransactionManager",
    "Transaction",
    "TxnState",
    "StatusOracle",
    "SnapshotIsolationOracle",
    "WriteSnapshotIsolationOracle",
    "BoundedStatusOracle",
    "make_oracle",
    "CommitRequest",
    "CommitResult",
    "OracleStats",
    "LastCommitStore",
    "ArrayLastCommit",
    "BoundedLastCommit",
    "make_lastcommit",
    "PartitionedOracle",
    "ShardingPolicy",
    "HashSharding",
    "RangeSharding",
    "DirectorySharding",
    "make_sharding",
    "stable_hash",
    "TimestampOracle",
    "CommitTable",
    "ClientCommitView",
    "TxnFootprint",
    "ww_conflict",
    "rw_conflict",
    "spatial_overlap",
    "temporal_overlap",
    "rw_spatial_overlap",
    "rw_temporal_overlap",
    "conflicts_under",
    "TransactionError",
    "AbortException",
    "ConflictAbort",
    "DecisionPending",
    "TmaxAbort",
    "LockConflict",
    "InvalidTransactionState",
    "OracleClosed",
    "RecoveryError",
    "WALError",
]
