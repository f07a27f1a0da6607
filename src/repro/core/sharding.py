"""Deterministic row hashing for shard and block routing.

Python's builtin ``hash()`` is salted per process for ``str``/``bytes``
(``PYTHONHASHSEED``), so any placement derived from it — which conflict
partition owns a row, which cache block a row falls into — silently
changes from one process to the next.  For a single in-process oracle
that is merely a reproducibility nuisance; for the distributed
deployment §6.3 footnote 6 envisions it is a correctness bug: two
frontends hashing the same row to *different* partitions would each
consult a ``lastCommit`` shard that never saw the other's commits.

:func:`stable_hash` is the process-independent replacement used by
:class:`~repro.core.partitioned.PartitionedOracle` and the HBase-model
block cache.  Properties:

* deterministic across processes, interpreters and ``PYTHONHASHSEED``
  values (pinned by ``tests/core/test_sharding.py`` via subprocesses);
* **equal keys hash equal**, numeric cross-type equality included:
  ``2 == 2.0 == Decimal(2)`` must all route to the same shard, exactly
  as builtin ``hash()`` guarantees — otherwise a conflict between two
  transactions writing the "same" row under different numeric types
  would be checked against different ``lastCommit`` shards and missed.
  Numbers therefore defer to Python's *numeric* hash, which is
  cross-type consistent and never salted; small non-negative integers
  (below CPython's numeric-hash modulus, :data:`INT_IDENTITY_BOUND`)
  are their own hash, so integer keyspaces shard exactly like
  ``row % num_partitions`` and workloads can *construct* a row for a
  target shard (``row * num_partitions + shard``);
* strings and bytes go through ``zlib.crc32`` over their UTF-8 bytes —
  cheap, stable, and well-mixed for modulo placement; tuples hash
  recursively over their elements (so ``(1,)`` and ``(1.0,)`` — equal
  keys — share a shard, like every other equal pair);
* any other hashable key falls back to CRC-32 of its ``repr()``, which
  is canonical for the scalar keys used in this repository (containers
  whose ``repr`` order is itself salt-dependent, e.g. a frozenset of
  strings, should not be used as row keys).

Placement itself is a :class:`ShardingPolicy` — the one placement
option of both consumers (``sharding=``):

* :class:`HashSharding` — ``stable_hash`` modulo the partition count:
  uniform spread, zero locality.  The default.
* :class:`RangeSharding` — contiguous key bands (HBase's
  consecutive-row regions): integer row ``r`` in a declared keyspace
  lands on partition ``r * N // keyspace``, so co-accessed *nearby*
  keys share a partition and range scans stay aligned.
* :class:`DirectorySharding` — an explicit affinity map pinning
  configured key groups to one partition each (unmapped keys fall back
  to another policy).  This is the policy that converts a group-local
  workload's cross-partition traffic into aligned traffic outright —
  benchmark E21c measures ``cross_partition_fraction()`` collapsing to
  ~0 under it.

Every policy must be deterministic across processes (the subprocess
pins in ``tests/core/test_sharding.py`` cover all three): placement is
*routing state* shared by every frontend and replica, exactly like
``stable_hash`` itself.  Policies are placement only — the decision
mechanism never changes with the policy, which is the narrow
policy/mechanism interface the MetaSys line of work argues for.
"""

from __future__ import annotations

import numbers
import zlib
from typing import Dict, Hashable, Iterable, Mapping, Optional, Union

__all__ = [
    "INT_IDENTITY_BOUND",
    "stable_hash",
    "ShardingPolicy",
    "HashSharding",
    "RangeSharding",
    "DirectorySharding",
    "make_sharding",
]

#: CPython's numeric-hash modulus (2**61 - 1): below it, a non-negative
#: int is its own ``hash()``, so identity-hashing stays consistent with
#: the numeric hash every other number type reduces to.
INT_IDENTITY_BOUND = (1 << 61) - 1


def stable_hash(row: Hashable) -> int:
    """A non-negative, process-independent hash of a row key."""
    tp = type(row)
    if tp is int:
        if 0 <= row < INT_IDENTITY_BOUND:
            return row
        # Huge or negative ints join the numeric-hash rule below so
        # they agree with any equal float/Decimal/Fraction key.
        h = hash(row)  # lint: skip=no-builtin-hash -- numeric hash is unsalted
        return h if h >= 0 else -h
    if tp is str:
        return zlib.crc32(row.encode("utf-8"))
    if tp is bytes:
        return zlib.crc32(row)
    if isinstance(row, numbers.Number):
        # Python's numeric hash is unsalted and equal across numeric
        # types for equal values (2 == 2.0 == Decimal(2) == Fraction(2)
        # share one hash) — the invariant shard routing depends on.
        h = hash(row)  # lint: skip=no-builtin-hash -- numeric hash is unsalted
        return h if h >= 0 else -h
    if isinstance(row, tuple):
        # Recurse so equal tuples hash equal even when elements differ
        # in numeric type — (1,) == (1.0,) must share a shard; a repr()
        # of the tuple would split them.  Every stable_hash result fits
        # 8 bytes (crc32 < 2**32, numeric hashes < 2**61), so the
        # element hashes concatenate into a canonical byte string.
        return zlib.crc32(
            b"".join(stable_hash(item).to_bytes(8, "little") for item in row)
        )
    if isinstance(row, str):
        return zlib.crc32(row.encode("utf-8"))
    if isinstance(row, bytes):
        return zlib.crc32(row)
    return zlib.crc32(repr(row).encode("utf-8"))


# ----------------------------------------------------------------------
# sharding policies: pluggable placement under the same decision rules
# ----------------------------------------------------------------------

class ShardingPolicy:
    """Row-placement policy for partitioned deployments.

    Two duties, both of which must be process-independent:

    * :meth:`partition_of` — which conflict partition owns a row (the
      :class:`~repro.core.partitioned.PartitionedOracle` routing rule).
      Equal keys must land on the same partition (see
      :func:`stable_hash`'s numeric cross-type invariant).
    * :meth:`placement_hash` — a stable non-negative placement value for
      bucket-style consumers (the HBase-model
      :class:`~repro.hbase.region_server.BlockCache` derives block ids
      from it).  Defaults to :func:`stable_hash`.
    """

    #: short tag used in tables and factory specs.
    name = "base"

    def partition_of(self, row: Hashable, num_partitions: int) -> int:
        raise NotImplementedError

    def placement_hash(self, row: Hashable) -> int:
        return stable_hash(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class HashSharding(ShardingPolicy):
    """``stable_hash(row) % num_partitions`` — uniform, locality-blind.

    The default placement: integer keyspaces shard exactly like
    ``row % num_partitions``.
    """

    name = "hash"

    def partition_of(self, row: Hashable, num_partitions: int) -> int:
        return stable_hash(row) % num_partitions


class RangeSharding(ShardingPolicy):
    """Contiguous key bands over a declared integer keyspace.

    Integer row ``r`` with ``0 <= r < keyspace`` lands on partition
    ``r * N // keyspace`` — N equal bands in key order, so nearby keys
    (HBase's consecutive-row regions, range scans, group-local YCSB
    keys drawn from one contiguous group) share a partition.  Rows at
    or above the keyspace clamp into the last band (insert frontiers
    keep appending locally); non-integer rows route through
    ``fallback`` (default :class:`HashSharding`).  Placement hashes are
    the identity for non-negative integers, so block placement keeps
    consecutive rows in one block.
    """

    name = "range"

    def __init__(
        self, keyspace: int, fallback: Optional[ShardingPolicy] = None
    ) -> None:
        if keyspace < 1:
            raise ValueError("keyspace must be >= 1")
        self._keyspace = keyspace
        self._fallback = fallback or HashSharding()

    @property
    def keyspace(self) -> int:
        return self._keyspace

    def partition_of(self, row: Hashable, num_partitions: int) -> int:
        # bool is an int subclass and equals 0/1 — the numeric-equality
        # invariant routes it like the equal integer automatically.
        if type(row) is not int and isinstance(row, numbers.Number):
            # Equal keys must share a partition across numeric types
            # (10 == 10.0 == Decimal(10) is ONE row key — the stable_hash
            # invariant): an integral-valued number takes the int band
            # rule below; everything else (non-integral, nan/inf,
            # complex) falls back, where stable_hash keeps equal keys
            # together.
            try:
                as_int = int(row)
            except (TypeError, ValueError, OverflowError):
                return self._fallback.partition_of(row, num_partitions)
            if as_int != row:
                return self._fallback.partition_of(row, num_partitions)
            row = as_int
        if isinstance(row, int) and row >= 0:
            if row >= self._keyspace:
                return num_partitions - 1
            return row * num_partitions // self._keyspace
        return self._fallback.partition_of(row, num_partitions)

    def placement_hash(self, row: Hashable) -> int:
        if isinstance(row, int) and row >= 0:
            return row
        return self._fallback.placement_hash(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeSharding(keyspace={self._keyspace})"


class DirectorySharding(ShardingPolicy):
    """An explicit affinity directory: configured keys pin to a chosen
    partition; everything else falls back to another policy.

    The locality-aware endpoint of the hierarchy: a workload whose
    transactions stay inside known key *groups* (one user's rows, one
    tenant's schema) pins each group to one partition and its traffic
    becomes single-partition outright — the cross-partition fraction
    collapses to the unmapped remainder (benchmark E21c's bar).
    The directory stores partition ids, applied modulo the live
    partition count so one directory serves any deployment size that
    preserves group identity.
    """

    name = "directory"

    def __init__(
        self,
        directory: Optional[Mapping[Hashable, int]] = None,
        fallback: Optional[ShardingPolicy] = None,
    ) -> None:
        self._directory: Dict[Hashable, int] = dict(directory or {})
        self._fallback = fallback or HashSharding()

    def pin(self, rows: Iterable[Hashable], partition: int) -> "DirectorySharding":
        """Pin a key group to one partition; returns self for chaining."""
        if partition < 0:
            raise ValueError("partition must be >= 0")
        for row in rows:
            self._directory[row] = partition
        return self

    @property
    def pinned_count(self) -> int:
        return len(self._directory)

    def partition_of(self, row: Hashable, num_partitions: int) -> int:
        pid = self._directory.get(row)
        if pid is None:
            return self._fallback.partition_of(row, num_partitions)
        return pid % num_partitions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectorySharding(pinned={len(self._directory)})"


ShardingSpec = Union[None, str, ShardingPolicy]


def make_sharding(
    spec: ShardingSpec = None,
    keyspace: Optional[int] = None,
    directory: Optional[Mapping[Hashable, int]] = None,
) -> ShardingPolicy:
    """Resolve a sharding spec (``"hash"``/``"range"``/``"directory"``,
    an instance, or ``None`` for the default) to a policy.  ``range``
    needs ``keyspace``; ``directory`` starts from ``directory`` (or
    empty, to be filled via :meth:`DirectorySharding.pin`)."""
    if isinstance(spec, ShardingPolicy):
        return spec
    kind = (spec or HashSharding.name).strip().lower()
    if kind == HashSharding.name:
        return HashSharding()
    if kind == RangeSharding.name:
        if keyspace is None:
            raise ValueError("range sharding needs keyspace=")
        return RangeSharding(keyspace)
    if kind == DirectorySharding.name:
        return DirectorySharding(directory)
    raise ValueError(
        f"unknown sharding policy {spec!r}; "
        "choose 'hash', 'range' or 'directory'"
    )
