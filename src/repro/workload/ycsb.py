"""The standard YCSB core workloads (A–F), transactionalized.

The paper benchmarks with a modified YCSB [11]; §6.1 defines its own
read-only / complex transaction types, which :mod:`repro.workload.generator`
implements.  For downstream users, this module additionally provides the
*standard* YCSB core workload presets, adapted the same way the paper
adapted YCSB — each logical operation becomes part of a multi-row
transaction of ``n ~ U[0, max_rows]`` operations:

========  =========================  ======================  ============
workload  operation mix              distribution            paper analog
========  =========================  ======================  ============
A         50 % read / 50 % update    zipfian                 "complex"
B         95 % read / 5 % update     zipfian                 —
C         100 % read                 zipfian                 "read-only"
D         95 % read / 5 % insert     latest                  Fig. 9/10 mix
E         95 % scan / 5 % insert     zipfian (scan starts)   §5.2 traffic
F         50 % read / 50 % RMW       zipfian                 —
========  =========================  ======================  ============

A *scan* op is expanded into ``scan_length`` consecutive row reads
(matching how the paper's status oracle sees search-condition reads:
"the rows that are actually read", §5); an *insert* writes a fresh row
above the load frontier; *read-modify-write* contributes the row to both
the read and the write set.

**Group-local mode** (``num_groups=g``): the keyspace is divided into
``g`` contiguous key groups and every transaction confines its whole
footprint to one group — the group of its first drawn key, so group
popularity follows the configured distribution.  This is the
tenant/user-affinity shape locality-aware sharding exploits: pin each
group to one partition
(:meth:`YCSBWorkload.group_directory` feeds
:class:`~repro.core.sharding.DirectorySharding`, or use
:class:`~repro.core.sharding.RangeSharding` — groups are contiguous)
and the workload's cross-partition fraction collapses to ~0 (benchmark
E21c).  In grouped mode inserts and scans stay inside the
transaction's group (an insert rewrites a group-local row instead of
extending the frontier; scans clamp at the group edge), so locality is
exact by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.workload.distributions import KeyDistribution, LatestDistribution, make_distribution
from repro.workload.generator import OperationSpec, TransactionSpec

DEFAULT_SCAN_LENGTH = 16


@dataclass(frozen=True)
class YCSBMix:
    """Operation-type probabilities for one core workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name}: mix sums to {total}, not 1")


CORE_WORKLOADS: Dict[str, YCSBMix] = {
    "A": YCSBMix("A", read=0.5, update=0.5),
    "B": YCSBMix("B", read=0.95, update=0.05),
    "C": YCSBMix("C", read=1.0),
    "D": YCSBMix("D", read=0.95, insert=0.05, distribution="zipfianLatest"),
    "E": YCSBMix("E", scan=0.95, insert=0.05),
    "F": YCSBMix("F", read=0.5, rmw=0.5),
}


class YCSBWorkload:
    """Transaction-spec stream for one core workload preset.

    Args:
        name: 'A' … 'F'.
        keyspace: initially loaded row count (inserts go above it).
        max_rows: transaction size bound, ``n ~ U[0, max_rows]`` (§6.1).
        scan_length: rows per scan operation (workload E).
        seed: RNG seed for reproducibility.
        num_groups: ``0`` (default) draws keys over the whole keyspace;
            a positive count switches on group-local mode (see the
            module docstring) with ``num_groups`` contiguous key
            groups.
    """

    def __init__(
        self,
        name: str,
        keyspace: int = 1_000_000,
        max_rows: int = 20,
        scan_length: int = DEFAULT_SCAN_LENGTH,
        seed: Optional[int] = None,
        num_groups: int = 0,
    ) -> None:
        key = name.strip().upper()
        if key not in CORE_WORKLOADS:
            raise ValueError(
                f"unknown YCSB workload {name!r}; choose from "
                f"{sorted(CORE_WORKLOADS)}"
            )
        if num_groups < 0 or num_groups > keyspace:
            raise ValueError("num_groups must be in [0, keyspace]")
        self.mix = CORE_WORKLOADS[key]
        self.keyspace = keyspace
        self.max_rows = max_rows
        self.scan_length = scan_length
        self.num_groups = num_groups
        self._group_size = keyspace // num_groups if num_groups else 0
        self._rng = random.Random(seed)
        self._keys: KeyDistribution = make_distribution(
            self.mix.distribution, keyspace, seed=self._rng.randrange(2 ** 63)
        )
        self._insert_frontier = keyspace  # fresh rows start here

    # ------------------------------------------------------------------
    def _draw_kind(self) -> str:
        u = self._rng.random()
        mix = self.mix
        for kind, p in (
            ("read", mix.read),
            ("update", mix.update),
            ("insert", mix.insert),
            ("scan", mix.scan),
        ):
            if u < p:
                return kind
            u -= p
        return "rmw"

    # ------------------------------------------------------------------
    # group-local mode
    # ------------------------------------------------------------------
    def group_of(self, row: int) -> int:
        """The contiguous key group a loaded row belongs to."""
        if not self.num_groups:
            raise ValueError("workload has no key groups (num_groups=0)")
        return min(row // self._group_size, self.num_groups - 1)

    def group_rows(self, group: int) -> range:
        """The contiguous row range of one key group (the last group
        absorbs the keyspace remainder)."""
        lo = group * self._group_size
        hi = (
            self.keyspace
            if group == self.num_groups - 1
            else lo + self._group_size
        )
        return range(lo, hi)

    def group_directory(self, num_partitions: int) -> Dict[int, int]:
        """Affinity map for
        :class:`~repro.core.sharding.DirectorySharding`: every loaded
        row pinned to its group's partition (group ``g`` to partition
        ``g % num_partitions``), so each group's transactions become
        single-partition outright."""
        directory: Dict[int, int] = {}
        for group in range(self.num_groups):
            pid = group % num_partitions
            for row in self.group_rows(group):
                directory[row] = pid
        return directory

    def _next_grouped(self, n: int) -> TransactionSpec:
        """One transaction confined to a single key group: the group of
        the first distribution draw (group popularity follows the key
        distribution), every key folded into it."""
        ops: List[OperationSpec] = []
        if n:
            rows = self.group_rows(self.group_of(self._keys.next_key()))
            lo, span = rows.start, len(rows)
            for _ in range(n):
                kind = self._draw_kind()
                if kind == "scan":
                    start = lo + self._keys.next_key() % span
                    for offset in range(self.scan_length):
                        row = start + offset
                        if row >= rows.stop:
                            break
                        ops.append(OperationSpec("r", row))
                    continue
                row = lo + self._keys.next_key() % span
                if kind == "read":
                    ops.append(OperationSpec("r", row))
                elif kind in ("update", "insert"):
                    # grouped inserts rewrite a group-local row rather
                    # than extend the global frontier (module docstring)
                    ops.append(OperationSpec("w", row))
                else:  # rmw: the row enters both sets
                    ops.append(OperationSpec("r", row))
                    ops.append(OperationSpec("w", row))
        writes = any(op.kind == "w" for op in ops)
        return TransactionSpec(tuple(ops), read_only=not writes)

    def next_transaction(self) -> TransactionSpec:
        n = self._rng.randint(0, self.max_rows)
        if self.num_groups:
            return self._next_grouped(n)
        ops: List[OperationSpec] = []
        inserts = 0
        for _ in range(n):
            kind = self._draw_kind()
            if kind == "read":
                ops.append(OperationSpec("r", self._keys.next_key()))
            elif kind == "update":
                ops.append(OperationSpec("w", self._keys.next_key()))
            elif kind == "insert":
                ops.append(OperationSpec("w", self._insert_frontier))
                self._insert_frontier += 1
                inserts += 1
            elif kind == "scan":
                start = self._keys.next_key()
                for offset in range(self.scan_length):
                    row = start + offset
                    if row < self._insert_frontier:
                        ops.append(OperationSpec("r", row))
            else:  # rmw: the row enters both sets
                row = self._keys.next_key()
                ops.append(OperationSpec("r", row))
                ops.append(OperationSpec("w", row))
        if inserts and isinstance(self._keys, LatestDistribution):
            self._keys.advance(inserts)
        writes = any(op.kind == "w" for op in ops)
        return TransactionSpec(tuple(ops), read_only=not writes)

    def stream(self, count: int) -> Iterator[TransactionSpec]:
        for _ in range(count):
            yield self.next_transaction()

    def batch(self, count: int) -> List[TransactionSpec]:
        return list(self.stream(count))

    @property
    def name(self) -> str:
        return self.mix.name


def ycsb(name: str, **kwargs) -> YCSBWorkload:
    """Shorthand constructor: ``ycsb('A', keyspace=10_000, seed=1)``."""
    return YCSBWorkload(name, **kwargs)
