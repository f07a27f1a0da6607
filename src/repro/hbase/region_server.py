"""RegionServer: one data server hosting a set of regions.

In the paper's testbed HBase "splits groups of consecutive rows of a table
into multiple regions, and each region is maintained by a single data
server" (§6).  A RegionServer here owns one :class:`MVCCStore` holding all
the cells of its regions, plus the counters the cluster simulator samples
(get/put counts, cache behaviour).

The 100 GB >> 3 GB-heap configuration of the paper means most random reads
miss the block cache and hit disk; we model that with a simple LRU block
cache over row blocks so the zipfian experiments (§6.5) naturally get the
higher cache-hit rate the paper observes ("random reads are most likely to
be serviced from the data already loaded into data servers").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Iterator, List, Optional, Tuple

from repro.core.sharding import ShardingPolicy, stable_hash
from repro.mvcc.store import MVCCStore
from repro.mvcc.version import Version

RowKey = Hashable

# Rows per cache "block": HBase reads whole HFile blocks (~64 KB); with
# ~1 KB rows a block holds on the order of 64 rows.
DEFAULT_ROWS_PER_BLOCK = 64


class BlockCache:
    """LRU cache of row-block ids, used to classify reads hot vs cold.

    Block placement uses the process-independent
    :func:`~repro.core.sharding.stable_hash` (integer rows map to
    themselves, so consecutive rows share a block — HBase's
    consecutive-row regions — and hit rates are reproducible across
    processes regardless of ``PYTHONHASHSEED``); pass ``sharding=`` to
    share one :class:`~repro.core.sharding.ShardingPolicy` with the
    partitioned oracle (the cache derives block ids from the policy's
    ``placement_hash``, so e.g. range-sharded deployments keep
    consecutive rows in one block).
    """

    def __init__(
        self,
        capacity_blocks: int,
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
        sharding: Optional[ShardingPolicy] = None,
    ) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be >= 0")
        if rows_per_block < 1:
            raise ValueError("rows_per_block must be >= 1")
        self._capacity = capacity_blocks
        self._rows_per_block = rows_per_block
        self._hash = (
            stable_hash if sharding is None else sharding.placement_hash
        )
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def block_of(self, row: RowKey) -> int:
        return self._hash(row) // self._rows_per_block

    def touch(self, row: RowKey) -> bool:
        """Record an access; return True on cache hit, False on miss."""
        if self._capacity == 0:
            self.misses += 1
            return False
        block = self.block_of(row)
        if block in self._blocks:
            self._blocks.move_to_end(block)
            self.hits += 1
            return True
        self._blocks[block] = None
        if len(self._blocks) > self._capacity:
            self._blocks.popitem(last=False)
        self.misses += 1
        return False

    def warm(self, row: RowKey) -> None:
        """Insert a row's block without counting a hit or miss.

        Models a write landing in the memstore: subsequent reads of that
        row are served from memory.
        """
        if self._capacity == 0:
            return
        block = self.block_of(row)
        if block in self._blocks:
            self._blocks.move_to_end(block)
            return
        self._blocks[block] = None
        if len(self._blocks) > self._capacity:
            self._blocks.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RegionServer:
    """One data server: versioned storage plus access accounting."""

    def __init__(
        self,
        server_id: int,
        cache_capacity_blocks: int = 0,
    ) -> None:
        self.server_id = server_id
        self.store = MVCCStore()
        self.cache = BlockCache(cache_capacity_blocks)
        self.get_count = 0
        self.put_count = 0
        #: whether the most recent get() hit the block cache — sampled by
        #: the simulator to pick the hot vs cold read latency.
        self.last_access_hit = False

    # ------------------------------------------------------------------
    # data path (same protocol as MVCCStore, plus accounting)
    # ------------------------------------------------------------------
    def put(self, row: RowKey, timestamp: int, value: Any) -> None:
        self.put_count += 1
        self.store.put(row, timestamp, value)

    def history(self, row: RowKey) -> Optional[Tuple[List[int], List[Any]]]:
        self._count_get(row)
        return self.store.history(row)

    def get_versions(
        self, row: RowKey, max_timestamp: Optional[int] = None
    ) -> Iterator[Version]:
        self._count_get(row)
        return self.store.get_versions(row, max_timestamp)

    def _count_get(self, row: RowKey) -> None:
        """One get, whichever form it took: counter and block cache."""
        self.get_count += 1
        self.last_access_hit = self.cache.touch(row)

    def delete_version(self, row: RowKey, timestamp: int) -> bool:
        return self.store.delete_version(row, timestamp)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    @property
    def request_count(self) -> int:
        return self.get_count + self.put_count

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RegionServer(#{self.server_id}, rows={self.store.row_count}, "
            f"gets={self.get_count}, puts={self.put_count})"
        )
