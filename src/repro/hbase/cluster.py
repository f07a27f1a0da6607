"""HBaseCluster: region-sharded storage behind the StorageBackend protocol.

Routes every row access through a :class:`~repro.mvcc.region.RegionMap` to
the owning :class:`~repro.hbase.region_server.RegionServer`, mirroring the
paper's 25-RegionServer table.  Because it exposes the same
``put`` / ``history`` / ``delete_version`` surface as
:class:`~repro.mvcc.store.MVCCStore`, the transaction client runs against
a cluster unchanged — transactions span regions and servers exactly as
the paper describes ("A transaction client has to read/write cell data
from/to multiple regions in different data servers", §6).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.hbase.region_server import RegionServer
from repro.mvcc.region import RegionMap
from repro.mvcc.version import Version

RowKey = Hashable


class HBaseCluster:
    """A set of region servers plus the routing map.

    Args:
        num_servers: data-server count (paper: 25).
        cache_blocks_per_server: block-cache capacity, 0 = everything cold
            (models the paper's 100 GB table >> 3 GB heap).
        split_points: optional pre-split keys; by default a fresh table is
            one region on server 0, and callers may pre-split for balance.
    """

    def __init__(
        self,
        num_servers: int = 25,
        cache_blocks_per_server: int = 0,
        split_points: Optional[Sequence[RowKey]] = None,
    ) -> None:
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        self.servers: List[RegionServer] = [
            RegionServer(i, cache_capacity_blocks=cache_blocks_per_server)
            for i in range(num_servers)
        ]
        self.region_map: RegionMap = RegionMap(num_servers=num_servers)
        if split_points:
            self.region_map.presplit_uniform(sorted(split_points))
            self.region_map.rebalance_round_robin()

    @classmethod
    def for_integer_keyspace(
        cls,
        num_rows: int,
        num_servers: int = 25,
        regions_per_server: int = 4,
        cache_blocks_per_server: int = 0,
    ) -> "HBaseCluster":
        """Build a cluster pre-split evenly over integer keys [0, num_rows)."""
        total_regions = max(1, num_servers * regions_per_server)
        step = max(1, num_rows // total_regions)
        splits = list(range(step, num_rows, step))
        return cls(
            num_servers=num_servers,
            cache_blocks_per_server=cache_blocks_per_server,
            split_points=splits,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def server_for(self, row: RowKey) -> RegionServer:
        return self.servers[self.region_map.server_for(row)]

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    def put(self, row: RowKey, timestamp: int, value: Any) -> None:
        self.server_for(row).put(row, timestamp, value)

    def history(self, row: RowKey) -> Optional[Tuple[List[int], List[Any]]]:
        return self.server_for(row).history(row)

    def get_versions(
        self, row: RowKey, max_timestamp: Optional[int] = None
    ) -> Iterator[Version]:
        return self.server_for(row).get_versions(row, max_timestamp)

    def delete_version(self, row: RowKey, timestamp: int) -> bool:
        return self.server_for(row).delete_version(row, timestamp)

    def scan_range(self, start: RowKey, end: RowKey) -> Iterator[RowKey]:
        """Cluster-wide range scan: union of per-server scans, sorted."""
        rows: List[RowKey] = []
        for server in self.servers:
            rows.extend(server.store.scan_range(start, end))
        return iter(sorted(rows))  # type: ignore[type-var]

    def scan_rows(self) -> Iterator[RowKey]:
        """Every row key present anywhere in the cluster."""
        for server in self.servers:
            yield from server.store.scan_rows()

    def compact(self, row: RowKey, keep_after: int) -> int:
        """Compact one row on its owning server (GC support)."""
        return self.server_for(row).store.compact(row, keep_after)

    # ------------------------------------------------------------------
    # bulk load / metrics
    # ------------------------------------------------------------------
    def load(self, items: Sequence[Tuple[RowKey, int, Any]]) -> None:
        """Bulk-load (row, ts, value) triples (initial 100M-row table)."""
        for row, ts, value in items:
            self.put(row, ts, value)

    def total_gets(self) -> int:
        return sum(s.get_count for s in self.servers)

    def total_puts(self) -> int:
        return sum(s.put_count for s in self.servers)

    def load_imbalance(self) -> float:
        """Max/mean request ratio across servers (1.0 = perfectly even).

        The paper's uniform-distribution experiment relies on even load
        ("The uniform distribution of rows evenly distributes the load on
        all the data servers", §6.4); this metric lets tests check it.
        """
        counts = [s.request_count for s in self.servers]
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HBaseCluster(servers={len(self.servers)}, "
            f"regions={self.region_map.region_count})"
        )
