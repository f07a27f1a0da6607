"""Multi-version storage substrate (the paper's HBase data model).

Public surface:

* :class:`MVCCStore` — versioned key-value map; ``history(row)``, the
  row's borrowed ``(timestamps, values)`` columns, is its read primitive
  and ``get_versions`` the iterator form of it.
* :class:`Version` / :data:`TOMBSTONE` — timestamped cell values.
* :class:`SnapshotReader` — the paper's snapshot-read skip rule: one
  kernel over ``history`` and one ``commit_timestamp`` probe per version
  examined, resolving store and commit source afresh on every call.
* :class:`Region` / :class:`RegionMap` — key-range sharding.
"""

from repro.mvcc.region import Region, RegionMap
from repro.mvcc.snapshot import CommitStatusSource, SnapshotReader
from repro.mvcc.store import MVCCStore
from repro.mvcc.version import TOMBSTONE, Version

__all__ = [
    "MVCCStore",
    "Version",
    "TOMBSTONE",
    "SnapshotReader",
    "CommitStatusSource",
    "Region",
    "RegionMap",
]
