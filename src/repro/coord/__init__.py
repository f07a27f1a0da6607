"""Coordination substrate: a ZooKeeper-style service.

Public surface:

* :class:`ZooKeeper` / :class:`Session` — znodes, ephemerals,
  sequentials, one-shot watches.
* :class:`LeaderElection` — the standard recipe (predecessor watching).

The election-driven WAL-recovery failover built on it (Appendix A)
lives in the serving tier: :class:`~repro.server.ha.ReplicatedFrontend`.
"""

from repro.coord.zookeeper import (
    BadVersionError,
    EventType,
    LeaderElection,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    Session,
    SessionExpiredError,
    WatchEvent,
    ZKError,
    ZooKeeper,
)

__all__ = [
    "ZooKeeper",
    "Session",
    "LeaderElection",
    "WatchEvent",
    "EventType",
    "ZKError",
    "NoNodeError",
    "NodeExistsError",
    "NotEmptyError",
    "BadVersionError",
    "SessionExpiredError",
]
