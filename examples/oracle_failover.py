#!/usr/bin/env python3
"""Status-oracle failover: Appendix A's recovery story, end to end.

The status oracle is a single server — "a single point of failure" —
which the deployment tolerates by (i) persisting every commit/abort into
a replicated BookKeeper write-ahead log and (ii) running standby
instances behind a ZooKeeper leader election.  When the active oracle
dies, the next candidate wins the election, replays the WAL, and keeps
serving with all pre-failure conflict state intact.

The replica set is :class:`~repro.server.ReplicatedFrontend`, cold
standbys (each takeover replays the whole log); this script talks to it
through the synchronous :class:`~repro.server.ReplicatedOracleFacade`,
whose every returned decision is already durable on the ledger quorum.

Run:  python examples/oracle_failover.py
"""

from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade


def main() -> None:
    replica_set = ReplicatedFrontend(num_hosts=3, level="wsi", warm=False)
    oracle = ReplicatedOracleFacade(replica_set)
    print(f"replica set up: 3 hosts, host {replica_set.active_host().host_id} "
          "elected leader")

    # Normal traffic.
    long_running = oracle.begin()  # an old snapshot we'll test later
    for i in range(100):
        ts = oracle.begin()
        oracle.commit(
            CommitRequest(ts, write_set=frozenset({f"row{i % 10}"}))
        )
    print("100 transactions committed and persisted "
          f"(flushes: {replica_set.wal.flush_count})")

    # The leader dies.
    victim = replica_set.kill_active()
    new_leader = replica_set.active_host()
    print(f"\nhost {victim.host_id} CRASHED -> host {new_leader.host_id} "
          f"elected, replayed {new_leader.recovered_records} WAL records")

    # The recovered oracle still detects conflicts that predate the crash:
    # `long_running` started before all 100 commits, so its read of row0
    # conflicts with writes committed during its lifetime.
    result = oracle.commit(
        CommitRequest(
            long_running,
            write_set=frozenset({"output"}),
            read_set=frozenset({"row0"}),
        )
    )
    print(f"pre-crash transaction after failover: "
          f"{'committed (BUG!)' if result.committed else f'aborted ({result.reason})'} "
          "- conflict state survived the failover")

    # And fresh traffic flows normally, with timestamps that never collide.
    ts = oracle.begin()
    result = oracle.commit(CommitRequest(ts, write_set=frozenset({"new"})))
    print(f"fresh transaction: committed at ts {result.commit_ts} "
          f"(all timestamps > pre-crash ones: reservation marks are durable)")

    replica_set.kill_active()
    print(f"\nsecond failover -> host {replica_set.active_host().host_id}; "
          f"total failovers: {replica_set.failovers}")


if __name__ == "__main__":
    main()
