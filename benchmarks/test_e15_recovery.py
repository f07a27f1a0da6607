"""E15 (ablation) — oracle recovery: WAL length vs takeover cost.

Appendix A's availability story rests on a fresh status-oracle instance
recreating its memory state "from the write-ahead log".  The cost of
that replay is the system's unavailability window after an oracle crash.
This ablation grows the committed history, crashes the active oracle,
and measures (a) records replayed, (b) wall-clock replay time, and
(c) correctness of the recovered state — confirming replay cost is
linear in durable history, which is why the real Omid snapshots and
truncates its WAL.
"""

import time

import pytest

from repro.bench import format_table
from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade
from repro.workload import complex_workload


def run_recovery_sweep():
    sizes = [1_000, 5_000, 20_000]
    results = []
    for size in sizes:
        # Cold takeover: the promoted host replays the whole log.
        replica_set = ReplicatedFrontend(num_hosts=2, level="wsi", warm=False)
        oracle = ReplicatedOracleFacade(replica_set)
        wl = complex_workload(distribution="uniform", keyspace=1_000_000, seed=101)
        committed = 0
        for spec in wl.stream(size):
            ts = oracle.begin()
            result = oracle.commit(
                CommitRequest(
                    ts,
                    write_set=frozenset(spec.write_rows),
                    read_set=frozenset(spec.read_rows),
                )
            )
            committed += result.committed
        replica_set.wal.flush()
        started = time.perf_counter()
        replica_set.kill_active()
        new_host = replica_set.active_host()
        replay_seconds = time.perf_counter() - started
        # correctness probe: conflict state intact after takeover
        old_oracle_rows = new_host.oracle.lastcommit_size
        results.append(
            {
                "txns": size,
                "committed": committed,
                "replayed": new_host.recovered_records,
                "seconds": replay_seconds,
                "lastcommit_rows": old_oracle_rows,
            }
        )
    return results


@pytest.mark.figure("recovery")
def test_e15_recovery_cost_linear_in_wal(benchmark, print_header):
    results = benchmark.pedantic(run_recovery_sweep, rounds=1, iterations=1)
    print_header("E15 — oracle failover: WAL length vs recovery cost (Appendix A)")
    print(
        format_table(
            ["txns", "committed", "records replayed", "replay seconds", "lastCommit rows"],
            [
                (
                    r["txns"],
                    r["committed"],
                    r["replayed"],
                    f"{r['seconds']:.3f}",
                    r["lastcommit_rows"],
                )
                for r in results
            ],
        )
    )
    # Replay volume grows with history...
    replayed = [r["replayed"] for r in results]
    assert replayed[0] < replayed[1] < replayed[2]
    # ...roughly linearly: 20x the transactions => within [8x, 40x] the
    # records (abort records and ts-reservations add slack).
    assert 8 < replayed[2] / replayed[0] < 40
    # The recovered oracle has real state, not an empty map.
    assert all(r["lastcommit_rows"] > 0 for r in results)
    # And takeover stays sub-second at this scale (the practical
    # justification for bounded WALs in production).
    assert all(r["seconds"] < 5.0 for r in results)
