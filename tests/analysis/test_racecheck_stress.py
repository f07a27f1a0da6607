"""racecheck over the real paths: concurrent sessions + HA failover.

The acceptance stress: with checking active, client threads take turns
submitting into one frontend over a partitioned oracle (the submit side
is single-writer, so they serialize on a client lock; the frontend swap
lock is then taken from every thread), flushes append group-commit
records (WAL buffer lock), and a leader crash drives the failover path
(``detach_pending`` under the dead host's flush lock, WAL
``drop_pending``) — and the whole run must end with an acyclic lock
order and zero unguarded accesses.
"""

import sys
import threading

import pytest

from repro.analysis.racecheck import checking
from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend
from repro.server.frontend import OracleFrontend
from repro.wal.bookkeeper import BookKeeperWAL

PARTS = 4
THREADS = 4


def test_frontend_and_wal_over_partitioned_backend_run_clean():
    with checking() as rc:
        wal = BookKeeperWAL()
        frontend = OracleFrontend(
            PartitionedOracle(num_partitions=PARTS), max_batch=8, wal=wal
        )
        requests = [
            [
                CommitRequest(
                    frontend.begin(),
                    write_set=frozenset({f"t{t}-a{i}", f"t{t}-b{i}"}),
                )
                for i in range(16)
            ]
            for t in range(THREADS)
        ]
        futures = []
        client_lock = rc.lock("client")

        def session(batch):
            # One client thread: submit, and force a flush now and then,
            # so batches mix requests of several threads.
            for i, request in enumerate(batch):
                with client_lock:
                    futures.append(frontend.submit_commit(request))
                    if i % 5 == 4:
                        frontend.flush()

        threads = [
            threading.Thread(target=session, args=(batch,))
            for batch in requests
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        frontend.flush()
        wal.flush()
        assert len(futures) == THREADS * 16
        assert all(f.outcome() == "committed" for f in futures)
    # checking() already asserted clean; prove the instrumentation
    # actually saw the frontend and WAL locks.
    assert rc.acquisitions > 0
    assert not rc.violations


def test_ha_failover_paths_run_clean():
    with checking() as rc:
        rf = ReplicatedFrontend(num_hosts=3, max_batch=100)
        # Steady state: decided + durable before any crash.
        durable = [
            rf.submit_commit(CommitRequest(rf.begin(), write_set=frozenset({f"d{i}"})))
            for i in range(8)
        ]
        rf.flush()
        assert all(f.done for f in durable)
        # Crash the leader mid-open-batch, twice: detach_pending +
        # drop_pending + promotion + requeue all run under the checker.
        for round_no in range(2):
            caught = rf.submit_commit(
                CommitRequest(rf.begin(), write_set=frozenset({f"mid{round_no}"}))
            )
            rf.kill_active()
            rf.flush()
            assert caught.done and caught.outcome() == "committed"
        assert rf.failovers == 2
    assert rc.acquisitions > 0
    assert not rc.violations


def test_seeded_inversion_in_protocol_shaped_code_is_caught():
    # The repro the detector exists for: two code paths touching two
    # shards in opposite orders (the classic cross-partition deadlock).
    with pytest.raises(Exception) as excinfo:
        with checking() as rc:
            shard_a, shard_b = rc.lock("shard[0]"), rc.lock("shard[1]")

            def transfer(src, dst):
                with src:
                    with dst:
                        pass

            transfer(shard_a, shard_b)
            transfer(shard_b, shard_a)  # opposite order: potential deadlock
    assert "lock-order cycle" in str(excinfo.value)


def test_fixed_ordering_in_protocol_shaped_code_is_accepted():
    # The fix: always lock shards in index order, as the partitioned
    # oracle's coordinator does by construction.
    with checking() as rc:
        shard_a, shard_b = rc.lock("shard[0]"), rc.lock("shard[1]")

        def transfer_ordered():
            with shard_a:
                with shard_b:
                    pass

        for _ in range(4):
            transfer_ordered()
    assert not rc.violations
