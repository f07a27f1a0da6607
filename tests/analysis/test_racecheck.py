"""The dynamic detector: seeded violations flagged, fixed patterns clean.

The seeded lock-order inversion is the canonical repro: thread(ish) A
takes ``A`` then ``B``, another path takes ``B`` then ``A`` — no actual
deadlock ever fires, but the order graph gains a cycle and the checker
must flag it.  The fixed ordering (everyone takes ``A`` before ``B``)
must pass.
"""

import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.analysis.racecheck import (
    RaceChecker,
    RaceCheckError,
    TrackedLock,
    activate,
    active_checker,
    checking,
    deactivate,
    make_lock,
)


class TestLockOrder:
    def test_seeded_inversion_is_flagged(self):
        rc = RaceChecker()
        a, b = rc.lock("A"), rc.lock("B")
        with a:
            with b:
                pass
        with b:
            with a:  # the inversion: B held while taking A
                pass
        assert len(rc.lock_order_violations) == 1
        message = rc.lock_order_violations[0]
        assert "'A'" in message and "'B'" in message
        with pytest.raises(RaceCheckError):
            rc.assert_clean()

    def test_fixed_ordering_is_accepted(self):
        rc = RaceChecker()
        a, b = rc.lock("A"), rc.lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert rc.acquisitions == 6
        rc.assert_clean()

    def test_inversion_across_real_threads(self):
        # Run the two orderings in *separate threads*, sequentially so
        # the test can never actually deadlock: edges accumulate in the
        # shared graph regardless of which thread contributed them.
        rc = RaceChecker()
        a, b = rc.lock("A"), rc.lock("B")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()
        assert rc.lock_order_violations

    def test_three_lock_cycle_found_through_path(self):
        # A->B and B->C exist; C->A closes the cycle transitively.
        rc = RaceChecker()
        a, b, c = rc.lock("A"), rc.lock("B"), rc.lock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        rc.assert_clean()  # still a DAG
        with c:
            with a:
                pass
        assert len(rc.lock_order_violations) == 1
        assert "A" in rc.lock_order_violations[0]

    def test_same_role_reentry_not_self_edge(self):
        # Two distinct locks sharing a role (two oracles' shard[0]) do
        # not generate a self-cycle.
        rc = RaceChecker()
        first, second = rc.lock("shard[0]"), rc.lock("shard[0]")
        with first:
            with second:
                pass
        rc.assert_clean()

    def test_non_lifo_release_keeps_stack_sane(self):
        rc = RaceChecker()
        a, b = rc.lock("A"), rc.lock("B")
        a.acquire()
        b.acquire()
        a.release()  # out of order: legal for plain locks
        assert rc.holds("B") and not rc.holds("A")
        b.release()
        rc.assert_clean()


class TestGuardedState:
    def test_unguarded_access_is_flagged(self):
        rc = RaceChecker()
        rc.lock("table-lock")
        rc.register_state("table", "table-lock")
        rc.access("table")
        assert len(rc.unguarded_accesses) == 1
        assert "table" in rc.unguarded_accesses[0]
        with pytest.raises(RaceCheckError):
            rc.assert_clean()

    def test_access_under_owning_lock_is_clean(self):
        rc = RaceChecker()
        lock = rc.lock("table-lock")
        rc.register_state("table", "table-lock")
        with lock:
            rc.access("table")
        rc.assert_clean()

    def test_unregistered_state_is_ignored(self):
        rc = RaceChecker()
        rc.access("nobody-declared-this")
        rc.assert_clean()


class TestActivation:
    def test_make_lock_is_plain_when_off(self):
        deactivate()
        lock = make_lock("whatever")
        assert not isinstance(lock, TrackedLock)
        with lock:
            pass

    def test_make_lock_is_tracked_when_active(self):
        rc = activate()
        try:
            lock = make_lock("tracked")
            assert isinstance(lock, TrackedLock)
            with lock:
                pass
            assert rc.acquisitions == 1
        finally:
            deactivate()

    def test_checking_restores_prior_state_and_asserts_clean(self):
        deactivate()
        with checking() as rc:
            assert active_checker() is rc
            with make_lock("A"):
                pass
        assert active_checker() is None

    def test_checking_raises_on_dirty_exit(self):
        with pytest.raises(RaceCheckError):
            with checking() as rc:
                a, b = rc.lock("A"), rc.lock("B")
                with a:
                    with b:
                        pass
                with b:
                    with a:
                        pass

    def test_env_activation_instruments_the_frontend_and_wal_locks(self):
        # A fresh interpreter with REPRO_RACECHECK=1: the frontend's
        # flush lock and the WAL's buffer lock come out tracked, a real
        # flushed batch over a partitioned backend runs through them,
        # and the run ends clean.
        code = (
            "from repro.analysis.racecheck import TrackedLock, active_checker\n"
            "from repro.core.partitioned import PartitionedOracle\n"
            "from repro.core.status_oracle import CommitRequest\n"
            "from repro.server.frontend import OracleFrontend\n"
            "from repro.wal.bookkeeper import BookKeeperWAL\n"
            "wal = BookKeeperWAL()\n"
            "frontend = OracleFrontend(PartitionedOracle(num_partitions=2),\n"
            "                          max_batch=8, wal=wal)\n"
            "rc = active_checker()\n"
            "assert rc is not None\n"
            "assert isinstance(frontend._flush_lock, TrackedLock)\n"
            "assert isinstance(wal._wal_lock, TrackedLock)\n"
            "futures = [frontend.submit_commit(CommitRequest(frontend.begin(),\n"
            "               write_set=frozenset({'a%d' % i, 'b%d' % i})))\n"
            "           for i in range(8)]\n"
            "frontend.flush()\n"
            "wal.flush()\n"
            "assert all(f.outcome() == 'committed' for f in futures)\n"
            "assert rc.acquisitions > 0\n"
            "rc.assert_clean()\n"
            "print('RACECHECK-OK')\n"
        )
        env = dict(os.environ, REPRO_RACECHECK="1")
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "RACECHECK-OK" in proc.stdout
