"""Crash-recovery coverage for the group-commit frontend.

A flush ends with the batch's group-commit record synced, so one crash
point is left for a batched frontend: **before flush** — requests still
coalescing in the frontend's batch buffer were never decided, never
acknowledged, and are simply gone.  ``recover_from`` must restore
exactly the durable prefix, and every future that reported done must be
in it (the ack-before-durability regression below).  Plus the §5.1
regression: read-only traffic writes no WAL record at all.
"""

import pytest

from repro.core.errors import OracleClosed
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.server import OracleFrontend
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


def durable_decisions(wal):
    return [
        record
        for batch in wal._ledger.replay()
        for record in batch
        if record.kind == GROUP_COMMIT_RECORD
    ]


class TestMidBatchCrash:
    def _frontend(self, max_batch=100):
        # Large WAL batch_bytes: the size trigger never fires, so any
        # durability comes from the frontend's own flush-time sync.
        wal = BookKeeperWAL(batch_bytes=1 << 20)
        oracle = make_oracle("wsi", wal=wal)
        return OracleFrontend(oracle, max_batch=max_batch), oracle, wal

    def test_unflushed_frontend_batch_is_lost(self):
        frontend, oracle, wal = self._frontend()
        durable = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        wal.flush()  # batch 1 fully durable
        frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        # crash: the second request never flushed out of the frontend
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        assert fresh.last_commit("a") == durable.commit_ts
        assert fresh.last_commit("b") is None
        assert fresh.commit_table.is_committed(durable.start_ts)

    def test_batch_not_done_until_flushed_and_lost_on_crash(self):
        # There is no decided-but-unsynced batch any more: the flush is
        # the durability point.  What a crash can still take is the open
        # batch, and none of its futures ever reported done.
        frontend, oracle, wal = self._frontend()
        first = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        assert first.done and wal.pending_count == 0  # flushed = durable
        second = frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        assert not second.done  # not acknowledged before its flush...
        frontend.fail_pending(OracleClosed("host died"))  # ...the host dies
        wal.drop_pending()
        assert second.outcome() == "error"
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        assert fresh.last_commit("a") == first.commit_ts
        assert fresh.last_commit("b") is None

    def test_recovery_restores_exactly_the_durable_prefix(self):
        frontend, oracle, wal = self._frontend(max_batch=4)
        futures = []
        for i in range(10):  # 2 full batches flushed, 2 requests pending
            futures.append(
                frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
            )
        wal.flush()
        assert len(durable_decisions(wal)) == 2
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        for i, future in enumerate(futures[:8]):
            assert fresh.last_commit(f"r{i}") == future.commit_ts
        for i in range(8, 10):
            assert fresh.last_commit(f"r{i}") is None
            assert not futures[i].done

    def test_recovered_oracle_continues_detecting_conflicts(self):
        frontend, oracle, wal = self._frontend()
        stale = frontend.begin()  # snapshot predating the crash
        writer = frontend.begin()
        frontend.submit_commit(req(writer, writes={"x"}))
        frontend.flush()
        wal.flush()
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        result = fresh.commit(req(stale, writes={"y"}, reads={"x"}))
        assert not result.committed and result.reason == "rw-conflict"

    def test_group_record_aborts_recovered(self):
        frontend, oracle, wal = self._frontend()
        aborted = frontend.begin()
        stale = frontend.begin()
        writer = frontend.begin()
        frontend.submit_commit(req(writer, writes={"x"}))
        frontend.submit_abort(aborted)
        frontend.submit_commit(req(stale, writes={"y"}, reads={"x"}))  # conflict
        frontend.flush()
        wal.flush()
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        assert fresh.commit_table.is_aborted(aborted)
        assert fresh.commit_table.is_aborted(stale)
        assert fresh.commit_table.is_committed(writer)

    def test_recovered_timestamps_above_group_records(self):
        frontend, oracle, wal = self._frontend(max_batch=2)
        used = set()
        for _ in range(6):
            start = frontend.begin()
            used.add(start)
            future = frontend.submit_commit(req(start, writes={"k"}))
            if future.done and future.commit_ts is not None:
                used.add(future.commit_ts)
        frontend.close()
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        for _ in range(10):
            assert fresh.begin() not in used


class TestAckImpliesDurable:
    """Every future that reports done is in a fresh ``recover_from`` —
    with Appendix A's default 1 KB / 5 ms WAL, and no extra
    ``wal.flush()`` by the caller."""

    def _frontend(self, max_batch):
        wal = BookKeeperWAL()
        oracle = make_oracle("wsi", wal=wal)
        return OracleFrontend(oracle, max_batch=max_batch, wal=wal), wal

    def _assert_done_means_recovered(self, futures, wal):
        done = [f for f in futures if f.done]
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        for future in done:
            assert fresh.commit_table.commit_timestamp(future.start_ts) == (
                future.commit_ts
            )
        return done

    def test_count_flush_below_one_ledger_entry(self):
        # 4 decisions = 128 B: the WAL's size trigger does not fire, so
        # the frontend must sync the record itself before settling.
        frontend, wal = self._frontend(max_batch=4)
        futures = [
            frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
            for i in range(4)
        ]
        assert [f.outcome() for f in futures] == ["committed"] * 4
        assert len(self._assert_done_means_recovered(futures, wal)) == 4

    def test_timer_and_forced_flush_sync_their_partial_batch(self):
        frontend, wal = self._frontend(max_batch=32)
        timed = frontend.submit_commit(req(frontend.begin(), writes={"t"}))
        frontend.advance_time(1.0)
        assert frontend.tick()  # the frontend's flush-interval trigger
        forced = frontend.submit_commit(req(frontend.begin(), writes={"f"}))
        frontend.flush()
        assert wal.pending_count == 0  # no second 5 ms wait in the WAL
        done = self._assert_done_means_recovered([timed, forced], wal)
        assert done == [timed, forced]


class TestBeginLeaseCrash:
    """A frontend crash mid-lease must never lead to timestamp reuse:
    the lease block was durably reserved before any begin was served, so
    recovery resumes strictly above the whole block — the unserved
    remainder becomes a gap."""

    def test_crash_mid_lease_recovery_never_reissues(self):
        wal = BookKeeperWAL(batch_bytes=1 << 20)
        oracle = make_oracle("wsi", wal=wal)
        frontend = OracleFrontend(oracle, max_batch=4, begin_lease=16)
        issued = set()
        for i in range(10):  # mid-lease: 10 of 16 served
            start = frontend.begin()
            issued.add(start)
            frontend.submit_commit(req(start, writes={f"r{i}"}))
        frontend.flush()
        wal.flush()
        issued.update(oracle.commit_table._commits.values())
        assert frontend.begin_lease_remaining > 0  # the crash window

        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        # strictly above everything the crashed deployment could have
        # served — including the unserved lease remainder
        floor = oracle.timestamp_oracle.reserved_high_water
        for _ in range(20):
            ts = fresh.begin()
            assert ts > floor
            assert ts not in issued

    def test_partitioned_backend_leases_are_recoverable(self):
        # The partitioned oracle's shared TSO persists nothing on its
        # own; the frontend adopts its reservation stream into the
        # frontend WAL, so served begins (and unserved lease remainders)
        # survive a crash as gaps, never reuse.
        from repro.core.partitioned import PartitionedOracle

        wal = BookKeeperWAL(batch_bytes=1 << 20)
        oracle = PartitionedOracle(level="wsi", num_partitions=3)
        frontend = OracleFrontend(oracle, max_batch=8, wal=wal, begin_lease=16)
        issued = set()
        for i in range(6):  # begins served, none committed yet: the
            issued.add(frontend.begin())  # worst case for replay-only recovery
        future = frontend.submit_commit(req(min(issued), writes={0, 1, 2}))
        frontend.flush()
        wal.flush()
        issued.add(future.commit_ts)

        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        for _ in range(20):
            assert fresh.begin() not in issued

    def test_lease_refills_during_commits_stay_recoverable(self):
        # Leases interleaved with group-commit flushes: every block is
        # covered by a ts-reserve record that replay honours.
        wal = BookKeeperWAL(batch_bytes=1 << 20)
        oracle = make_oracle("wsi", wal=wal)
        frontend = OracleFrontend(oracle, max_batch=2, begin_lease=3)
        issued = set()
        for i in range(9):  # 3 lease refills, 4+ flushes interleaved
            start = frontend.begin()
            issued.add(start)
            future = frontend.submit_commit(req(start, writes={f"k{i}"}))
            if future.done:
                issued.add(future.commit_ts)
        frontend.close()
        issued.update(oracle.commit_table._commits.values())

        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        for _ in range(20):
            assert fresh.begin() not in issued


class TestReadOnlyRegression:
    def test_read_only_batch_writes_no_wal_record(self):
        """§5.1: a batch containing only read-only transactions costs no
        WAL write — there is literally nothing to persist."""
        wal = BookKeeperWAL()
        oracle = make_oracle("wsi", wal=wal)
        frontend = OracleFrontend(oracle, max_batch=4)
        frontend.begin()  # prime the timestamp reservation (ts-reserve
        before = wal.record_count  # record) so only decisions count below
        for _ in range(8):
            future = frontend.submit_commit(req(frontend.begin()))
            assert future.committed
        assert frontend.flush() is None
        frontend.close()
        assert wal.record_count == before
        assert durable_decisions(wal) == []
        assert oracle.stats.read_only_commits == 8

    def test_mixed_batch_persists_only_decisions(self):
        wal = BookKeeperWAL()
        oracle = make_oracle("wsi", wal=wal)
        frontend = OracleFrontend(oracle, max_batch=100)
        for _ in range(5):
            frontend.submit_commit(req(frontend.begin()))  # read-only
        writer = frontend.submit_commit(req(frontend.begin(), writes={"w"}))
        frontend.close()
        (record,) = durable_decisions(wal)
        commits, aborts = record.payload
        assert len(commits) == 1 and aborts == ()
        assert commits[0][0] == writer.start_ts


@pytest.mark.parametrize("bounded", [False, True])
def test_recovery_survives_bookie_crash(bounded):
    from repro.wal.ledger import LedgerManager

    manager = LedgerManager(num_bookies=3, write_quorum=2, ack_quorum=2)
    wal = BookKeeperWAL(ledger_manager=manager)
    oracle = make_oracle("wsi", bounded=bounded, wal=wal)
    frontend = OracleFrontend(oracle, max_batch=2)
    futures = [
        frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
        for i in range(4)
    ]
    frontend.close()
    manager.bookies[0].crash()  # one replica lost; quorum survives
    fresh = make_oracle("wsi")
    fresh.recover_from(wal)
    for i, future in enumerate(futures):
        assert fresh.last_commit(f"r{i}") == future.commit_ts
