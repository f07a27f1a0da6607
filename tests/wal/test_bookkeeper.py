"""Unit tests for the batching WAL (Appendix A triggers)."""

import pytest

from repro.core.status_oracle import make_oracle
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, BookKeeperWAL, group_commit_payload
from repro.wal.ledger import LedgerManager


class TestSizeTrigger:
    def test_flush_at_one_kb(self):
        wal = BookKeeperWAL()
        # 31 records of 32 B = 992 B: still buffered
        for _ in range(31):
            assert not wal.append("commit", (1, 2), size=32)
        assert wal.pending_count == 31
        # 32nd record crosses 1 KB -> flush
        assert wal.append("commit", (1, 2), size=32)
        assert wal.pending_count == 0
        assert wal.flush_count == 1

    def test_large_record_flushes_immediately(self):
        wal = BookKeeperWAL()
        assert wal.append("snapshot", "big", size=4096)
        assert wal.flush_count == 1


class TestTimeTrigger:
    def test_flush_after_five_ms(self):
        wal = BookKeeperWAL()
        wal.append("commit", (1,), size=32)
        assert not wal.tick()  # no time elapsed yet
        wal.advance_time(0.004)
        assert not wal.tick()
        wal.advance_time(0.002)  # total 6 ms > 5 ms
        assert wal.tick()
        assert wal.pending_count == 0

    def test_tick_without_pending_rearms(self):
        wal = BookKeeperWAL()
        wal.advance_time(1.0)
        assert not wal.tick()  # nothing to flush
        wal.append("commit", (1,), size=32)
        assert not wal.tick()  # timer restarted at last tick

    def test_external_clock(self):
        now = [0.0]
        wal = BookKeeperWAL(clock=lambda: now[0])
        wal.append("commit", (1,), size=32)
        now[0] = 0.006
        assert wal.tick()


class TestBatching:
    def test_batching_factor(self):
        wal = BookKeeperWAL()
        for _ in range(64):  # two full 32-record batches
            wal.append("commit", (1,), size=32)
        assert wal.batching_factor() == pytest.approx(32.0)

    def test_effective_capacity_appendix_a(self):
        # Appendix A: batching factor 10 -> 200K TPS.
        wal = BookKeeperWAL()
        for _ in range(10):
            wal.append("commit", (1,), size=32)
        wal.flush()
        assert wal.batching_factor() == pytest.approx(10.0)
        assert wal.effective_tps_capacity() == pytest.approx(200_000)

    def test_batching_factor_before_any_flush(self):
        wal = BookKeeperWAL()
        assert wal.batching_factor() == 0.0
        wal.append("commit", (1,), size=32)  # buffered: still no flush
        assert wal.batching_factor() == 0.0
        assert wal.effective_tps_capacity() == pytest.approx(20_000)

    def test_record_counters(self):
        wal = BookKeeperWAL()
        for _ in range(40):
            wal.append("commit", (1,), size=32)
        assert wal.record_count == 40
        assert wal.flushed_record_count == 32
        assert wal.pending_count == 8


class TestDurabilityContract:
    def test_replay_returns_only_flushed_records(self):
        wal = BookKeeperWAL()
        for i in range(32):
            wal.append("commit", (i,), size=32)  # flushed at 32
        wal.append("commit", (99,), size=32)  # buffered, not durable
        payloads = [r.payload for r in wal.replay()]
        assert (99,) in payloads or len(payloads) == 32
        assert len(payloads) == 32  # the unflushed record is absent

    def test_explicit_flush_makes_durable(self):
        wal = BookKeeperWAL()
        wal.append("abort", (7,), size=32)
        wal.flush()
        records = list(wal.replay())
        assert len(records) == 1
        assert records[0].kind == "abort"

    def test_sync_callback_fires_per_batch(self):
        batches = []
        wal = BookKeeperWAL(sync_callback=batches.append)
        for _ in range(32):
            wal.append("commit", (1,), size=32)
        assert len(batches) == 1
        assert len(batches[0]) == 32

    def test_replay_order_preserved(self):
        wal = BookKeeperWAL()
        for i in range(100):
            wal.append("commit", (i,), size=32)
        wal.flush()
        payloads = [r.payload[0] for r in wal.replay()]
        assert payloads == list(range(100))


class TestGroupCommitNormalForm:
    """One normal form for group-commit records, whichever way in:
    ``(start_ts, commit_ts, rows)`` with ``rows`` a plain tuple."""

    #: What a decide loop hands over: rows are the request's frozenset.
    COMMITS = [(1, 3, frozenset({"a", "b"})), (2, 4, frozenset({("k", 7)}))]
    ABORTS = [5, 6]

    def assert_normal_form(self, payload):
        commits, aborts = payload
        assert type(commits) is tuple and type(aborts) is tuple
        assert aborts == tuple(self.ABORTS)
        assert [(s, c) for s, c, _ in commits] == [(s, c) for s, c, _ in self.COMMITS]
        for (_, _, rows), (_, _, write_set) in zip(commits, self.COMMITS):
            assert type(rows) is tuple
            assert len(rows) == len(write_set) and set(rows) == write_set

    def test_every_entry_point_writes_the_same_payload(self):
        by_group, by_decisions = BookKeeperWAL(), BookKeeperWAL()
        by_group.append_group_commit(self.COMMITS, self.ABORTS)
        returned = by_decisions.append_decisions(list(self.COMMITS), list(self.ABORTS))
        by_group.flush()
        by_decisions.flush()
        (group_record,) = by_group.replay()
        (decisions_record,) = by_decisions.replay()
        assert group_record.kind == decisions_record.kind == GROUP_COMMIT_RECORD
        assert group_record.size == decisions_record.size == 4 * 32
        assert decisions_record.payload is returned
        self.assert_normal_form(group_record.payload)
        assert group_record.payload == decisions_record.payload
        assert group_record.payload == group_commit_payload(self.COMMITS, self.ABORTS)

    def test_normal_form_is_a_fixed_point(self):
        once = group_commit_payload(self.COMMITS, self.ABORTS)
        assert group_commit_payload(*once) == once

    def test_recovery_is_identical_from_either_record(self):
        recovered = []
        for append in (BookKeeperWAL.append_group_commit, BookKeeperWAL.append_decisions):
            wal = BookKeeperWAL()
            append(wal, self.COMMITS, self.ABORTS)
            wal.flush()
            engine = make_oracle("wsi", lastcommit="dict")
            engine.recover_from(wal)
            recovered.append(engine)
        one, other = recovered
        assert dict(one._last_commit) == dict(other._last_commit)
        assert one.last_commit("a") == 3 and one.last_commit(("k", 7)) == 4
        for start_ts, commit_ts, _ in self.COMMITS:
            assert one.commit_table.commit_timestamp(start_ts) == commit_ts
            assert other.commit_table.commit_timestamp(start_ts) == commit_ts
        for start_ts in self.ABORTS:
            assert one.commit_table.is_aborted(start_ts)
            assert other.commit_table.is_aborted(start_ts)


class TestLedgerRotation:
    def test_roll_ledger_flushes_and_reopens(self):
        manager = LedgerManager()
        wal = BookKeeperWAL(ledger_manager=manager)
        wal.append("commit", (1,), size=32)
        wal.roll_ledger()
        wal.append("commit", (2,), size=32)
        wal.flush()
        assert len(list(manager.ledgers())) == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BookKeeperWAL(batch_bytes=0)
        with pytest.raises(ValueError):
            BookKeeperWAL(batch_timeout=0)
