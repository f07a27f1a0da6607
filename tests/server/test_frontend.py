"""Unit tests for the group-commit frontend's mechanics.

Batching triggers, future resolution, read-only fast path, WAL group
records, client sessions — the protocol-level equivalence is covered by
the property suite in test_equivalence_properties.py.
"""

import pytest

from repro.core.errors import DecisionPending, InvalidTransactionState, OracleClosed
from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import CommitRequest, CommitResult, make_oracle
from repro.server import CLIENT_ABORT, OracleFrontend
from repro.wal.bookkeeper import (
    GROUP_COMMIT_RECORD,
    BookKeeperWAL,
    group_commit_payload,
)


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


def make_frontend(level="wsi", **kwargs):
    wal = BookKeeperWAL()
    oracle = make_oracle(level, wal=wal)
    return OracleFrontend(oracle, **kwargs), oracle, wal


def make_backend(level="wsi", partitioned=False):
    if partitioned:
        return PartitionedOracle(level=level, num_partitions=4)
    return make_oracle(level)


class SequentialTwin:
    """The reference a frontend-settled future is held to: a twin
    backend behind the frontend's begin / submit / flush surface that
    decides each flush with one ``commit()`` / ``abort()`` per item, in
    submission order.  A submission returns a one-slot list the flush
    fills with the ``CommitResult`` (or the error the call raised)."""

    def __init__(self, backend):
        self.backend = backend
        self._queue = []

    def begin(self):
        return self.backend.begin()

    def submit_commit(self, request):
        self._queue.append((request, []))
        return self._queue[-1][1]

    def submit_abort(self, start_ts):
        self._queue.append((start_ts, []))
        return self._queue[-1][1]

    def flush(self):
        for item, slot in self._queue:
            try:
                if isinstance(item, int):
                    self.backend.abort(item)
                    slot.append(CommitResult(False, item, reason=CLIENT_ABORT))
                else:
                    slot.append(self.backend.commit(item))
            except ValueError as exc:
                slot.append(exc)
        self._queue = []


def assert_settled_as(future, slot):
    """``future`` settled exactly as its twin's sequential call did."""
    (expected,) = slot
    if isinstance(expected, Exception):
        assert future.outcome() == "error"
        assert type(future.error) is type(expected)
        assert str(future.error) == str(expected)
    else:
        assert future.result() == expected


def decision_records(wal):
    """Commit/abort records appended so far (the timestamp oracle also
    writes ts-reserve records, which are not decisions)."""
    wal.flush()
    return [
        r
        for batch in wal._ledger.replay()
        for r in batch
        if r.kind != "ts-reserve"
    ]


class TestBatchingTriggers:
    def test_count_trigger_flushes_at_max_batch(self):
        frontend, oracle, _ = make_frontend(max_batch=3)
        futures = [
            frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
            for i in range(2)
        ]
        assert all(not f.done for f in futures)
        assert frontend.pending_count == 2
        last = frontend.submit_commit(req(frontend.begin(), writes={"r9"}))
        assert last.done and last.committed
        assert all(f.done for f in futures)
        assert frontend.pending_count == 0
        assert frontend.stats.flushes_by_count == 1

    def test_timer_trigger_via_manual_clock(self):
        frontend, _, _ = make_frontend(max_batch=100, flush_interval=0.005)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        assert not frontend.tick()  # interval not yet elapsed
        frontend.advance_time(0.004)
        assert not frontend.tick()
        frontend.advance_time(0.002)
        assert frontend.tick()
        assert future.done and future.committed
        assert frontend.stats.flushes_by_timer == 1

    def test_tick_without_pending_is_noop(self):
        frontend, _, _ = make_frontend()
        frontend.advance_time(1.0)
        assert not frontend.tick()

    def test_scheduler_driven_flush(self):
        scheduled = []
        frontend, _, _ = make_frontend(
            max_batch=100,
            flush_interval=0.005,
            scheduler=lambda delay, cb: scheduled.append((delay, cb)),
        )
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        assert len(scheduled) == 1 and scheduled[0][0] == 0.005
        scheduled[0][1]()  # the engine fires the timer
        assert future.done
        # a stale timer (armed for an already-flushed batch) must not
        # flush the next batch early
        next_future = frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        scheduled[0][1]()
        assert not next_future.done
        assert len(scheduled) == 2  # the new batch armed its own timer

    def test_explicit_flush(self):
        frontend, _, _ = make_frontend(max_batch=100)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        flushed = frontend.flush()
        assert future.done and flushed.commits == 1
        assert frontend.stats.flushes_by_force == 1
        assert frontend.flush() is None  # nothing pending

    def test_batch_bounded_by_max_batch(self):
        frontend, _, _ = make_frontend(max_batch=4)
        for _ in range(10):
            frontend.submit_commit(req(frontend.begin(), writes={"x"}))
        assert frontend.stats.max_batch_seen <= 4
        assert frontend.pending_count == 2  # 10 = 2 full batches + 2


class TestFutures:
    def test_pending_future_raises_until_flush(self):
        frontend, _, _ = make_frontend(max_batch=10)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        assert not future.done
        with pytest.raises(DecisionPending):
            future.committed
        with pytest.raises(DecisionPending):
            future.result()
        frontend.flush()
        assert future.committed and future.commit_ts is not None
        result = future.result()
        assert result.committed and result.commit_ts == future.commit_ts

    def test_callback_fires_at_flush(self):
        frontend, _, _ = make_frontend(max_batch=10)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        seen = []
        future.add_done_callback(seen.append)
        assert not seen
        frontend.flush()
        assert seen == [future]

    def test_callback_on_resolved_future_fires_immediately(self):
        frontend, _, _ = make_frontend(max_batch=1)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]

    def test_conflict_future_carries_reason_and_row(self):
        frontend, _, _ = make_frontend(level="wsi", max_batch=10)
        stale = frontend.begin()
        writer = frontend.begin()
        frontend.submit_commit(req(writer, writes={"x"}))
        future = frontend.submit_commit(req(stale, writes={"y"}, reads={"x"}))
        frontend.flush()
        assert not future.committed
        result = future.result()
        assert result.reason == "rw-conflict" and result.conflict_row == "x"

    def test_client_abort_future(self):
        frontend, oracle, _ = make_frontend(max_batch=10)
        start = frontend.begin()
        future = frontend.submit_abort(start)
        frontend.flush()
        assert not future.committed
        assert future.result().reason == CLIENT_ABORT
        assert oracle.commit_table.is_aborted(start)


class TestReadOnlyFastPath:
    def test_read_only_resolves_immediately_without_batching(self):
        frontend, oracle, wal = make_frontend(max_batch=10)
        future = frontend.submit_commit(req(frontend.begin()))
        assert future.done and future.committed and future.commit_ts is None
        assert frontend.pending_count == 0
        assert decision_records(wal) == []
        assert oracle.stats.read_only_commits == 1
        assert frontend.stats.read_only_fast_path == 1

    def test_read_only_only_traffic_writes_no_wal_record(self):
        # §5.1: read-only transactions never cost a WAL write — a "batch"
        # made only of them is empty and flushes nothing.
        frontend, _, wal = make_frontend(max_batch=4)
        for _ in range(10):
            frontend.submit_commit(req(frontend.begin()))
        assert frontend.flush() is None
        assert decision_records(wal) == []
        assert frontend.stats.batches == 0


class TestWALGroupRecords:
    def test_one_group_record_per_batch(self):
        frontend, _, wal = make_frontend(max_batch=8)
        for _ in range(24):
            frontend.submit_commit(req(frontend.begin(), writes={"x"}))
        records = decision_records(wal)
        assert len(records) == 3  # 3 batches -> 3 logical records
        assert {r.kind for r in records} == {GROUP_COMMIT_RECORD}

    def test_group_record_payload_matches_batch(self):
        frontend, _, wal = make_frontend(max_batch=10)
        s1 = frontend.begin()
        s2 = frontend.begin()
        frontend.submit_commit(req(s1, writes={"a", "b"}))
        frontend.submit_abort(s2)
        flushed = frontend.flush()
        (record,) = decision_records(wal)
        commits, aborts = record.payload
        assert [c[0] for c in commits] == [s1]
        assert set(commits[0][2]) == {"a", "b"}
        assert aborts == (s2,)
        assert flushed.committed_payload == commits
        assert flushed.aborted_payload == aborts

    def test_payload_is_the_one_normal_form_with_and_without_a_wal(self):
        """Same decisions, same payload — ``rows`` a tuple equal as a set
        to the request's write set — whether the record went to a WAL
        (then the batch exposes the record's own payload object) or the
        frontend has no WAL to write to."""
        write_sets = [frozenset({"a", "b", "c"}), frozenset({("k", 1), ("k", 2)})]
        payloads = []
        for with_wal in (True, False):
            if with_wal:
                frontend, _, wal = make_frontend(max_batch=10)
            else:
                frontend, wal = OracleFrontend(make_oracle("wsi"), max_batch=10), None
            starts = [frontend.begin() for _ in range(3)]
            for start, write_set in zip(starts, write_sets):
                frontend.submit_commit(CommitRequest(start, write_set))
            frontend.submit_abort(starts[2])
            if with_wal:
                assert decision_records(wal) == []
            flushed = frontend.flush()
            if with_wal:
                # The flush adds exactly one group-commit record.
                (record,) = decision_records(wal)
                assert record.kind == GROUP_COMMIT_RECORD
                assert flushed.committed_payload is record.payload[0]
                assert flushed.aborted_payload is record.payload[1]
            else:
                # No log anywhere: neither the frontend nor its backend
                # has a WAL the flush could write to.
                assert frontend.wal is None
            payloads.append((flushed.committed_payload, flushed.aborted_payload))
        assert payloads[0] == payloads[1]
        assert payloads[0] == group_commit_payload(*payloads[0])
        commits, aborts = payloads[0]
        assert type(commits) is tuple and aborts == (starts[2],)
        for (_, _, rows), write_set in zip(commits, write_sets):
            assert type(rows) is tuple
            assert len(rows) == len(write_set) and set(rows) == write_set

    def test_nowait_outcomes_delivered_via_flushed_batch(self):
        frontend, oracle, _ = make_frontend(max_batch=10)
        batches = []
        frontend.on_flush(batches.append)
        s1 = frontend.begin()
        s2 = frontend.begin()
        frontend.submit_commit_nowait(req(s1, writes={"a"}))
        # s2 read "a", which s1 writes *earlier in the same batch*: in
        # batch order s1's install precedes s2's check, so s2 aborts —
        # exactly what the unbatched oracle fed the same order decides.
        frontend.submit_commit_nowait(req(s2, writes={"b"}, reads={"a"}))
        abort = frontend.submit_abort(frontend.begin())
        frontend.flush()
        (batch,) = batches
        assert batch.commits + batch.aborts == 3
        assert [c[0] for c in batch.committed_payload] == [s1]
        assert len(batch.aborted_payload) == 2
        assert abort.outcome() == "aborted"
        assert batch.futures == []  # released once the batch resolved
        assert oracle.stats.commits == 1 and oracle.stats.aborts == 2


class TestErrorIsolation:
    """One invalid request must not poison its batch: siblings decide,
    the group record persists their decisions, and the error surfaces on
    the offending future only."""

    def test_invalid_abort_does_not_poison_batch(self):
        frontend, oracle, wal = make_frontend(max_batch=100)
        committed = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        # batch 2: a valid commit sandwiched by an invalid abort (the
        # transaction already committed in batch 1)
        sibling = frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        bad = frontend.submit_abort(committed.start_ts)
        sibling2 = frontend.submit_commit(req(frontend.begin(), writes={"c"}))
        flushed = frontend.flush()
        assert sibling.committed and sibling2.committed
        assert bad.done
        with pytest.raises(ValueError, match="already committed"):
            bad.committed
        assert isinstance(bad.error, ValueError)
        assert len(flushed.errors) == 1 and flushed.errors[0][0] == committed.start_ts
        # the siblings' decisions are durable and recovery matches live state
        wal.flush()
        fresh = make_oracle("wsi")
        fresh.recover_from(wal)
        assert fresh.last_commit("b") == sibling.commit_ts
        assert fresh.last_commit("c") == sibling2.commit_ts
        assert dict(fresh._last_commit) == dict(oracle._last_commit)

    def test_errored_future_still_fires_callbacks(self):
        frontend, _, _ = make_frontend(max_batch=100)
        done = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        bad = frontend.submit_abort(done.start_ts)
        seen = []
        bad.add_done_callback(seen.append)
        frontend.flush()
        assert seen == [bad]

    def test_session_counts_errors_separately(self):
        frontend, oracle, _ = make_frontend(max_batch=100)
        session = frontend.session()
        start = session.begin()
        session.commit(write_set={"a"}, start_ts=start)
        frontend.flush()
        # misuse the raw frontend to abort the already-committed txn
        bad = frontend.submit_abort(start)
        bad.add_done_callback(session._tally)
        frontend.flush()
        assert session.commits == 1 and session.aborts == 0
        assert oracle.stats.aborts == 0  # backend recorded nothing for it


class TestLifecycle:
    def test_close_flushes_pending_and_wal(self):
        frontend, oracle, wal = make_frontend(max_batch=100)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.close()
        assert future.done
        assert wal.pending_count == 0  # WAL flushed too
        with pytest.raises(OracleClosed):
            frontend.begin()
        with pytest.raises(OracleClosed):
            frontend.submit_commit(req(1))
        # the backend stays open: the frontend is a layer, not the owner
        assert oracle.commit(req(oracle.begin(), writes={"z"})).committed

    def test_constructor_validation(self):
        oracle = make_oracle("wsi")
        with pytest.raises(ValueError):
            OracleFrontend(oracle, max_batch=0)
        with pytest.raises(ValueError):
            OracleFrontend(oracle, flush_interval=0)

    def test_backend_without_batch_hook_is_refused(self):
        # One decision path: a backend that cannot decide a batch is
        # rejected up front, naming the hook.
        class CommitOnlyBackend:
            def __init__(self):
                self.backing = make_oracle("wsi")
                self.stats = self.backing.stats

            def begin(self):
                return self.backing.begin()

            def commit(self, request):
                return self.backing.commit(request)

        with pytest.raises(TypeError, match="_decide_batch"):
            OracleFrontend(CommitOnlyBackend(), wal=BookKeeperWAL())

    def test_explicit_wal_for_walless_backend(self):
        wal = BookKeeperWAL()
        oracle = PartitionedOracle(level="wsi", num_partitions=2)
        frontend = OracleFrontend(oracle, max_batch=4, wal=wal)
        for _ in range(4):
            frontend.submit_commit(req(frontend.begin(), writes={"k"}))
        # the partitioned oracle gained a WAL: one group record for the
        # batch — and its shared TSO, which persists nothing on its own,
        # gained reservation durability through the same WAL
        assert len(decision_records(wal)) == 1
        assert oracle.timestamp_oracle.persists_reservations


class TestBeginLease:
    """The begin-side amortization: ``begin_lease=n`` takes one backend
    lease per ``n`` begins and serves the block locally."""

    def test_default_is_per_call(self):
        frontend, oracle, _ = make_frontend()
        for _ in range(5):
            frontend.begin()
        assert frontend.stats.begin_leases == 0
        assert oracle.timestamp_oracle.lease_count == 0
        assert oracle.timestamp_oracle.issued_count == 5

    def test_leased_begins_are_consecutive_and_refill(self):
        frontend, oracle, _ = make_frontend(begin_lease=8)
        starts = [frontend.begin() for _ in range(20)]
        # No commit traffic interleaves, so leases are back-to-back and
        # the served begins are exactly what per-call would serve.
        assert starts == list(range(1, 21))
        assert frontend.stats.begin_leases == 3  # ceil(20 / 8)
        assert oracle.timestamp_oracle.lease_count == 3
        assert frontend.begin_lease_remaining == 4

    def test_leased_begins_strictly_increase_across_flushes(self):
        frontend, oracle, _ = make_frontend(begin_lease=4, max_batch=100)
        starts = [frontend.begin() for _ in range(3)]  # lease [1..4]
        frontend.submit_commit(req(starts[0], writes={"a"}))
        frontend.flush()  # Tc = 5, above the whole lease block
        starts.append(frontend.begin())  # 4, still from the first lease
        starts.extend(frontend.begin() for _ in range(2))  # refill above Tc
        assert starts == [1, 2, 3, 4, 6, 7]
        assert all(b > a for a, b in zip(starts, starts[1:]))
        # commit timestamps and begins never collide
        assert set(starts).isdisjoint(oracle.commit_table._commits.values())

    def test_commit_ts_always_exceeds_leased_start(self):
        frontend, oracle, _ = make_frontend(begin_lease=16, max_batch=4)
        futures = []
        for i in range(12):
            futures.append(
                frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
            )
        frontend.flush()
        for future in futures:
            assert future.commit_ts > future.start_ts

    def test_begin_many_drains_lease_then_leases_shortfall(self):
        frontend, oracle, _ = make_frontend(begin_lease=8)
        assert [frontend.begin() for _ in range(3)] == [1, 2, 3]
        starts = frontend.begin_many(10)
        assert starts == list(range(4, 14))  # [4..8] drained + lease(5)
        assert frontend.begin_lease_remaining == 0
        assert frontend.stats.begin_leases == 2

    def test_begin_many_at_lease_one_is_one_round_trip(self):
        frontend, oracle, _ = make_frontend()  # begin_lease=1
        starts = frontend.begin_many(6)
        assert starts == list(range(1, 7))
        assert frontend.stats.begin_leases == 1
        assert oracle.timestamp_oracle.lease_count == 1

    def test_begin_many_validates(self):
        frontend, _, _ = make_frontend()
        with pytest.raises(ValueError):
            frontend.begin_many(0)

    def test_constructor_rejects_bad_lease(self):
        oracle = make_oracle("wsi")
        with pytest.raises(ValueError):
            OracleFrontend(oracle, begin_lease=0)

    def test_close_drops_unserved_lease(self):
        frontend, oracle, _ = make_frontend(begin_lease=8)
        frontend.begin()
        assert frontend.begin_lease_remaining == 7
        frontend.close()
        assert frontend.begin_lease_remaining == 0
        with pytest.raises(OracleClosed):
            frontend.begin()
        with pytest.raises(OracleClosed):
            frontend.begin_many(2)
        # the dropped remainder is a gap, never reused: the backend's
        # cursor already moved past the whole block
        assert oracle.begin() > 8

    def test_foreign_backend_degrades_to_per_call(self):
        class ForeignOracle:
            def __init__(self):
                self.backing = make_oracle("wsi")
                self.stats = self.backing.stats
                self.naive_read_only = False

            def begin(self):
                return self.backing.begin()

            def commit(self, request):
                return self.backing.commit(request)

            def abort(self, start_ts):
                self.backing.abort(start_ts)

            def _decide_batch(self, *args):
                return self.backing._decide_batch(*args)

        frontend = OracleFrontend(
            ForeignOracle(), wal=BookKeeperWAL(), begin_lease=8
        )
        assert [frontend.begin() for _ in range(3)] == [1, 2, 3]
        assert frontend.stats.begin_leases == 0  # no lease surface
        assert frontend.begin_many(3) == [4, 5, 6]


class TestCommitFutureOutcome:
    """The public outcome surface (``outcome()``): what the session tally
    reads instead of future internals — pinned against the private
    fields and against the sequential twin, for the monolithic and the
    partitioned decide loop."""

    def test_pending_outcome_raises(self):
        frontend, _, _ = make_frontend(max_batch=10)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        with pytest.raises(DecisionPending):
            future.outcome()

    def test_outcome_tags(self):
        frontend, _, _ = make_frontend(level="wsi", max_batch=100)
        ro = frontend.submit_commit(req(frontend.begin()))
        assert ro.outcome() == "read-only"  # resolves at submit
        stale = frontend.begin()
        writer = frontend.submit_commit(req(frontend.begin(), writes={"x"}))
        conflict = frontend.submit_commit(req(stale, writes={"y"}, reads={"x"}))
        client = frontend.submit_abort(frontend.begin())
        frontend.flush()
        assert writer.outcome() == "committed"
        assert conflict.outcome() == "aborted"
        assert client.outcome() == "aborted"

    def test_error_outcome_does_not_raise(self):
        frontend, _, _ = make_frontend(max_batch=100)
        done = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        bad = frontend.submit_abort(done.start_ts)
        frontend.flush()
        assert bad.outcome() == "error"  # committed/result() would raise
        assert isinstance(bad.error, ValueError)

    @staticmethod
    def _mixed_traffic(target):
        """One of each outcome through a frontend or its sequential
        twin; returns the per-outcome handles."""
        handles = {"ro": target.submit_commit(req(target.begin()))}
        stale = target.begin()
        writer = target.begin()
        handles["commit"] = target.submit_commit(req(writer, writes={"x"}))
        handles["conflict"] = target.submit_commit(
            req(stale, writes={"y"}, reads={"x"})
        )
        handles["client"] = target.submit_abort(target.begin())
        target.flush()
        handles["error"] = target.submit_abort(writer)
        target.flush()
        return handles

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_outcome_matches_private_state_across_paths(self, partitioned):
        frontend = OracleFrontend(
            make_backend(partitioned=partitioned),
            max_batch=100,
            wal=BookKeeperWAL(),
        )
        futures = self._mixed_traffic(frontend)
        twin = self._mixed_traffic(
            SequentialTwin(make_backend(partitioned=partitioned))
        )
        expected = {
            "ro": "read-only",
            "commit": "committed",
            "conflict": "aborted",
            "client": "aborted",
            "error": "error",
        }
        for name, future in futures.items():
            assert future.outcome() == expected[name]
            # the tag is derived state, never divergent from internals
            if expected[name] == "error":
                assert future._error is not None
            elif expected[name] == "aborted":
                assert future._error is None and not future._committed
            else:
                assert future._committed
                assert (future._commit_ts is None) == (
                    expected[name] == "read-only"
                )
            # and the decision is the sequential commit()/abort() one
            assert_settled_as(future, twin[name])


class TestSessionSubmitFailure:
    """`_resolve_open` regression: a transaction must not vanish from the
    session when ``submit_*`` raises — it is removed only once the
    future is obtained."""

    def test_failed_commit_submit_keeps_transaction_open(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session()
        start = session.begin()
        frontend.close()
        with pytest.raises(OracleClosed):
            session.commit(write_set={"a"})
        # Still open and still addressable — OracleClosed again, not
        # InvalidTransactionState (which would mean it was lost).
        assert session.open_count == 1
        with pytest.raises(OracleClosed):
            session.commit(write_set={"a"}, start_ts=start)
        assert session.submitted == 0

    def test_failed_abort_submit_keeps_transaction_open(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session()
        session.begin()
        frontend.close()
        with pytest.raises(OracleClosed):
            session.abort()
        assert session.open_count == 1
        with pytest.raises(OracleClosed):
            session.abort()

    def test_unknown_transaction_still_rejected_before_submit(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session()
        with pytest.raises(InvalidTransactionState):
            session.commit(write_set={"a"})
        assert frontend.pending_count == 0  # nothing was submitted


class TestClientSession:
    def test_session_commit_and_tally(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session(name="s1")
        session.begin()
        future = session.commit(write_set={"a"})
        assert session.submitted == 1 and session.decided == 0
        frontend.flush()
        assert future.committed
        assert session.commits == 1 and session.aborts == 0

    def test_session_read_only_tally(self):
        frontend, _, _ = make_frontend()
        session = frontend.session()
        session.begin()
        future = session.commit()
        assert future.done and session.read_only_commits == 1

    def test_session_multiple_in_flight(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session()
        t1 = session.begin()
        t2 = session.begin()
        assert session.open_count == 2
        session.commit(write_set={"a"}, start_ts=t1)
        session.commit(write_set={"b"}, start_ts=t2)
        frontend.flush()
        assert session.commits == 2 and session.open_count == 0

    def test_session_rejects_unknown_transaction(self):
        frontend, _, _ = make_frontend()
        session = frontend.session()
        with pytest.raises(InvalidTransactionState):
            session.commit(write_set={"a"})
        session.begin()
        session.commit(write_set={"a"})
        with pytest.raises(InvalidTransactionState):
            session.commit(write_set={"a"})  # already submitted

    def test_commit_and_abort_reject_a_not_open_ts_identically(self):
        frontend, _, _ = make_frontend(max_batch=10)
        session = frontend.session(name="s1")
        done = session.begin()
        session.commit(write_set={"a"})
        for ts in (None, done, 10_000):
            with pytest.raises(InvalidTransactionState) as by_commit:
                session.commit(write_set={"a"}, start_ts=ts)
            with pytest.raises(InvalidTransactionState) as by_abort:
                session.abort(start_ts=ts)
            assert str(by_commit.value) == str(by_abort.value)
        assert session.submitted == 1 and frontend.pending_count == 1

    def test_session_abort(self):
        frontend, oracle, _ = make_frontend(max_batch=10)
        session = frontend.session()
        start = session.begin()
        session.abort()
        frontend.flush()
        assert session.aborts == 1
        assert oracle.commit_table.is_aborted(start)

    def test_session_begin_many(self):
        frontend, _, _ = make_frontend(max_batch=100, begin_lease=8)
        session = frontend.session()
        starts = session.begin_many(5)
        assert len(starts) == 5 and session.open_count == 5
        # the last begun is the default commit target
        default = session.commit(write_set={"a"})
        assert default.start_ts == starts[-1]
        for start in starts[:-1]:
            session.commit(write_set={"b"}, start_ts=start)
        frontend.flush()
        assert session.commits == 5 and session.open_count == 0

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_session_tally_parity_across_decision_paths(self, partitioned):
        """The tally reads ``outcome()``, so it must classify the same
        mixed traffic exactly as the sequential ``commit()`` results of
        a twin backend — monolithic or partitioned decide loop alike."""
        frontend = OracleFrontend(
            make_backend(partitioned=partitioned),
            max_batch=100,
            wal=BookKeeperWAL(),
        )
        session = frontend.session()
        session.begin()
        session.commit()  # read-only
        stale = session.begin()
        session.begin()
        session.commit(write_set={"x"})  # committed writer
        session.commit(write_set={"y"}, read_set={"x"}, start_ts=stale)
        session.begin()
        session.abort()
        frontend.flush()
        tally = (
            session.commits,
            session.read_only_commits,
            session.aborts,
            session.errors,
        )

        twin = SequentialTwin(make_backend(partitioned=partitioned))
        slots = [twin.submit_commit(req(twin.begin()))]
        stale, writer = twin.begin(), twin.begin()
        slots.append(twin.submit_commit(req(writer, writes={"x"})))
        slots.append(twin.submit_commit(req(stale, writes={"y"}, reads={"x"})))
        slots.append(twin.submit_abort(twin.begin()))
        twin.flush()
        results = [result for (result,) in slots]
        expected = (
            sum(r.committed for r in results),
            sum(r.committed and r.commit_ts is None for r in results),
            sum(not r.committed for r in results),
            0,
        )
        assert tally == expected == (2, 1, 2, 0)


class TestFutureStateParity:
    """A resolved future must settle exactly as the sequential
    ``commit()`` / ``abort()`` calls of a twin backend decide — for the
    monolithic decide loops and for both the single- and
    cross-partition branches of the partitioned engine."""

    def _drive(self, target):
        """One commit, one conflict abort, one cross-partition commit,
        one client abort — through a frontend or its sequential twin;
        handles returned in that order."""
        t1 = target.begin()
        stale = target.begin()
        f_commit = target.submit_commit(req(t1, writes={0, 1, 2, 3}))
        target.flush()
        f_conflict = target.submit_commit(
            req(stale, writes={0}, reads={0})
        )
        t3 = target.begin()
        f_cross = target.submit_commit(req(t3, writes={4, 5, 6, 7}))
        t4 = target.begin()
        f_client = target.submit_abort(t4)
        target.flush()
        return [f_commit, f_conflict, f_cross, f_client]

    def _assert_matches_twin(self, level, partitioned):
        frontend = OracleFrontend(
            make_backend(level, partitioned), max_batch=32, wal=BookKeeperWAL()
        )
        futures = self._drive(frontend)
        slots = self._drive(SequentialTwin(make_backend(level, partitioned)))
        for future, slot in zip(futures, slots):
            # Settled by its batch's flush, outcome fields set, the
            # CommitResult built lazily on first read.
            assert future.done and not future._done
            assert future._result is None
            assert_settled_as(future, slot)

    def test_partitioned_engine_vs_per_request_mode(self):
        self._assert_matches_twin("wsi", partitioned=True)

    @pytest.mark.parametrize("level", ["si", "wsi"])
    def test_monolithic_engine_vs_per_request_mode(self, level):
        self._assert_matches_twin(level, partitioned=False)

    def test_single_and_cross_commit_futures_identical_shape(self):
        oracle = PartitionedOracle(level="wsi", num_partitions=4)
        frontend = OracleFrontend(oracle, max_batch=32, wal=BookKeeperWAL())
        t1, t2 = frontend.begin(), frontend.begin()
        f_single = frontend.submit_commit(req(t1, writes={0}))
        f_cross = frontend.submit_commit(req(t2, writes={1, 2, 3}))
        frontend.flush()
        assert oracle.single_partition_commits == 1
        assert oracle.cross_partition_commits == 1
        for future in (f_single, f_cross):
            # Identical resolution state: fields set, no eager _result.
            assert future._committed is True
            assert future._commit_ts is not None
            assert future._result is None  # built lazily...
            assert future.result().committed  # ...on first read
            assert future._result is not None
