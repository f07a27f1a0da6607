"""Crash-path and admission-control coverage for the frontend.

The headline regression: a flush that dies mid-decision or mid-WAL-
append used to strand every future of the batch in ``DecisionPending``
forever — the error surfaced only at the flush call site, and nothing
ever resolved the futures.  Now the batch is abandoned: every future
resolves with the error, callbacks fire, admission slots release.

Plus the replicated tier's detach/requeue crash path, the close-trigger
accounting split (``flushes_by_close`` vs ``flushes_by_force``) and the
``max_queue_depth`` admission bound.
"""

import pytest

from repro.core.errors import (
    DecisionPending,
    NotEnoughBookiesError,
    OracleClosed,
    Overloaded,
)
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.server import OracleFrontend, RetryPolicy, call_with_retry
from repro.wal.bookkeeper import BookKeeperWAL


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


class _ExplodingEngine:
    """A backend whose batch-decide engine dies mid-flush."""

    def __init__(self):
        self.inner = make_oracle("wsi")
        self.stats = self.inner.stats

    def begin(self):
        return self.inner.begin()

    def _decide_batch(self, batch, commits, aborts, errors, _):
        raise RuntimeError("conflict-detection engine crashed")


class TestFlushFaults:
    def test_engine_crash_resolves_all_futures_with_the_error(self):
        frontend = OracleFrontend(_ExplodingEngine(), max_batch=100)
        futures = [
            frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
            for i in range(5)
        ]
        with pytest.raises(RuntimeError, match="engine crashed"):
            frontend.flush()
        for future in futures:
            assert future.done  # NOT a permanent DecisionPending
            assert future.outcome() == "error"
            with pytest.raises(RuntimeError):
                future.committed
        assert frontend.stats.flush_failures == 1

    def test_wal_append_crash_resolves_all_futures(self):
        # 2 of 3 bookies down < ack quorum: the 32nd submission fills
        # 1 KB, the count-flush syncs the WAL, the ledger append raises.
        # (Begin first: the TSO's reservation protocol also hits the
        # WAL, so the bookies must still be up while timestamps lease.)
        wal = BookKeeperWAL()
        oracle = make_oracle("wsi", wal=wal)
        frontend = OracleFrontend(oracle, max_batch=32)
        starts = [frontend.begin() for _ in range(32)]
        futures = [
            frontend.submit_commit(req(starts[i], writes={f"r{i}"}))
            for i in range(31)
        ]
        for bookie in wal.ledger_manager.bookies[:2]:
            bookie.crash()
        with pytest.raises(NotEnoughBookiesError):
            futures.append(
                frontend.submit_commit(req(starts[31], writes={"r31"}))
            )
        assert len(futures) == 31  # the 32nd submit raised mid-call
        open_batch = frontend._open_cell
        assert open_batch is None  # the doomed batch was abandoned
        # every submitted future resolved with the WAL error
        for future in futures:
            assert future.done and isinstance(future.error, NotEnoughBookiesError)
        assert frontend.stats.flush_failures == 1

    def test_done_callbacks_fire_on_abandoned_batch(self):
        frontend = OracleFrontend(_ExplodingEngine(), max_batch=100)
        future = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        resolved = []
        future.add_done_callback(lambda f: resolved.append(f.outcome()))
        with pytest.raises(RuntimeError):
            frontend.flush()
        assert resolved == ["error"]

    def test_admission_slots_released_after_failed_flush(self):
        frontend = OracleFrontend(_ExplodingEngine(), max_batch=100, max_queue_depth=3)
        for i in range(3):
            frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
        assert frontend.inflight == 3
        with pytest.raises(RuntimeError):
            frontend.flush()
        assert frontend.inflight == 0  # the bound is usable again
        frontend.submit_commit(req(frontend.begin(), writes={"again"}))

    def test_fail_pending_crashes_the_open_batch(self):
        frontend = OracleFrontend(make_oracle("wsi"), max_batch=100)
        decided = frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        doomed = frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        crashed = frontend.fail_pending(OracleClosed("host died"))
        assert crashed == 1
        assert decided.outcome() == "committed"  # earlier batch untouched
        assert doomed.outcome() == "error"
        assert isinstance(doomed.error, OracleClosed)
        assert frontend.stats.crashed_requests == 1
        assert frontend.fail_pending(OracleClosed("again")) == 0  # idempotent

    def test_fail_pending_leaves_backend_state_untouched(self):
        oracle = make_oracle("wsi")
        frontend = OracleFrontend(oracle, max_batch=100)
        frontend.submit_commit(req(frontend.begin(), writes={"x"}))
        frontend.fail_pending(OracleClosed("host died"))
        assert oracle.last_commit("x") is None  # never decided


class TestDetachAndRequeue:
    """The replicated tier's crash path: the dead frontend gives its open
    batch up unsettled, and the next one takes the same items — same
    futures, same start timestamps — as if freshly submitted."""

    def _loaded(self, oracle, **kwargs):
        frontend = OracleFrontend(oracle, max_batch=100, **kwargs)
        starts = [frontend.begin() for _ in range(3)]
        futures = [
            frontend.submit_commit(req(starts[0], writes={"x"})),
            frontend.submit_abort(starts[1]),
            frontend.submit_commit(req(starts[2], writes={"y"})),
        ]
        return frontend, starts, futures

    def test_detach_leaves_futures_pending(self):
        frontend, starts, futures = self._loaded(
            make_oracle("wsi"), max_queue_depth=5
        )
        items = frontend.detach_pending()
        assert [item[1] for item in items] == futures
        assert [item[0] for item in items][1] == starts[1]  # a client abort
        assert not any(f.done for f in futures)
        assert frontend.pending_count == 0 and frontend.inflight == 0
        assert frontend.stats.crashed_requests == 3
        assert frontend.detach_pending() == []  # nothing left to take

    def test_requeue_settles_the_same_futures_on_the_next_frontend(self):
        oracle = make_oracle("wsi")
        dead, starts, futures = self._loaded(oracle)
        session_owned = futures[2]
        tallied = []
        session_owned._attach_owner(type("Owner", (), {"_tally": tallied.append})())
        items = dead.detach_pending()
        successor = OracleFrontend(oracle, max_batch=100)
        for item in items:
            successor.requeue(item)
        assert successor.pending_count == 3
        assert successor.stats.client_aborts == 1
        successor.flush()
        assert [f.outcome() for f in futures] == ["committed", "aborted", "committed"]
        assert [f.start_ts for f in futures] == starts
        assert tallied == [session_owned]  # the owner hook moved with it
        assert oracle.stats.commits == 2 and oracle.stats.aborts == 1

    def test_requeue_applies_admission_control(self):
        oracle = make_oracle("wsi")
        dead, _, _ = self._loaded(oracle)
        items = dead.detach_pending()
        successor = OracleFrontend(oracle, max_batch=100, max_queue_depth=2)
        successor.requeue(items[0])
        successor.requeue(items[1])
        with pytest.raises(Overloaded):
            successor.requeue(items[2])
        assert successor.pending_count == 2

    def test_requeue_refused_by_a_closed_frontend(self):
        oracle = make_oracle("wsi")
        dead, _, futures = self._loaded(oracle)
        successor = OracleFrontend(oracle, max_batch=100)
        successor.close()
        with pytest.raises(OracleClosed):
            successor.requeue(dead.detach_pending()[0])
        assert not futures[0].done  # still the caller's to settle

    def test_requeue_count_trigger_flushes(self):
        oracle = make_oracle("wsi")
        dead, _, futures = self._loaded(oracle)
        successor = OracleFrontend(oracle, max_batch=3)
        for item in dead.detach_pending():
            successor.requeue(item)
        assert all(f.done for f in futures)
        assert successor.stats.flushes_by_count == 1


class TestCloseTrigger:
    def test_close_flush_counted_apart_from_force(self):
        frontend = OracleFrontend(make_oracle("wsi"), max_batch=100)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.close()
        assert frontend.stats.flushes_by_close == 1
        assert frontend.stats.flushes_by_force == 0

    def test_explicit_force_still_counted_as_force(self):
        frontend = OracleFrontend(make_oracle("wsi"), max_batch=100)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.flush()
        frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        frontend.close()
        assert frontend.stats.flushes_by_force == 1
        assert frontend.stats.flushes_by_close == 1


class TestAdmissionControl:
    def _frontend(self, depth, **kwargs):
        return OracleFrontend(
            make_oracle("wsi"), max_batch=100, max_queue_depth=depth, **kwargs
        )

    def test_bound_sheds_with_typed_rejection(self):
        frontend = self._frontend(2)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.submit_abort(frontend.begin())
        with pytest.raises(Overloaded) as excinfo:
            frontend.submit_commit(req(frontend.begin(), writes={"c"}))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.limit == 2
        assert frontend.stats.overload_rejections == 1
        assert frontend.pending_count == 2  # the shed request never queued

    def test_nowait_paths_also_bounded(self):
        frontend = self._frontend(1)
        frontend.submit_commit_nowait(req(frontend.begin(), writes={"a"}))
        with pytest.raises(Overloaded):
            frontend.submit_abort(frontend.begin())

    def test_read_only_fast_path_exempt(self):
        frontend = self._frontend(1)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        # read-only requests join no batch and hold no slot
        future = frontend.submit_commit(req(frontend.begin()))
        assert future.outcome() == "read-only"
        assert frontend.inflight == 1

    def test_slots_release_at_flush_without_durability_hook(self):
        frontend = self._frontend(2)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        frontend.flush()
        assert frontend.inflight == 0
        assert frontend.stats.max_inflight_seen == 2

    def test_slots_deferred_until_mark_durable(self):
        frontend = self._frontend(2)
        attach = lambda cell: setattr(cell, "durable_event", object())
        frontend.on_flush(attach)
        frontend.submit_commit(req(frontend.begin(), writes={"a"}))
        cell = frontend.flush()
        # flushed but not durable: the slot is still held
        assert frontend.inflight == 1
        frontend.submit_commit(req(frontend.begin(), writes={"b"}))
        with pytest.raises(Overloaded):
            frontend.submit_commit(req(frontend.begin(), writes={"c"}))
        frontend.mark_durable(cell)
        assert frontend.inflight == 1  # only the new open batch remains
        frontend.mark_durable(cell)  # idempotent
        assert frontend.inflight == 1

    def test_unbounded_frontend_tracks_nothing(self):
        frontend = OracleFrontend(make_oracle("wsi"), max_batch=100)
        for i in range(10):
            frontend.submit_commit(req(frontend.begin(), writes={f"r{i}"}))
        assert frontend.inflight == 0
        assert frontend.stats.max_inflight_seen == 0

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            OracleFrontend(make_oracle("wsi"), max_queue_depth=0)


class TestRetryPolicyUnit:
    def test_schedule_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.05
        )
        assert list(policy.delays()) == [0.01, 0.02, 0.04, 0.05]
        assert policy.total_backoff() == pytest.approx(0.12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)

    def test_call_with_retry_recovers(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise Overloaded(5, 4)
            return "ok"

        backoffs = []
        result = call_with_retry(
            flaky,
            RetryPolicy(max_attempts=4, base_delay=0.001),
            retry_on=(Overloaded,),
            on_backoff=lambda attempt, delay: backoffs.append((attempt, delay)),
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert [a for a, _ in backoffs] == [1, 2]

    def test_call_with_retry_reraises_when_spent(self):
        def always():
            raise Overloaded(5, 4)

        with pytest.raises(Overloaded):
            call_with_retry(
                always, RetryPolicy(max_attempts=2), retry_on=(Overloaded,)
            )

    def test_foreign_errors_propagate_immediately(self):
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("not retryable")

        with pytest.raises(RuntimeError):
            call_with_retry(
                boom, RetryPolicy(max_attempts=5), retry_on=(Overloaded,)
            )
        assert len(calls) == 1


class TestSessionBackpressure:
    def test_session_backs_off_and_resubmits(self):
        frontend = OracleFrontend(
            make_oracle("wsi"), max_batch=100, max_queue_depth=1
        )
        session = frontend.session()
        session._retry_policy = RetryPolicy(max_attempts=3, base_delay=0.001)
        session._sleep = lambda _delay: frontend.flush()
        session.begin()
        session.commit(write_set={"a"})
        session.begin()
        session.commit(write_set={"b"})
        assert session.overload_retries == 1
        assert session.backoff_seconds == pytest.approx(0.001)
        frontend.flush()
        assert session.commits == 2

    def test_policy_exhausted_reraises_and_txn_stays_open(self):
        frontend = OracleFrontend(
            make_oracle("wsi"), max_batch=100, max_queue_depth=1
        )
        from repro.server.session import ClientSession

        session = ClientSession(
            frontend, retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001)
        )
        session.begin()
        session.commit(write_set={"a"})
        ts = session.begin()
        with pytest.raises(Overloaded):
            session.commit(write_set={"b"})
        assert session.open_count == 1  # still retryable elsewhere
        frontend.flush()
        future = session.commit(write_set={"b"}, start_ts=ts)
        frontend.flush()
        assert future.outcome() == "committed"
