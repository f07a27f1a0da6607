"""HA serving-tier tests: warm-standby failover, durable futures, retries.

The tentpole invariants:

* a client future resolves at *durability* (WAL sync), never merely at
  batch flush — and never stays a permanent ``DecisionPending``;
* crash-the-leader-mid-open-batch: the unacked batch dies with the
  host, its requests are resubmitted against the next leader with their
  **original start timestamps**, and re-decide identically when no new
  begins interleave;
* requests whose decision reached a ledger quorum settle before any
  failover and are never retried (no double-decide);
* no timestamp — start or commit — is ever reused across any number of
  failovers;
* warm standbys take over in O(delta), cold hosts replay everything.
"""

import pytest

from repro.core.errors import ConflictAbort, DecisionPending, OracleClosed, Overloaded
from repro.core.isolation import create_system
from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, RetryPolicy


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


class TestSteadyState:
    def test_future_resolves_at_durability_not_flush(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        future = rf.submit_commit(req(rf.begin(), writes={"a"}))
        rf.active_frontend.flush()  # decided...
        assert not future.done  # ...but the group record is not durable
        rf.wal.flush()
        assert future.done and future.outcome() == "committed"
        assert rf.inflight_count == 0

    def test_flush_is_the_durability_barrier(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        futures = [
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"})) for i in range(5)
        ]
        futures.append(rf.submit_abort(rf.begin()))
        rf.flush()
        assert all(f.done for f in futures)
        assert [f.outcome() for f in futures[:5]] == ["committed"] * 5
        assert futures[5].outcome() == "aborted"

    def test_read_only_fast_path_resolves_immediately(self):
        rf = ReplicatedFrontend(num_hosts=2)
        future = rf.submit_commit(req(rf.begin()))
        assert future.done and future.outcome() == "read-only"
        assert rf.inflight_count == 0

    def test_count_trigger_that_syncs_wal_settles_inline(self):
        # 32 decisions = 1 KB: the 32nd submit flushes the batch AND the
        # WAL inside the submit call — the settle/submit race the entry
        # registration must win.
        rf = ReplicatedFrontend(num_hosts=2, max_batch=32)
        futures = [
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"})) for i in range(32)
        ]
        assert all(f.done for f in futures)
        assert rf.inflight_count == 0

    def test_session_runs_unchanged_over_replicated_tier(self):
        rf = ReplicatedFrontend(num_hosts=2)
        session = rf.session(name="ha-client")
        for i in range(6):
            session.begin()
            session.commit(write_set={f"k{i}"})
        rf.flush()
        assert session.commits == 6
        assert session.decided == session.submitted == 6

    def test_decision_error_settles_at_flush_not_retried(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        ts = rf.begin()
        committed = rf.submit_commit(req(ts, writes={"x"}))
        rf.flush()
        assert committed.outcome() == "committed"
        # aborting an already-committed transaction is a permanent
        # decision error: settle now, retrying would re-raise it
        bad = rf.submit_abort(ts)
        rf.active_frontend.flush()
        assert bad.done and bad.outcome() == "error"
        assert rf.inflight_count == 0

    def test_closed_tier_refuses_traffic(self):
        rf = ReplicatedFrontend(num_hosts=1)
        rf.close()
        assert rf.closed
        with pytest.raises(OracleClosed):
            rf.begin()
        with pytest.raises(OracleClosed):
            rf.submit_commit(req(1, writes={"x"}))

    def test_invalid_host_count(self):
        with pytest.raises(ValueError):
            ReplicatedFrontend(num_hosts=0)


class TestCrashMidOpenBatch:
    def test_open_batch_requests_survive_via_retry(self):
        # engine pinned: the last_commit probe is oracle white-box
        # (TestEngineParameter covers retry durability per protocol).
        rf = ReplicatedFrontend(num_hosts=3, max_batch=100, engine="oracle")
        f1 = rf.submit_commit(req(rf.begin(), writes={"x"}))
        f2 = rf.submit_commit(req(rf.begin(), writes={"y"}))
        assert not f1.done and not f2.done
        rf.kill_active()
        assert rf.retried_requests == 2
        assert f1.retries == 1 and f2.retries == 1
        rf.flush()
        assert f1.outcome() == "committed" and f2.outcome() == "committed"
        # the retried decisions are durable on the *new* leader
        oracle = rf.active_host().oracle
        assert oracle.last_commit("x") is not None
        assert oracle.last_commit("y") is not None

    def test_no_permanent_decision_pending(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        futures = [
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"})) for i in range(7)
        ]
        rf.kill_active()
        rf.flush()
        for future in futures:
            future.outcome()  # never raises DecisionPending

    def test_flushed_but_unsynced_batch_is_retried(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        future = rf.submit_commit(req(rf.begin(), writes={"x"}))
        rf.active_frontend.flush()  # decided; record buffered in the WAL
        assert not future.done
        rf.kill_active()  # drop_pending eats the record
        assert rf.retried_requests == 1
        rf.flush()
        assert future.outcome() == "committed"

    def test_durable_requests_never_retried(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        future = rf.submit_commit(req(rf.begin(), writes={"x"}))
        rf.flush()  # durable: settled now
        assert future.done
        before = future.commit_ts
        rf.kill_active()
        assert rf.retried_requests == 0
        assert future.commit_ts == before
        # exactly one commit for the row across both oracles' history
        assert rf.active_host().oracle.commit_table.is_committed(future.start_ts)

    def test_retried_requests_re_decide_identically(self):
        # All begins precede all decisions, so the conflict comparisons
        # are order-determined and the retry must reproduce the victim's
        # (never-durable) decisions exactly.  WSI semantics: pin the
        # engine so the rw-conflict abort holds under the axis.
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100, engine="oracle")
        t1, t2, t3 = rf.begin(), rf.begin(), rf.begin()
        f1 = rf.submit_commit(req(t1, writes={"x"}))
        f2 = rf.submit_commit(req(t2, writes={"y"}, reads={"x"}))  # rw-conflict
        f3 = rf.submit_commit(req(t3, writes={"z"}))
        rf.active_frontend.flush()  # victim decides; nothing durable
        rf.kill_active()
        rf.flush()
        assert f1.outcome() == "committed"
        assert f2.outcome() == "aborted"
        assert f2.result().reason == "rw-conflict"
        assert f3.outcome() == "committed"

    def test_crashed_requests_counted_on_victim(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100)
        rf.submit_commit(req(rf.begin(), writes={"x"}))
        victim_frontend = rf.active_frontend
        rf.kill_active()
        assert victim_frontend.stats.crashed_requests == 1


class TestNoTimestampReuse:
    def test_begins_unique_across_failovers(self):
        rf = ReplicatedFrontend(num_hosts=3, max_batch=4)
        seen = set()
        for round_no in range(3):
            for i in range(6):
                ts = rf.begin()
                assert ts not in seen
                seen.add(ts)
                rf.submit_commit(req(ts, writes={f"r{round_no}-{i}"}))
            if round_no < 2:
                rf.kill_active()  # open remainder + unsynced records retried
        rf.flush()

    def test_commit_timestamps_unique_across_failovers(self):
        rf = ReplicatedFrontend(num_hosts=3, max_batch=100)
        all_ts = set()
        futures = []
        for round_no in range(3):
            for i in range(5):
                ts = rf.begin()
                assert ts not in all_ts
                all_ts.add(ts)
                futures.append(rf.submit_commit(req(ts, writes={f"w{round_no}-{i}"})))
            if round_no < 2:
                rf.kill_active()
        rf.flush()
        for future in futures:
            assert future.outcome() == "committed"
            assert future.commit_ts not in all_ts
            all_ts.add(future.commit_ts)


class TestWarmStandby:
    def _load(self, rf, n, tag):
        for i in range(n):
            rf.submit_commit(req(rf.begin(), writes={f"{tag}{i}"}))
        rf.flush()

    def test_warm_takeover_applies_only_the_delta(self):
        # engine pinned: last_commit probes are oracle white-box.
        rf = ReplicatedFrontend(
            num_hosts=2, warm=True, max_batch=4, engine="oracle"
        )
        self._load(rf, 12, "pre")
        caught_up = rf.standby_catch_up()
        assert caught_up > 0
        self._load(rf, 4, "post")  # durable but not yet tailed
        rf.kill_active()
        host = rf.active_host()
        assert host.standby_records == caught_up
        assert 0 < host.recovered_records < caught_up + host.recovered_records
        rf.flush()
        oracle = host.oracle
        assert oracle.last_commit("pre0") is not None
        assert oracle.last_commit("post3") is not None

    def test_cold_takeover_replays_everything(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=False, max_batch=4)
        self._load(rf, 12, "pre")
        assert rf.standby_catch_up() == 0  # cold hosts have no tail
        rf.kill_active()
        host = rf.active_host()
        assert host.standby_records == 0
        assert host.recovered_records == sum(1 for _ in rf.wal.replay())

    def test_standby_lag_visible(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=True, max_batch=4)
        standby = rf.hosts[1]
        self._load(rf, 8, "a")
        assert standby.standby_lag > 0
        rf.standby_catch_up()
        assert standby.standby_lag == 0

    def test_warm_and_cold_recover_identical_state(self):
        rows = {}
        oracles = {}
        for warm in (True, False):
            # engine pinned: last_commit probes are oracle white-box.
            rf = ReplicatedFrontend(
                num_hosts=2, warm=warm, max_batch=4, engine="oracle"
            )
            futures = []
            for i in range(10):
                futures.append(rf.submit_commit(req(rf.begin(), writes={f"r{i}"})))
            rf.flush()
            if warm:
                rf.standby_catch_up()
            rf.kill_active()
            oracle = rf.active_host().oracle
            rows[warm] = {f"r{i}": oracle.last_commit(f"r{i}") for i in range(10)}
            oracles[warm] = oracle
        assert rows[True] == rows[False]
        # both takeovers seal the TSO above everything durable
        assert oracles[True].begin() > max(rows[True].values())
        assert oracles[False].begin() > max(rows[False].values())


class TestRetryPolicy:
    def test_retry_budget_exhausted_fails_the_future(self):
        rf = ReplicatedFrontend(
            num_hosts=3,
            max_batch=100,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        future = rf.submit_commit(req(rf.begin(), writes={"x"}))
        rf.kill_active()  # attempt 2 (the retry)
        assert not future.done
        rf.kill_active()  # budget spent: fail, don't resubmit
        assert future.done and future.outcome() == "error"
        assert isinstance(future.error, OracleClosed)
        assert rf.failed_after_retries == 1
        assert rf.inflight_count == 0

    def test_backoff_accounted_per_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0)
        slept = []
        rf = ReplicatedFrontend(
            num_hosts=3, max_batch=100, retry_policy=policy, sleep=slept.append
        )
        rf.submit_commit(req(rf.begin(), writes={"x"}))
        rf.kill_active()
        assert slept == [policy.delay_for(1)]
        rf.kill_active()
        assert slept == [policy.delay_for(1), policy.delay_for(2)]
        assert rf.backoff_seconds == pytest.approx(sum(slept))

    def test_all_hosts_down_fails_inflight(self):
        rf = ReplicatedFrontend(num_hosts=1, max_batch=100)
        future = rf.submit_commit(req(rf.begin(), writes={"x"}))
        rf.kill_active()
        assert future.done and isinstance(future.error, OracleClosed)
        assert rf.failed_after_retries == 1
        with pytest.raises(OracleClosed):
            rf.begin()


class TestAdmissionControl:
    def test_overload_propagates_to_clients(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100, max_queue_depth=2)
        rf.submit_commit(req(rf.begin(), writes={"a"}))
        rf.submit_commit(req(rf.begin(), writes={"b"}))
        ts = rf.begin()
        with pytest.raises(Overloaded) as excinfo:
            rf.submit_commit(req(ts, writes={"c"}))
        assert excinfo.value.limit == 2
        assert rf.inflight_count == 2  # the shed request never registered
        rf.flush()
        # drained: the shed request's timestamp is still usable
        assert rf.submit_commit(req(ts, writes={"c"})) is not None

    def test_session_retry_policy_rides_out_overload(self):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=100, max_queue_depth=1)
        session = rf.session(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.001),
            sleep=lambda _delay: rf.flush(),  # a backoff drains the tier
        )
        session.begin()
        session.commit(write_set={"a"})
        session.begin()
        session.commit(write_set={"b"})  # shed once, then admitted
        assert session.overload_retries == 1
        assert session.backoff_seconds > 0
        rf.flush()
        assert session.commits == 2


class TestCommitStatusAcrossFailover:
    """``ReplicatedOracleFacade.commit_status`` under the snapshot-read
    kernel: one ``commit_timestamp`` probe per version, answered by the
    commit table of whoever leads *now* — a reader that kept a table's
    probe from before the failover would miss every later commit."""

    def test_aborted_has_no_commit_timestamp(self):
        system = create_system("wsi", replicated=3)
        status = system.oracle.commit_status
        loser, winner = system.manager.begin(), system.manager.begin()
        loser.read("x")
        winner.write("x", "w")
        loser.write("y", "l")
        winner.commit()
        with pytest.raises(ConflictAbort):
            loser.commit()
        assert status.is_aborted(loser.start_ts)
        assert status.commit_timestamp(loser.start_ts) is None
        assert status.commit_timestamp(winner.start_ts) == winner.commit_ts
        assert status.commit_timestamp(loser.start_ts + 1_000) is None  # unknown

    def test_read_after_failover_sees_the_new_leaders_commit(self):
        system = create_system("wsi", replicated=3)
        manager = system.manager  # its reader is built once, up front
        with manager.begin() as txn:
            txn.write("row", "old leader")
        assert manager.begin().read("row") == "old leader"  # probe exercised
        old_table = system.frontend.active_host().oracle.commit_table

        system.frontend.kill_active()
        with manager.begin() as txn:
            txn.write("row", "new leader")
        new_table = system.frontend.active_host().oracle.commit_table
        assert new_table is not old_table
        assert old_table.commit_timestamp(txn.start_ts) is None  # dead host
        assert manager.begin().read("row") == "new leader"
        assert manager.reader.read("row", txn.commit_ts + 1).timestamp == txn.start_ts


class TestEngineParameter:
    """The replicated tier is protocol-agnostic: every CommitEngine
    kind serves behind it with the same durability/failover story."""

    @pytest.fixture(params=["oracle", "percolator", "ssi"])
    def kind(self, request):
        return request.param

    def test_conflicting_pair_decides_per_protocol(self, kind):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=8, engine=kind)
        winner = rf.submit_commit(req(rf.begin(), writes={"x"}))
        loser = rf.submit_commit(req(rf.begin(), writes={"x"}, reads={"x"}))
        rf.flush()
        assert winner.outcome() == "committed"
        assert loser.outcome() == "aborted"

    def test_failover_preserves_decisions(self, kind):
        rf = ReplicatedFrontend(num_hosts=2, max_batch=8, engine=kind)
        future = rf.submit_commit(req(rf.begin(), writes={"a"}))
        rf.flush()
        start = future.start_ts
        rf.kill_active()
        # The promoted host replayed the shared WAL through the
        # engine's own recovery hooks: the decision survives, and the
        # tier keeps serving.
        oracle = rf.active_host().frontend.backend
        assert oracle.commit_table.is_committed(start)
        after = rf.submit_commit(req(rf.begin(), writes={"b"}))
        rf.flush()
        assert after.outcome() == "committed"

    def test_no_timestamp_reuse_across_failover(self, kind):
        rf = ReplicatedFrontend(num_hosts=3, max_batch=4, engine=kind)
        seen = set()
        for i in range(6):
            ts = rf.begin()
            assert ts not in seen
            seen.add(ts)
            rf.submit_commit(req(ts, writes={f"r{i}"}))
        rf.flush()
        rf.kill_active()
        for i in range(6):
            ts = rf.begin()
            assert ts not in seen
            seen.add(ts)
