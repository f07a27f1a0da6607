"""Integration tests for status-oracle failover (Appendix A + election).

The replicated tier driven the way a synchronous client drives it:
through :class:`~repro.server.ha.ReplicatedOracleFacade`, whose every
returned decision is already durable, with the election, takeover and
accounting read off :class:`~repro.server.ha.ReplicatedFrontend`.
"""

from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


def replicated(**kwargs):
    """A replica set and the synchronous facade over it."""
    rf = ReplicatedFrontend(**kwargs)
    return rf, ReplicatedOracleFacade(rf)


class TestSteadyState:
    def test_first_host_serves(self):
        rf, _ = replicated(num_hosts=3)
        assert rf.active_host().host_id == 0

    def test_commits_flow_through_leader(self):
        _, oracle = replicated(num_hosts=2)
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes={"x"}))
        assert result.committed

    def test_single_host_set(self):
        rf, _ = replicated(num_hosts=1)
        assert rf.active_host().host_id == 0


class TestFailover:
    def test_next_host_takes_over(self):
        rf, _ = replicated(num_hosts=3)
        rf.kill_active()
        assert rf.active_host().host_id == 1
        rf.kill_active()
        assert rf.active_host().host_id == 2

    def test_crashed_standby_is_never_elected(self):
        # A standby that died before the leader left the election with
        # its session: the next live candidate takes over, state intact.
        rf, oracle = replicated(num_hosts=3)
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes={"a"}))
        rf.hosts[1].crash()
        rf.kill_active()
        host = rf.active_host()
        assert host.host_id == 2
        assert host.oracle.commit_table.commit_timestamp(ts) == result.commit_ts
        assert oracle.commit(req(oracle.begin(), writes={"b"})).committed

    def test_conflict_state_survives_failover(self):
        # engine pinned: asserts the oracle's WSI rw-conflict outcome.
        rf, oracle = replicated(num_hosts=2, engine="oracle")
        stale = oracle.begin()
        writer = oracle.begin()
        assert oracle.commit(req(writer, writes={"x"})).committed
        rf.kill_active()
        result = oracle.commit(req(stale, writes={"y"}, reads={"x"}))
        assert not result.committed
        assert result.reason == "rw-conflict"

    def test_commit_table_survives_failover(self):
        rf, oracle = replicated(num_hosts=2)
        ts = oracle.begin()
        result = oracle.commit(req(ts, writes={"a"}))
        rf.kill_active()
        table = rf.active_host().oracle.commit_table
        assert table.commit_timestamp(ts) == result.commit_ts

    def test_timestamps_never_reissued_across_failovers(self):
        rf, oracle = replicated(num_hosts=3)
        seen = set()
        for round_no in range(3):
            for _ in range(5):
                ts = oracle.begin()
                assert ts not in seen
                seen.add(ts)
                result = oracle.commit(req(ts, writes={f"r{ts}"}))
                if result.commit_ts is not None:
                    assert result.commit_ts not in seen
                    seen.add(result.commit_ts)
            if round_no < 2:
                rf.kill_active()

    def test_failover_counter(self):
        rf, _ = replicated(num_hosts=3)
        rf.kill_active()
        rf.kill_active()
        assert rf.failovers == 2
        assert sum(host.session.alive for host in rf.hosts) == 1


class TestRecoveredServiceContinuity:
    def test_traffic_continues_after_failover(self):
        # engine pinned: the last_commit probes are oracle white-box.
        rf, oracle = replicated(num_hosts=2, level="wsi", engine="oracle")
        for i in range(10):
            ts = oracle.begin()
            assert oracle.commit(req(ts, writes={f"row{i}"})).committed
        rf.kill_active()
        for i in range(10, 20):
            ts = oracle.begin()
            assert oracle.commit(req(ts, writes={f"row{i}"})).committed
        leader = rf.active_host().oracle
        # full lastCommit coverage: pre- and post-failover writes
        assert leader.last_commit("row0") is not None
        assert leader.last_commit("row19") is not None

    def test_si_replica_set(self):
        rf, oracle = replicated(num_hosts=2, level="si")
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"})).committed
        rf.kill_active()
        assert not oracle.commit(req(t2, writes={"x"})).committed  # ww-conflict


class TestSingleReplayPass:
    """Regression: cold takeover used to replay the WAL twice — once
    just to count records, once to apply them — doubling exactly the
    recovery cost failover cares about.  ``recover_from`` now applies
    and counts in one pass.
    """

    def test_cold_takeover_replays_exactly_once(self):
        rf, oracle = replicated(num_hosts=2, level="wsi", warm=False)
        for i in range(20):
            assert oracle.commit(req(oracle.begin(), writes={f"row{i}"})).committed
        calls = []
        real_replay = rf.wal.replay

        def counting_replay(*args, **kwargs):
            calls.append(1)
            return real_replay(*args, **kwargs)

        rf.wal.replay = counting_replay
        rf.kill_active()
        host = rf.active_host()
        assert len(calls) == 1
        assert host.recovered_records == sum(1 for _ in real_replay())

    def test_recovered_records_matches_durable_log(self):
        rf, oracle = replicated(num_hosts=3, level="wsi", warm=False)
        for i in range(7):
            assert oracle.commit(req(oracle.begin(), writes={f"r{i}"})).committed
        rf.kill_active()
        host = rf.active_host()
        assert host.recovered_records == sum(1 for _ in rf.wal.replay())
