"""Warm standbys tail every WAL sync.

:class:`~repro.server.ha.ReplicatedFrontend` polls its standbys' WAL
tails after a submit or ``flush()`` during which the WAL synced — once
the synced batch's futures have settled, so no request waits on standby
work — and never when nothing synced.  A takeover right after a synced
batch then has nothing left to replay.
"""

from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


def standbys(rf):
    return [host for host in rf.hosts if not host.is_active]


def count_polls(rf, seen=None):
    """Wrap the tier's poll on the instance, the way a tracer does; the
    wrapper records what the poll found on the client side."""
    polls = []
    real = rf.standby_catch_up

    def traced():
        polls.append(seen() if seen is not None else None)
        return real()

    rf.standby_catch_up = traced
    return polls


class TestEverySyncIsTailed:
    def test_lag_is_zero_after_a_submit_that_synced(self):
        rf = ReplicatedFrontend(num_hosts=3, warm=True, max_batch=4)
        for i in range(4):  # the 4th submit count-flushes, which syncs
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"}))
        for host in standbys(rf):
            assert host.standby_records > 0
            assert host.standby_lag == 0

    def test_lag_is_zero_after_a_flush_that_synced(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=True, max_batch=100)
        rf.submit_commit(req(rf.begin(), writes={"a"}))
        rf.submit_abort(rf.begin())
        rf.flush()  # a partial batch: synced at its own flush
        (standby,) = standbys(rf)
        assert standby.standby_lag == 0
        assert standby.standby_records > 0

    def test_warm_takeover_after_a_synced_batch_applies_nothing(self):
        # engine pinned: last_commit probes are oracle white-box.
        rf = ReplicatedFrontend(
            num_hosts=2, warm=True, max_batch=4, engine="oracle"
        )
        futures = [
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"})) for i in range(8)
        ]
        assert all(f.done for f in futures)
        rf.kill_active()
        host = rf.active_host()
        assert host.recovered_records == 0
        assert host.standby_records > 0
        for i, future in enumerate(futures):
            assert host.oracle.last_commit(f"r{i}") == future.commit_ts

    def test_surviving_standby_tails_after_a_failover(self):
        rf = ReplicatedFrontend(num_hosts=3, warm=True, max_batch=4)
        for i in range(6):  # one synced batch, two requests left open
            rf.submit_commit(req(rf.begin(), writes={f"r{i}"}))
        rf.kill_active()  # the open two move to host 1
        survivor = rf.hosts[2]
        before = survivor.standby_records
        for i in range(2):  # fills host 1's batch: it syncs
            rf.submit_commit(req(rf.begin(), writes={f"s{i}"}))
        assert survivor.standby_records > before
        assert survivor.standby_lag == 0

    def test_facade_commits_keep_the_standby_caught_up(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=True)
        oracle = ReplicatedOracleFacade(rf)
        for i in range(10):
            assert oracle.commit(req(oracle.begin(), writes={f"row{i}"})).committed
        (standby,) = standbys(rf)
        assert standby.standby_lag == 0
        rf.kill_active()
        assert rf.active_host().recovered_records == 0


class TestPollPlacement:
    def test_nothing_is_polled_when_nothing_synced(self):
        rf = ReplicatedFrontend(num_hosts=3, warm=True, max_batch=100)
        starts = [rf.begin() for _ in range(6)]
        rf.standby_catch_up()  # absorb the begins' reservation sync
        polls = count_polls(rf)
        for i, start in enumerate(starts[:5]):
            rf.submit_commit(req(start, writes={f"r{i}"}))
        rf.submit_commit(req(starts[5]))  # read-only: nothing to persist
        assert polls == []  # the batch is open, nothing synced
        rf.flush()
        assert len(polls) == 1
        rf.flush()  # nothing pending: no sync, no poll
        assert len(polls) == 1

    def test_poll_runs_after_the_synced_batch_settled(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=True, max_batch=4)
        starts = [rf.begin() for _ in range(4)]
        rf.standby_catch_up()
        futures = []
        polls = count_polls(
            rf, seen=lambda: ([f.done for f in futures], rf.inflight_count)
        )
        for i, start in enumerate(starts):
            futures.append(rf.submit_commit(req(start, writes={f"r{i}"})))
        # One poll, after the 4th submit's count flush: by then the
        # synced batch has settled (the three futures already in hand are
        # done; the 4th is on its way back) and the open batch is empty.
        assert polls == [([True] * 3, 0)]
