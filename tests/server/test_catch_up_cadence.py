"""CatchUpCadence: clock-driven warm-standby poll scheduling.

PR 6 drove standby catch-up from a commit-count modulus, which couples
the poll rate to throughput (an idle deployment never polls, so the
takeover delta grows unbounded in *time*).  The cadence is a time
policy over an injected clock — wall clock in a deployment, the
simulator's clock in a simulation, a manual counter here — consulted by
:class:`~repro.server.ha.ReplicatedFrontend` on its submit and
``flush`` paths (a :class:`~repro.server.ha.ReplicatedOracleFacade`
commit takes both).
"""

import pytest

from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade
from repro.server.ha import CatchUpCadence


def req(start, writes=(), reads=()):
    return CommitRequest(start, write_set=frozenset(writes), read_set=frozenset(reads))


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt=1.0):
        self.now += dt


class TestCadencePolicy:
    @pytest.mark.parametrize("interval", [0, -1, -0.5])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="interval"):
            CatchUpCadence(interval, ManualClock())

    def test_not_due_before_interval(self):
        clock = ManualClock()
        cadence = CatchUpCadence(5.0, clock)
        assert not cadence.due()
        clock.tick(4.9)
        assert not cadence.due()

    def test_due_at_interval_then_rearms(self):
        clock = ManualClock()
        cadence = CatchUpCadence(5.0, clock)
        clock.tick(5.0)
        assert cadence.due()
        # Approving a poll consumes the elapsed interval.
        assert not cadence.due()
        clock.tick(5.0)
        assert cadence.due()

    def test_idle_clock_never_fires(self):
        cadence = CatchUpCadence(1.0, ManualClock())
        for _ in range(10):
            assert not cadence.due()

    def test_one_poll_per_elapsed_interval(self):
        # A long stall yields one (catch-all) poll, not a burst of
        # make-up polls.
        clock = ManualClock()
        cadence = CatchUpCadence(2.0, clock)
        clock.tick(20.0)
        assert cadence.due()
        assert not cadence.due()


class TestReplicatedFrontendCadence:
    def _loaded(self, clock, interval=5.0, commits=20, tick=1.0):
        rf = ReplicatedFrontend(
            num_hosts=2,
            level="wsi",
            warm=True,
            catch_up_interval=interval,
            clock=clock,
        )
        oracle = ReplicatedOracleFacade(rf)
        for i in range(commits):
            clock.tick(tick)
            oracle.commit(req(oracle.begin(), writes={f"row{i}"}))
        return rf

    def test_facade_commits_drive_standby_polls(self):
        clock = ManualClock()
        rf = self._loaded(clock)
        # 20 ticks / interval 5: the cadence came due 4 times on the
        # commit path — the standby tailed without any explicit
        # standby_catch_up() call from the driver.
        standby = next(h for h in rf.hosts if not h.is_active)
        assert standby.standby_records > 0

    def test_takeover_delta_bounded_by_cadence(self):
        clock = ManualClock()
        rf = self._loaded(clock, interval=5.0, commits=40)
        rf.kill_active()
        # The promoted standby replays at most the records of one
        # cadence interval (plus the final unflushed tail).
        assert rf.active_host().recovered_records <= 5 + 1

    def test_idle_clock_means_no_polls(self):
        clock = ManualClock()
        rf = self._loaded(clock, tick=0.0)  # clock never moves
        standby = next(h for h in rf.hosts if not h.is_active)
        assert standby.standby_records == 0

    def test_no_cadence_means_manual_polls_only(self):
        rf = ReplicatedFrontend(num_hosts=2, warm=True)
        oracle = ReplicatedOracleFacade(rf)
        for i in range(10):
            oracle.commit(req(oracle.begin(), writes={f"row{i}"}))
        standby = next(h for h in rf.hosts if not h.is_active)
        assert standby.standby_records == 0
        assert rf.standby_catch_up() > 0

    def test_flush_path_drives_standby_polls(self):
        clock = ManualClock()
        rf = ReplicatedFrontend(
            num_hosts=2,
            max_batch=4,
            warm=True,
            catch_up_interval=5.0,
            clock=clock,
        )
        for i in range(20):
            clock.tick()
            rf.submit_commit(req(rf.begin(), writes={f"row{i}"}))
            rf.flush()
        standby = next(h for h in rf.hosts if not h.is_active)
        assert standby.standby_records > 0
        # ... and the tier still decides correctly across a failover.
        rf.kill_active()
        future = rf.submit_commit(req(rf.begin(), writes={"after"}))
        rf.flush()
        assert future.outcome() == "committed"
