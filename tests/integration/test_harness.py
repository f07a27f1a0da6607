"""Integration tests for the interleaved execution harness."""

import pytest

from repro.core import create_system
from repro.bench import run_interleaved, run_sequential
from repro.workload import complex_workload, mixed_workload


class TestSequentialBaseline:
    @pytest.mark.parametrize("level", ["si", "wsi"])
    def test_serial_execution_never_aborts(self, level):
        system = create_system(level)
        wl = complex_workload(keyspace=100, seed=1)  # tiny keyspace: max contention
        result = run_sequential(system.manager, wl.batch(300))
        assert result.aborted == 0
        assert result.committed == 300


class TestInterleavedExecution:
    def test_conflicts_arise_under_concurrency(self):
        system = create_system("wsi")
        wl = complex_workload(keyspace=50, seed=2)
        result = run_interleaved(system.manager, wl.batch(500), concurrency=16, seed=3)
        assert result.aborted > 0
        assert result.abort_reasons.get("rw-conflict", 0) == result.aborted

    def test_si_reports_ww_conflicts(self):
        system = create_system("si")
        wl = complex_workload(keyspace=50, seed=2)
        result = run_interleaved(system.manager, wl.batch(500), concurrency=16, seed=3)
        assert result.abort_reasons.get("ww-conflict", 0) == result.aborted

    def test_read_only_transactions_always_commit(self):
        system = create_system("wsi")
        wl = mixed_workload(keyspace=20, seed=4)  # brutal contention
        specs = wl.batch(400)
        result = run_interleaved(system.manager, specs, concurrency=12, seed=5)
        ro_specs = sum(1 for s in specs if s.read_only)
        assert result.read_only_committed == ro_specs  # none aborted

    def test_determinism(self):
        def run():
            system = create_system("wsi")
            wl = complex_workload(keyspace=100, seed=6)
            return run_interleaved(
                system.manager, wl.batch(300), concurrency=8, seed=7
            )

        a, b = run(), run()
        assert (a.committed, a.aborted) == (b.committed, b.aborted)

    def test_result_merge(self):
        from repro.bench import HarnessResult

        a = HarnessResult(committed=5, aborted=1, abort_reasons={"x": 1})
        b = HarnessResult(committed=3, aborted=2, abort_reasons={"x": 1, "y": 1})
        merged = a.merge(b)
        assert merged.committed == 8
        assert merged.aborted == 3
        assert merged.abort_reasons == {"x": 2, "y": 1}
        assert merged.abort_rate == pytest.approx(3 / 11)

    def test_invalid_concurrency(self):
        system = create_system("wsi")
        with pytest.raises(ValueError):
            run_interleaved(system.manager, [], concurrency=0)


class TestCommittedStateConsistency:
    def test_store_reflects_only_committed_writes(self):
        system = create_system("wsi")
        wl = complex_workload(keyspace=30, seed=8)
        run_interleaved(system.manager, wl.batch(400), concurrency=10, seed=9)
        # every value in a fresh snapshot must come from a *committed* txn
        reader = system.manager.begin()
        commit_source = system.manager.commit_source
        for row in range(30):
            version = system.manager.reader.read(row, reader.start_ts)
            if version is not None:
                assert commit_source.commit_timestamp(version.timestamp) is not None


def test_recovery_profile_replays_the_frontend_log(capsys):
    """`make profile`'s recovery leg: a batch-32 log through the real
    frontend, replayed cold and by a warm standby."""
    from repro.bench.harness import profile_recovery

    out = profile_recovery(decisions=640, keyspace=2_000, repeats=1)
    assert out["decisions_per_record"] == 32
    assert out["cold_us_per_decision"] > 0 and out["warm_us_per_decision"] > 0
    assert "640 decisions in 20 decision records" in capsys.readouterr().out
