"""Tier-1 smoke test of the end-to-end benchmark (not ``slow``).

Runs the real command at ``--smoke`` size — every workload, untraced and
traced, ~2 k operations each, all output verification on — under two
``PYTHONHASHSEED`` values, and checks the contract later PRs are judged
by: exactly the workloads and metric names ``BENCHMARK.json`` declares
are emitted, each with its unit, every check passes, and no decision
depends on the hash salt.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_suite(tmp_path, hash_seed, trace):
    out = tmp_path / f"suite-{hash_seed}.json"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env.pop("REPRO_RACECHECK", None)  # refused by the benchmark, on purpose
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", trace,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e")
    # Both tables under one salt; the decisions alone under another.
    return [smoke_suite(tmp_path, "0", "1"), smoke_suite(tmp_path, "1", "0")]


def test_emits_exactly_the_declared_workloads_and_metrics(suites):
    runs = {(run["workload"], run["trace"]): run for run in suites[0]["runs"]}
    declared = [w["name"] for w in SPEC["workloads"]]
    assert sorted(runs) == sorted((w, t) for w in declared for t in (0, 1))
    for (workload, trace), run in runs.items():
        group = SPEC["per_layer" if trace else "end_to_end"]
        metrics = run["result"]["metrics"]
        assert set(metrics) == {m["name"] for m in group}, (workload, trace)
        for m in group:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_every_verification_check_passes(suites):
    for run in suites[0]["runs"]:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0, run["problems"]
        assert result["attempted"] >= 1
        if not run["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_decisions_do_not_depend_on_the_hash_salt(suites):
    first, second = (
        {(run["workload"], run["trace"]): run["crc"] for run in suite["runs"]}
        for suite in suites
    )
    for workload in (w["name"] for w in SPEC["workloads"]):
        assert first[workload, 0] == second[workload, 0]
        # traced and untraced repetitions decide identically, too
        assert first[workload, 0] == first[workload, 1]
