"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them honest
as the library evolves.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv=None, monkeypatch=None):
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    if monkeypatch is not None and argv is not None:
        monkeypatch.setattr(sys, "argv", [str(path)] + argv)
    return runpy.run_path(str(path), run_name="__main__")


class TestExamplesRun:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "conflict detected as expected" in out
        assert "oracle stats" in out

    def test_bank_write_skew(self, capsys):
        run_example("bank_write_skew.py")
        out = capsys.readouterr().out
        assert "VIOLATED" in out  # SI loses money
        assert "constraint OK" in out  # WSI does not

    def test_history_explorer_default(self, capsys, monkeypatch):
        run_example("history_explorer.py", argv=[], monkeypatch=monkeypatch)
        out = capsys.readouterr().out
        for name in ("H1", "H4", "H7"):
            assert f"\n{name}:" in out

    def test_history_explorer_custom_history(self, capsys, monkeypatch):
        run_example(
            "history_explorer.py",
            argv=["r1[x] w2[x] c2 c1"],
            monkeypatch=monkeypatch,
        )
        out = capsys.readouterr().out
        assert "serializable" in out

    def test_percolator_outage(self, capsys):
        run_example("percolator_outage.py")
        out = capsys.readouterr().out
        assert "CRASHED" in out
        assert "lock-free" in out.lower() or "Lock-free" in out

    def test_group_commit(self, capsys):
        run_example("group_commit.py")
        out = capsys.readouterr().out
        assert "1 group-commit WAL record" in out
        assert "shadow unbatched oracle agrees on every decision" in out
        assert "exactly the durable prefix" in out

    def test_oracle_failover(self, capsys):
        run_example("oracle_failover.py")
        out = capsys.readouterr().out
        assert "conflict state survived the failover" in out
        assert "total failovers: 2" in out

    def test_ha_serving(self, capsys):
        # The one example that builds OracleFrontend through
        # ReplicatedFrontend (every host's frontend over its engine).
        run_example("ha_serving.py")
        out = capsys.readouterr().out
        assert "all committed" in out
        assert "no timestamp reused, no request stranded, queue bounded." in out

    def test_ycsb_cluster_single_point(self, capsys):
        # import the example as a module and drive one cheap data point
        # instead of its full main() (which runs three distributions).
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "ycsb_cluster_example", EXAMPLES_DIR / "ycsb_cluster.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.run("uniform", [10], measure=1.5)
        out = capsys.readouterr().out
        assert "uniform distribution" in out
        assert "WSI TPS" in out
