"""Every lint pass catches its fixture's violations at exact locations.

Fixtures under ``fixtures/`` mark each planted violation with an
``# EXPECT: <pass>`` comment; the tests derive the expected line
numbers from those markers so the assertion is location-exact without
hard-coded line numbers going stale.
"""

import os
import re
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.lint import ALL_PASSES, lint_file, lint_source, lint_tree

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CASES = {
    "no-builtin-hash": "hash_routing.py",
    "deterministic-protocol": "nondeterministic.py",
    "guarded-by": "unguarded.py",
    "future-discipline": "future_settle.py",
    "no-bare-assert": "bare_assert.py",
    "no-gc-tuning": "gc_tuning.py",
}

_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([\w-]+)")


def expected_lines(path, pass_name):
    lines = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            m = _EXPECT_RE.search(line)
            if m and m.group(1) == pass_name:
                lines.append(lineno)
    return lines


def test_every_pass_has_a_fixture():
    assert sorted(CASES) == sorted(p.name for p in ALL_PASSES)


@pytest.mark.parametrize("pass_name", sorted(CASES))
def test_pass_catches_fixture_violations_at_exact_lines(pass_name):
    path = os.path.join(FIXTURES, CASES[pass_name])
    findings = lint_file(path, passes=[pass_name])
    want = expected_lines(path, pass_name)
    assert want, "fixture must mark at least one EXPECT line"
    assert [f.line for f in findings] == want
    assert all(f.pass_name == pass_name for f in findings)


@pytest.mark.parametrize("pass_name", sorted(CASES))
def test_fixture_trips_only_its_own_pass(pass_name):
    # All passes over one fixture find nothing beyond its own markers:
    # the suppressed/exempt/allowed lines in each fixture prove skips,
    # __hash__ exemption, and the allowed time APIs all hold.
    path = os.path.join(FIXTURES, CASES[pass_name])
    findings = lint_file(path)
    want = {(line, pass_name) for line in expected_lines(path, pass_name)}
    assert {(f.line, f.pass_name) for f in findings} == want


def test_src_tree_is_clean():
    # The acceptance bar: the shipped tree passes its own linter.
    assert lint_tree() == []


def test_deterministic_protocol_is_scoped_to_decision_paths(tmp_path):
    source = "import time\n\n\ndef f():\n    return time.time()\n"
    for sub in ("core", "server"):
        pkg = tmp_path / sub
        pkg.mkdir()
        (pkg / "mod.py").write_text(source)
    findings = lint_tree(str(tmp_path))
    assert [os.path.relpath(f.path, tmp_path) for f in findings] == [
        os.path.join("core", "mod.py")
    ]
    assert findings[0].pass_name == "deterministic-protocol"


def test_no_gc_tuning_is_scoped_to_the_serving_packages(tmp_path):
    source = "import gc\n\n\ndef f():\n    gc.collect()\n"
    serving = ("core", "server", "wal", "coord", "percolator", "ssi", "mvcc")
    for sub in serving + ("bench", "analysis"):
        pkg = tmp_path / sub
        pkg.mkdir()
        (pkg / "mod.py").write_text(source)
    findings = lint_tree(str(tmp_path))
    assert {f.pass_name for f in findings} == {"no-gc-tuning"}
    assert sorted(os.path.relpath(f.path, tmp_path) for f in findings) == sorted(
        os.path.join(sub, "mod.py") for sub in serving
    )


def test_explicit_guard_declaration_form():
    source = textwrap.dedent(
        """\
        import threading

        _LOCKS = [threading.Lock()]
        # guarded-by: _table -> _LOCKS


        class Shard:
            def __init__(self):
                self._table = {}  # lint: skip=guarded-by -- init, unshared

            def good(self, key, value):
                lock = _LOCKS[0]
                with lock:
                    self._table[key] = value

            def bad(self, key, value):
                self._table[key] = value
        """
    )
    findings = lint_source(source, passes=["guarded-by"])
    bad_line = source.splitlines().index("        self._table[key] = value") + 1
    assert [(f.line, f.pass_name) for f in findings] == [(bad_line, "guarded-by")]


def test_skip_comment_above_multiline_statement():
    source = (
        "def settle(future, outcome):\n"
        "    # lint: skip=future-discipline -- reviewed settle site\n"
        "    future._result = make_result(\n"
        "        outcome,\n"
        "    )\n"
    )
    assert lint_source(source, passes=["future-discipline"]) == []


def test_cli_exit_codes_and_output():
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    dirty = os.path.join(FIXTURES, "bare_assert.py")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", dirty],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "[no-bare-assert]" in proc.stdout

    clean = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), "core", "errors.py")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", clean],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "clean" in proc.stdout
