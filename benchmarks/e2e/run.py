#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the serving stack.

    python3 benchmarks/e2e/run.py --workload ycsb-uniform --seed 1 \\
        --seconds 9 --trace 0          # one workload, end-to-end metrics
    python3 benchmarks/e2e/run.py --workload ycsb-uniform --trace 1
                                       # ... its per-layer time budget
    python3 benchmarks/e2e/run.py --trace 1 --out A.json
                                       # every workload, both tables
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  Without it every workload runs in a process
of its own (``peak_rss_mb`` is per process) and the tables are printed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"

#: Per-layer metrics that are counts of a deterministic run: ``--compare``
#: requires them to repeat exactly (timings are judged by their bounds).
EXACT_COUNTS = (
    "abort_rate", "frontend.avg_batch", "frontend.flushes_forced",
    "engine.rows_checked_per_op", "engine.rows_updated_per_op",
    "engine.lastcommit_rows", "engine.commit_table_entries",
    "partitioned.cross_fraction", "partitioned.rounds_per_flush",
    "wal.records", "wal.ledger_entries", "wal.bytes_per_op",
    "ha.retried_requests", "mvcc.versions",
)

#: ``--smoke``: sizes for the tier-1 test — every code path still runs.
SMOKE_OPS = 2_000
SMOKE_KEYSPACE = 5_000


def load_harness():
    """Import the benchmark package against *this checkout's* ``src/``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT} holds no src/repro to benchmark")
    for entry in (str(HERE), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from e2ebench import driver, workloads

    return driver, workloads


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "commit": commit,
    }


def run_one(args) -> dict:
    """Measure one workload in this process; returns the full record."""
    driver, workloads = load_harness()
    spec = json.loads(SPEC_PATH.read_text())
    workload = workloads.WORKLOADS[args.workload]
    repetitions = driver.REPETITIONS
    if args.smoke:
        workload = replace(
            workload, pool_size=SMOKE_OPS,
            keyspace=min(workload.keyspace, SMOKE_KEYSPACE),
        )
        ops, repetitions = SMOKE_OPS, 1
    else:
        ops = int(workload.ops_per_second * args.seconds / repetitions)
    with driver.pinned_environment():
        if args.trace:
            result = driver.run_traced(workload, args.seed, ops)
        else:
            result = driver.run_untraced(workload, args.seed, ops, repetitions)

    problems, failed = list(result.problems), result.failed
    expected = json.loads(EXPECTED_PATH.read_text())
    pinned = expected["crc"].get(args.workload)
    # The default inputs' decisions are pinned: a later change that
    # alters any of them fails the run.  Other seeds and sizes are only
    # checked for agreeing with themselves.
    if (not args.smoke and pinned is not None and args.seed == expected["seed"]
            and ops == pinned["ops"] and result.crc != pinned["crc"]):
        problems.append(
            f"decision CRC {result.crc:#010x} differs from the pinned "
            f"{pinned['crc']:#010x}"
        )
        failed += 1
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        sys.exit(f"metrics named in BENCHMARK.json but not measured: {missing}")

    print(f"# {args.workload}: seed {args.seed}, {ops} ops per repetition, "
          f"decision CRC {result.crc:#010x}")
    for name, unit in units.items():
        value = result.metrics[name]
        spread = ""
        if name in result.ranges:
            low, high = result.ranges[name]
            spread = f"   (min {low:.6g}, max {high:.6g})"
        print(f"{name:34s} {value:14.6g} {unit}{spread}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "ops": ops,
        "trace": args.trace, "crc": result.crc, "problems": problems,
        "fingerprint": fingerprint(),
        "result": {
            "correct": not problems,
            "attempted": result.attempted,
            "failed": failed,
            "metrics": {
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }
    return record


def run_all(args) -> int:
    """Every workload, each in a process of its own; prints the tables."""
    spec = json.loads(SPEC_PATH.read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    suite = {"seed": args.seed, "seconds": args.seconds, "runs": []}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in range(args.trace + 1):
            if args.smoke:
                # In-process: at this size peak RSS means nothing and
                # interpreter start-up would be most of the run.
                record = run_one(argparse.Namespace(
                    **{**vars(args), "workload": workload, "trace": trace}
                ))
            else:
                record_path = out_dir / f"result-{workload}-trace{trace}.json"
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", str(record_path)],
                    capture_output=True, text=True,
                )
                if done.returncode != 0:
                    sys.exit(done.stdout + done.stderr)
                # The child's table, without its machine-readable last line.
                print(done.stdout.rsplit("\n", 2)[0])
                record = json.loads(record_path.read_text())
            suite["fingerprint"] = record.pop("fingerprint")
            suite["runs"].append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=1))
    return 0 if all(run["result"]["correct"] for run in suite["runs"]) else 1


def compare(path_a: str, path_b: str) -> int:
    """B against A: every end-to-end metric within its bound, every
    count exact.  Exits non-zero on any breach."""
    spec = json.loads(SPEC_PATH.read_text())
    suites = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    runs = [
        {(r["workload"], r["trace"]): r for r in suite["runs"]} for suite in suites
    ]
    breaches = 0
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B vs A':>8s} {'bound':>6s}   (+ = B better)")
    for key in sorted(runs[0].keys() & runs[1].keys()):
        a, b = runs[0][key], runs[1][key]
        workload, trace = key
        if a["crc"] != b["crc"] or a["ops"] != b["ops"]:
            print(f"{workload:18s} decisions differ: CRC {a['crc']:#010x} over "
                  f"{a['ops']} ops vs {b['crc']:#010x} over {b['ops']}  BREACH")
            breaches += 1
        for side in (a, b):
            if not side["result"]["correct"]:
                print(f"{workload:18s} failed its own checks: {side['problems']}"
                      "  BREACH")
                breaches += 1
        if trace:
            for name in EXACT_COUNTS:
                va = a["result"]["metrics"][name]["value"]
                vb = b["result"]["metrics"][name]["value"]
                if va != vb:
                    print(f"{workload:18s} {name:18s} {va:12.6g} {vb:12.6g} "
                          "  count differs  BREACH")
                    breaches += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = a["result"]["metrics"][name]["value"]
            vb = b["result"]["metrics"][name]["value"]
            # positive = B is worse than A
            worse = (va - vb) / va if metric["better"] == "higher" else (vb - va) / va
            breach = worse > metric["bound"]
            breaches += breach
            print(f"{workload:18s} {name:18s} {va:12.6g} {vb:12.6g} "
                  f"{0.0 - worse:+8.1%} {metric['bound']:6.0%}"
                  f"{'  BREACH' if breach else ''}")
    missing = runs[0].keys() ^ runs[1].keys()
    if missing:
        print(f"runs present on one side only: {sorted(missing)}  BREACH")
        breaches += 1
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock budget of the timed loops "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced repetition")
    parser.add_argument("--out", help="also write the full record(s) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files of all-workload runs")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not SPEC_PATH.is_file():
        sys.exit(f"{SPEC_PATH} is missing")
    if args.seconds is None:
        args.seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    record = run_one(args)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
