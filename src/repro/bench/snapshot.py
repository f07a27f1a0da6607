"""Machine-readable benchmark snapshots.

The figure benchmarks print human tables; CI and the ``make
bench-smoke`` gate also want the headline numbers in a stable,
diffable form.  When ``REPRO_BENCH_SNAPSHOT`` names a file, each
benchmark calls :func:`record` with its experiment id and headline
metrics (speedup ratios, throughputs, takeover costs); the calls
merge into one JSON document::

    {
      "e17": {"median_speedup": 4.1, "bar": 3.0},
      ...
      "e22": {"warm_over_cold": 11.2, "overload_sustain": 0.93, ...}
    }

Merging is read-modify-write per call, so it composes across separate
pytest processes appending to the same snapshot file.  Without the
environment variable :func:`record` is a no-op — the benchmarks stay
usable standalone.

Two snapshots exist by convention: ``make bench-smoke`` writes
``BENCH_smoke.json`` (tiny sizes, *committed* — behaviour drift shows
up as a diff), and full ``make bench`` runs write ``BENCH_full.json``
(real figure sizes, uncommitted/.gitignored — the numbers are
hardware-bound, the file is for local before/after comparisons).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

#: Environment variable naming the snapshot file (no-op when unset).
SNAPSHOT_ENV = "REPRO_BENCH_SNAPSHOT"

#: ``REPRO_BENCH_SMOKE=1`` (``make bench-smoke``): the figure benchmarks
#: run at tiny sizes against relaxed bars — a fast perf sanity check,
#: not the acceptance measurement.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def snapshot_path() -> str | None:
    path = os.environ.get(SNAPSHOT_ENV)
    return path or None


def record(experiment: str, **metrics: Any) -> None:
    """Merge one experiment's headline metrics into the snapshot file.

    Values must be JSON-serialisable; floats are rounded to 4 places so
    snapshots diff cleanly run-to-run at equal behaviour.
    """
    path = snapshot_path()
    if path is None:
        return
    document: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (ValueError, OSError):
            document = {}
    entry = document.setdefault(experiment, {})
    for key, value in metrics.items():
        if isinstance(value, float):
            value = round(value, 4)
        entry[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
