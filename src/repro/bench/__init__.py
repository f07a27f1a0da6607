"""Benchmark support: execution harness and reporting helpers.

Public surface:

* :func:`run_interleaved` / :func:`run_sequential` — execute workload
  specs against a real transaction manager with logical concurrency.
* :class:`HarnessResult` — commit/abort accounting.
* :func:`format_table`, :class:`PaperAnchor`, shape predicates
  (:func:`saturates`, :func:`knee_index`, :func:`within_factor`) — used
  by every figure benchmark.
* :func:`collector_share` — the cyclic collector's seconds per
  generation, and the tracked objects left behind, over a timed window.
"""

from repro.bench.frontend_bench import (
    FrontendBenchResult,
    bench_batched,
    bench_unbatched,
    median_speedup,
    paired_decide_speedups,
    paired_speedups,
    profile_frontend,
    speedup,
    sweep_batch_partitions,
    sweep_batch_sizes,
)
from repro.bench.harness import HarnessResult, run_interleaved, run_sequential
from repro.bench.plots import AsciiChart, abort_rate_chart, latency_throughput_chart
from repro.bench.reporting import (
    CollectorShare,
    PaperAnchor,
    collector_share,
    format_table,
    knee_index,
    monotonic_increasing,
    saturates,
    within_factor,
)

__all__ = [
    "run_interleaved",
    "run_sequential",
    "HarnessResult",
    "FrontendBenchResult",
    "bench_unbatched",
    "bench_batched",
    "paired_speedups",
    "paired_decide_speedups",
    "median_speedup",
    "speedup",
    "sweep_batch_sizes",
    "sweep_batch_partitions",
    "profile_frontend",
    "AsciiChart",
    "latency_throughput_chart",
    "abort_rate_chart",
    "PaperAnchor",
    "CollectorShare",
    "collector_share",
    "format_table",
    "saturates",
    "knee_index",
    "monotonic_increasing",
    "within_factor",
]
