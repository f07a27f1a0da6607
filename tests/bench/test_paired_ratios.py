"""The one paired-ratio protocol behind every E17–E24 speedup bar,
driven with scripted timed bodies instead of a clock."""

import statistics

from repro.bench.frontend_bench import (
    best_of,
    make_specs,
    paired_ratios,
    run_batched,
    run_unbatched,
)


def _scripted(label, seconds, calls):
    """A timed body that logs each call and reports the next scripted
    elapsed time, with the run's index as its state."""
    times = iter(seconds)

    def run():
        calls.append(label)
        return next(times), len(calls) - 1

    return run


def test_best_of_returns_the_fastest_run_with_its_state():
    calls = []
    assert best_of(_scripted("body", [3.0, 1.0, 2.0], calls), 3) == (1.0, 1)
    assert calls == ["body"] * 3


def test_best_of_keeps_the_first_of_equal_runs():
    assert best_of(_scripted("body", [1.0] * 3, []), 3) == (1.0, 0)


def test_paired_ratios_order_minimum_and_direction():
    calls = []
    baseline = _scripted("base", [4.0, 6.0, 9.0, 5.0, 8.0, 7.0], calls)
    candidate = _scripted("cand", [2.0, 1.0, 2.5, 3.0, 0.5, 4.0], calls)
    ratios = paired_ratios(baseline, candidate, pairs=3, repeats=2)
    # Per pair: every baseline repeat, then every candidate repeat.
    assert calls == ["base", "base", "cand", "cand"] * 3
    # Each side is its best (minimum) run; the ratio is baseline over
    # candidate, so a faster candidate reads above 1.
    assert ratios == [4.0 / 1.0, 5.0 / 2.5, 7.0 / 0.5]
    assert statistics.median(ratios) == 4.0


def test_paired_ratios_returns_one_ratio_per_pair():
    calls = []
    ratios = paired_ratios(
        _scripted("base", [1.0] * 4, calls),
        _scripted("cand", [2.0] * 4, calls),
        pairs=4,
        repeats=1,
    )
    assert ratios == [0.5] * 4
    assert calls == ["base", "cand"] * 4


def test_real_timed_bodies_lead_with_their_elapsed_seconds():
    specs = make_specs(64, keyspace=1_000, seed=1)
    ratios = paired_ratios(
        lambda: run_unbatched("wsi", specs),
        lambda: run_batched("wsi", specs, batch_size=8),
        pairs=2,
        repeats=1,
    )
    assert len(ratios) == 2 and all(r > 0 for r in ratios)
