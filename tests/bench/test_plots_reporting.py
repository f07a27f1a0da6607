"""Tests for the reporting helpers and ASCII charts."""

import gc

import pytest

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


class TestFormatTable:
    def test_columns_aligned(self):
        table = format_table(["a", "bb"], [(1, 2), (333, 4)])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_title(self):
        assert format_table(["x"], [(1,)], title="T").startswith("T\n")

    def test_empty_rows(self):
        table = format_table(["col"], [])
        assert "col" in table


class TestShapePredicates:
    def test_saturates_flat_tail(self):
        assert saturates([10, 100, 200, 210])

    def test_no_saturation_while_growing(self):
        assert not saturates([10, 100, 200, 400])

    def test_saturates_needs_points(self):
        assert not saturates([10, 20])

    def test_knee_index(self):
        assert knee_index([100, 200, 220, 225]) == 2
        assert knee_index([1, 2, 4, 8]) == 3  # no knee -> last index

    def test_monotonic_with_slack(self):
        assert monotonic_increasing([1, 2, 1.95, 3], slack=0.05)
        assert not monotonic_increasing([1, 2, 1.0], slack=0.05)

    def test_within_factor(self):
        assert within_factor(100, 150, 1.6)
        assert not within_factor(100, 300, 1.5)
        assert not within_factor(0, 100, 2)


class TestPaperAnchor:
    def test_row_contains_ratio(self):
        anchor = PaperAnchor("throughput", 100.0, 150.0, "TPS")
        assert "x1.50" in anchor.as_row()


class TestAsciiChart:
    def test_render_contains_all_glyphs(self):
        chart = AsciiChart(title="t", xlabel="x", ylabel="y")
        chart.add_series("a", [(0, 0), (10, 10)])
        chart.add_series("b", [(5, 2)])
        out = chart.render()
        assert "*" in out and "o" in out
        assert "* a" in out and "o b" in out

    def test_title_and_axes(self):
        chart = AsciiChart(title="My Figure", xlabel="TPS", ylabel="ms")
        chart.add_series("s", [(1, 1), (100, 50)])
        out = chart.render()
        assert out.startswith("My Figure")
        assert "TPS" in out
        assert "ms" in out

    def test_degenerate_single_point(self):
        chart = AsciiChart()
        chart.add_series("s", [(5, 5)])
        assert chart.render()  # must not divide by zero

    def test_empty_series_rejected(self):
        chart = AsciiChart()
        with pytest.raises(ValueError):
            chart.add_series("s", [])

    def test_render_without_series_rejected(self):
        with pytest.raises(ValueError):
            AsciiChart().render()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            AsciiChart(width=4, height=2)

    def test_convenience_wrappers(self):
        data = {"WSI": [(100, 10), (200, 20)], "SI": [(100, 9), (220, 18)]}
        assert "Throughput in TPS" in latency_throughput_chart("t", data)
        assert "ab%" in abort_rate_chart("t", data)


class _Node:
    """A GC-tracked object (instances with references always are)."""

    def __init__(self, payload):
        self.payload = payload


class _Scratch(_Node):
    pass


class TestCollectorShare:
    def test_times_each_generation_and_counts_what_the_window_left(self):
        with collector_share() as report:
            kept = [_Node([i]) for i in range(500)]
            dropped = [_Scratch([i]) for i in range(500)]
            del dropped
            gc.collect(0)
            gc.collect(2)
            gc.collect(2)
        assert report.collections[0] >= 1 and report.collections[2] == 2
        assert report.gen_s[2] > 0.0
        assert 0.0 < sum(report.gen_s) <= report.wall_s
        assert report.share == pytest.approx(sum(report.gen_s) / report.wall_s)
        # Own types only: builtin containers come and go under pytest.
        assert report.tracked["_Node"] == len(kept) == 500
        assert report.tracked["_Scratch"] == 0

    def test_detaches_its_callback_and_leaves_collector_settings_alone(self):
        callbacks, threshold, enabled = list(gc.callbacks), gc.get_threshold(), gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector_share():
                raise RuntimeError("window died")
        assert gc.callbacks == callbacks
        assert (gc.get_threshold(), gc.isenabled()) == (threshold, enabled)

    def test_empty_window_and_table(self):
        assert CollectorShare().share == 0.0
        report = CollectorShare(
            wall_s=2.0, gen_s=[0.1, 0.1, 0.3], collections=[7, 2, 1]
        )
        report.tracked.update(CommitFuture=40, tuple=2)
        table = report.table("title")
        assert table.startswith("title\n")
        assert "25.0 %" in table and "+ CommitFuture" in table
        assert table.splitlines()[-1].split()[-1] == "42"


class TestCLI:
    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "write skew" in out and "serializable" in out

    def test_classify_command(self, capsys):
        from repro.__main__ import main

        assert main(["classify", "r1[x]", "w2[x]", "c2", "c1"]) == 0
        out = capsys.readouterr().out
        assert "serializable:  True" in out

    def test_micro_command(self, capsys):
        from repro.__main__ import main

        assert main(["micro"]) == 0
        assert "start timestamp" in capsys.readouterr().out
