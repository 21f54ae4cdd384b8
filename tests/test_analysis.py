"""Tests for the analysis layer: bounds, runners, reporting."""

import math

import pytest

from repro import graphs
from repro.analysis import (
    add_ratio_column,
    complexity,
    format_value,
    render_markdown_table,
    render_table,
    run_apsp_comparison,
    run_compact_experiment,
    run_epsilon_sweep,
    run_figure1_congestion,
    run_pde_scaling,
    run_prior_work_ablation,
    run_relabeling_experiment,
    run_tz_comparison,
)


@pytest.fixture(scope="module")
def bench_graph():
    return graphs.erdos_renyi_graph(18, 0.22, graphs.uniform_weights(1, 40), seed=29)


class TestComplexityBounds:
    def test_monotonicity_in_n(self):
        assert complexity.apsp_round_bound(200, 0.25) > complexity.apsp_round_bound(100, 0.25)
        assert complexity.compact_table_bound(1000, 3) > complexity.compact_table_bound(100, 3)

    def test_epsilon_dependence(self):
        assert complexity.pde_round_bound(10, 10, 0.1, 100) > \
            complexity.pde_round_bound(10, 10, 0.5, 100)

    def test_stretch_bounds(self):
        assert complexity.relabeling_stretch_bound(3) == 17
        assert complexity.compact_stretch_bound(3) == 9

    def test_compact_round_bound_uses_min(self):
        n, k = 10 ** 4, 4
        small_d = complexity.compact_round_bound(n, k, 2)
        large_d = complexity.compact_round_bound(n, k, n // 2)
        assert small_d <= large_d

    def test_figure1_bound(self):
        assert complexity.figure1_congestion_bound(5, 7) == 35

    def test_bound_table_keys(self):
        table = complexity.bound_table(100, 400, 3, 0.25, 6)
        assert "apsp_rounds" in table and "compact_stretch" in table

    def test_exact_vs_pde_detection_crossover(self):
        """For large sigma*h the exact bound exceeds the PDE bound (the
        regime the paper targets)."""
        n = 10 ** 6
        sigma = h = int(math.sqrt(n))
        assert complexity.exact_detection_round_bound(h, sigma) > \
            complexity.pde_round_bound(h, sigma, 0.5, n)


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(float("inf")) == "inf"
        assert format_value(1234567.0) == "1,234,567"
        assert format_value("x") == "x"

    def test_render_table(self):
        text = render_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}], title="t")
        assert "t" in text and "a" in text and "10" in text

    def test_render_table_empty(self):
        assert "no records" in render_table([])

    def test_render_markdown(self):
        md = render_markdown_table([{"a": 1, "b": 2}])
        assert md.startswith("| a | b |")
        assert "| 1 | 2 |" in md

    def test_add_ratio_column(self):
        records = add_ratio_column([{"x": 10.0, "y": 5.0}], "x", "y", name="r")
        assert records[0]["r"] == pytest.approx(2.0)


class TestRunners:
    def test_apsp_comparison(self, bench_graph):
        records = run_apsp_comparison(bench_graph, epsilon=0.5)
        names = {r["algorithm"] for r in records}
        assert len(records) == 4
        ours = next(r for r in records if "Thm 4.1" in r["algorithm"])
        assert ours["max_stretch"] <= 1.5 + 1e-9
        assert ours["missing"] == 0
        exact_algs = [r for r in records if "exact" in r["algorithm"]]
        assert all(r["max_stretch"] <= 1.0 + 1e-9 for r in exact_algs)
        assert names  # all distinct names present

    def test_pde_scaling_record(self, bench_graph):
        record = run_pde_scaling(bench_graph, num_sources=4, h=5, sigma=3,
                                 epsilon=0.5, engine="simulate")
        assert record["measured"]
        assert record["rounds"] > 0
        assert record["max_broadcasts"] <= record["broadcast_bound"]

    def test_figure1_record(self):
        record = run_figure1_congestion(3, 2, epsilon=0.5)
        assert record["exact_bottleneck_messages"] >= record["paper_bound_values"]
        assert record["pde_rounds"] > 0

    def test_relabeling_record(self, bench_graph):
        record = run_relabeling_experiment(bench_graph, k=2, pair_sample=60)
        assert record["delivery_rate"] == 1.0
        assert record["max_route_stretch"] <= record["stretch_bound"] + 1e-6

    def test_compact_record(self, bench_graph):
        record = run_compact_experiment(bench_graph, k=3, mode="budget",
                                        pair_sample=60)
        assert record["delivery_rate"] == 1.0
        assert record["max_route_stretch"] <= record["stretch_bound"] + 1e-6
        assert record["max_table_words"] > 0

    def test_prior_ablation_record(self, bench_graph):
        record = run_prior_work_ablation(bench_graph, k=2, skeleton_probability=0.5)
        assert record["new_max_stretch"] <= record["new_stretch_bound"] + 1e-6
        assert record["prior_max_stretch"] <= record["prior_stretch_bound"] + 1e-6

    def test_epsilon_sweep(self, bench_graph):
        records = run_epsilon_sweep(bench_graph, [1.0, 0.5, 0.25])
        assert all(r["within_guarantee"] for r in records)
        levels = [r["levels"] for r in records]
        assert levels == sorted(levels)  # smaller eps -> more levels

    def test_tz_comparison(self, bench_graph):
        record = run_tz_comparison(bench_graph, k=2, pair_sample=60)
        assert record["exact_max_stretch"] <= 4 * 2 - 3 + 1e-6
        assert record["approx_max_stretch"] <= 4 * 2 - 3 + 1e-6
