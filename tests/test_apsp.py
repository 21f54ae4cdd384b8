"""Tests for the deterministic (1+eps)-approximate APSP of Theorem 4.1."""

import pytest

from repro import graphs
from repro.core import approximate_apsp, stretch_statistics
from repro.graphs import all_pairs_weighted_distances


class TestApproximateAPSP:
    @pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5, 1.0])
    def test_stretch_guarantee(self, small_weighted_graph, epsilon):
        result = approximate_apsp(small_weighted_graph, epsilon=epsilon)
        audit = result.stretch_audit(small_weighted_graph)
        assert audit["missing"] == 0
        assert audit["infeasible"] == 0
        assert audit["max_stretch"] <= 1 + epsilon + 1e-9

    def test_mixed_scale_weights(self, mixed_scale_graph):
        result = approximate_apsp(mixed_scale_graph, epsilon=0.25)
        audit = result.stretch_audit(mixed_scale_graph)
        assert audit["max_stretch"] <= 1.25 + 1e-9
        assert audit["missing"] == 0

    def test_graph_zoo(self, graph_zoo):
        for name, g in graph_zoo.items():
            result = approximate_apsp(g, epsilon=0.5)
            audit = result.stretch_audit(g)
            assert audit["missing"] == 0, name
            assert audit["max_stretch"] <= 1.5 + 1e-9, name

    def test_estimate_accessors(self, small_weighted_graph):
        g = small_weighted_graph
        result = approximate_apsp(g, epsilon=0.25)
        v = g.nodes()[0]
        w = g.nodes()[1]
        assert result.estimate(v, v) == 0.0
        assert result.estimate(v, w) > 0
        hop = result.next_hop(v, w)
        assert hop is None or g.has_edge(v, hop)

    def test_tables_are_shared_with_the_pde_result(self, small_weighted_graph):
        result = approximate_apsp(small_weighted_graph, epsilon=0.25)
        assert result.estimates is result.pde.estimates
        assert result.next_hops is result.pde.next_hops
        assert list(result.estimates) == small_weighted_graph.nodes()

    def test_estimates_symmetric_enough(self, small_weighted_graph):
        """Both directions satisfy the same (1+eps) guarantee (the estimates
        themselves need not be identical)."""
        g = small_weighted_graph
        exact = all_pairs_weighted_distances(g)
        result = approximate_apsp(g, epsilon=0.25)
        for u in g.nodes()[:6]:
            for v in g.nodes()[:6]:
                if u == v:
                    continue
                assert result.estimate(u, v) <= 1.25 * exact[u][v] + 1e-6
                assert result.estimate(v, u) <= 1.25 * exact[u][v] + 1e-6

    def test_rounds_accounting_scales_with_levels(self):
        g_small_weights = graphs.erdos_renyi_graph(
            15, 0.25, graphs.uniform_weights(1, 4), seed=1)
        g_large_weights = graphs.erdos_renyi_graph(
            15, 0.25, graphs.uniform_weights(1000, 10 ** 6), seed=1)
        r_small = approximate_apsp(g_small_weights, epsilon=0.25)
        r_large = approximate_apsp(g_large_weights, epsilon=0.25)
        assert r_large.metrics.rounds > r_small.metrics.rounds

    def test_too_small_graph_rejected(self):
        g = graphs.path_graph(1)
        with pytest.raises(ValueError):
            approximate_apsp(g, epsilon=0.5)

    def test_unweighted_graph_exact(self, unit_path):
        result = approximate_apsp(unit_path, epsilon=0.5)
        audit = result.stretch_audit(unit_path)
        # With unit weights there is a single rounding level and the result
        # is exact.
        assert audit["max_stretch"] == pytest.approx(1.0)


class TestStretchStatistics:
    def test_perfect_estimates(self, grid):
        exact = all_pairs_weighted_distances(grid)
        stats = stretch_statistics(exact, exact)
        assert stats["max_stretch"] == pytest.approx(1.0)
        assert stats["missing"] == 0
        assert stats["infeasible"] == 0

    def test_missing_and_infeasible_detection(self):
        exact = {"a": {"b": 10.0}, "b": {"a": 10.0}}
        estimates = {"a": {}, "b": {"a": 5.0}}
        stats = stretch_statistics(estimates, exact)
        assert stats["missing"] == 1
        assert stats["infeasible"] == 1

    def test_empty_estimates(self):
        exact = {"a": {"b": 1.0}}
        stats = stretch_statistics({}, exact)
        assert stats["max_stretch"] == float("inf")
