"""Tests for the exact TZ oracle and the approximate compact hierarchy."""

import pytest

from repro import graphs
from repro.graphs import all_pairs_weighted_distances
from repro.routing import (
    CompactRoutingHierarchy,
    ExactThorupZwickOracle,
    build_compact_routing,
    choose_truncation_level,
    sample_levels,
)
from repro.routing.stretch import evaluate_distance_estimates, evaluate_routing
import random


@pytest.fixture(scope="module")
def base_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 70), seed=19)


class TestLevelSampling:
    def test_levels_within_range(self):
        levels = sample_levels(list(range(100)), 4, random.Random(0))
        assert all(0 <= level <= 3 for level in levels.values())

    def test_top_level_nonempty(self):
        levels = sample_levels(list(range(10)), 5, random.Random(1))
        assert any(level == 4 for level in levels.values())

    def test_level_sets_shrink(self):
        levels = sample_levels(list(range(300)), 3, random.Random(2))
        s1 = sum(1 for level in levels.values() if level >= 1)
        s2 = sum(1 for level in levels.values() if level >= 2)
        assert s2 <= s1 <= 300

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sample_levels(list(range(5)), 0, random.Random(0))


class TestExactOracle:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_classical_query_stretch(self, base_graph, k):
        oracle = ExactThorupZwickOracle(base_graph, k=k, seed=7)
        exact = all_pairs_weighted_distances(base_graph)
        for u in base_graph.nodes():
            for v in base_graph.nodes():
                if u == v:
                    continue
                est = oracle.query(u, v)
                assert est >= exact[u][v] - 1e-9
                assert est <= (2 * k - 1) * exact[u][v] + 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_hierarchy_query_stretch(self, base_graph, k):
        oracle = ExactThorupZwickOracle(base_graph, k=k, seed=7)
        exact = all_pairs_weighted_distances(base_graph)
        for u in base_graph.nodes():
            for v in base_graph.nodes():
                if u == v:
                    continue
                est, level = oracle.hierarchy_query(u, v)
                assert est >= exact[u][v] - 1e-9
                assert est <= (4 * k - 3) * exact[u][v] + 1e-6
                assert 0 <= level < k

    def test_query_symmetry_of_self(self, base_graph):
        oracle = ExactThorupZwickOracle(base_graph, k=3, seed=7)
        v = base_graph.nodes()[0]
        assert oracle.query(v, v) == 0.0
        assert oracle.hierarchy_query(v, v) == (0.0, 0)

    def test_bunch_sizes_shrink_with_k(self, base_graph):
        k1 = ExactThorupZwickOracle(base_graph, k=1, seed=7)
        k3 = ExactThorupZwickOracle(base_graph, k=3, seed=7)
        # k=1 stores the full distance table (bunch = V); k=3 stores less on average.
        assert k1.average_bunch_size() == base_graph.num_nodes
        assert k3.average_bunch_size() < k1.average_bunch_size()

    def test_pivot_accessor(self, base_graph):
        oracle = ExactThorupZwickOracle(base_graph, k=3, seed=7)
        v = base_graph.nodes()[0]
        pivot, dist = oracle.pivot(v, 0)
        assert pivot == v and dist == 0.0


class TestCompactHierarchy:
    @pytest.mark.parametrize("mode", ["budget", "spd"])
    def test_routing_stretch_bound(self, base_graph, mode):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=3, epsilon=0.25,
                                                  seed=9, mode=mode)
        report = evaluate_routing(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= hierarchy.theoretical_stretch_bound() + 1e-6
        assert report.over_estimate == 0

    def test_distance_estimates_feasible(self, base_graph):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=3, epsilon=0.25,
                                                  seed=9, mode="budget")
        report = evaluate_distance_estimates(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 4 * 3 - 3 + 1e-6

    def test_truncated_mode(self, base_graph):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=3, epsilon=0.25,
                                                  seed=9, mode="truncated", l0=2)
        report = evaluate_routing(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= hierarchy.theoretical_stretch_bound() + 1e-6
        assert report.over_estimate == 0
        assert hierarchy.audit()["over_estimate"] == 0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_various_k(self, base_graph, k):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=k, epsilon=0.25,
                                                  seed=k, mode="budget")
        report = evaluate_routing(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 4 * k - 3 + 1e-6
        assert report.over_estimate == 0

    def test_labels_have_k_entries(self, base_graph):
        k = 3
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=k, epsilon=0.25,
                                                  seed=9, mode="budget")
        for v in base_graph.nodes()[:8]:
            label = hierarchy.label_of(v)
            assert len(label.get("pivots")) == k - 1
            assert len(label.get("pivot_dists")) == k - 1
            assert len(label.get("tree_labels")) == k - 1

    def test_table_words_positive(self, base_graph):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=3, epsilon=0.25,
                                                  seed=9, mode="budget")
        assert all(hierarchy.table_words(v) > 0 for v in base_graph.nodes()[:5])

    def test_build_report(self, base_graph):
        hierarchy = CompactRoutingHierarchy.build(base_graph, k=3, epsilon=0.25,
                                                  seed=9, mode="budget")
        report = hierarchy.build_report()
        assert report.n == base_graph.num_nodes
        assert len(report.level_sizes) == 3
        assert report.level_sizes[0] == base_graph.num_nodes
        assert report.max_bunch_size >= 1
        assert report.rounds > 0

    def test_invalid_arguments(self, base_graph):
        with pytest.raises(ValueError):
            CompactRoutingHierarchy.build(base_graph, k=0)
        with pytest.raises(ValueError):
            CompactRoutingHierarchy.build(base_graph, k=3, mode="bogus")
        with pytest.raises(ValueError):
            CompactRoutingHierarchy.build(base_graph, k=1, mode="truncated")
        with pytest.raises(ValueError):
            CompactRoutingHierarchy.build(base_graph, k=3, mode="truncated", l0=5)

    def test_bunch_sizes_smaller_for_larger_k(self, base_graph):
        h2 = CompactRoutingHierarchy.build(base_graph, k=1, epsilon=0.25, seed=3,
                                           mode="budget")
        h4 = CompactRoutingHierarchy.build(base_graph, k=4, epsilon=0.25, seed=3,
                                           mode="budget")
        assert h4.build_report().avg_bunch_size <= h2.build_report().avg_bunch_size


class TestCorollary414:
    def test_choose_truncation_level_range(self):
        for n in (100, 1000):
            for k in (3, 4, 6):
                for d in (2, 10, 50):
                    l0 = choose_truncation_level(n, k, d)
                    assert 1 <= l0 <= k - 1

    def test_auto_mode_small_k(self, base_graph):
        hierarchy = build_compact_routing(base_graph, k=2, seed=5)
        assert hierarchy.mode == "budget"
        report = evaluate_routing(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 5 + 1e-6
        assert report.over_estimate == 0

    def test_auto_mode_large_k_truncates(self, base_graph):
        hierarchy = build_compact_routing(base_graph, k=3, seed=5)
        assert hierarchy.mode == "truncated"
        report = evaluate_routing(hierarchy, base_graph)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 9 + 1e-6
        assert report.over_estimate == 0

    def test_explicit_mode_passthrough(self, base_graph):
        hierarchy = build_compact_routing(base_graph, k=3, mode="spd", seed=5)
        assert hierarchy.mode == "spd"
