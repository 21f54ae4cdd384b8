"""Integration tests: end-to-end runs across the graph zoo.

These tests tie all subsystems together the way the benchmarks do:
generator -> PDE/APSP -> routing schemes -> stretch audit, and
faithful-simulation vs logical-engine agreement on a non-trivial instance.
"""

import pytest

from repro import graphs
from repro.analysis import run_apsp_comparison, run_relabeling_experiment
from repro.core import approximate_apsp, solve_pde
from repro.graphs import all_pairs_weighted_distances, standard_test_suite
from repro.routing import (
    CompactRoutingHierarchy,
    RelabelingRoutingScheme,
    build_compact_routing,
)
from repro.routing.stretch import evaluate_routing, sample_pairs


@pytest.fixture(scope="module")
def suite():
    # Shrink the standard suite slightly to keep the integration run fast.
    full = standard_test_suite(seed=1)
    return {name: full[name] for name in ["grid", "tree", "er_sparse", "clique_mixed"]}


class TestEndToEndAPSP:
    def test_apsp_on_suite(self, suite):
        for name, g in suite.items():
            result = approximate_apsp(g, epsilon=0.5)
            audit = result.stretch_audit(g)
            assert audit["missing"] == 0, name
            assert audit["max_stretch"] <= 1.5 + 1e-9, name

    def test_comparison_winner_shape(self):
        """The headline comparison: our APSP beats the randomized baseline in
        rounds (by ~log n) while the exact baselines pay either n^2-ish rounds
        (Bellman-Ford worst case bound) or Theta(m) rounds (link state)."""
        g = graphs.erdos_renyi_graph(20, 0.25, graphs.mixed_scale_weights(1, 2000, 0.3),
                                     seed=33)
        records = {r["algorithm"]: r for r in run_apsp_comparison(g, epsilon=0.5)}
        ours = records["pde_apsp (Thm 4.1)"]
        rand = records["nanongkai14 (randomized)"]
        assert ours["rounds"] < rand["rounds"]
        assert ours["max_stretch"] <= 1.5 + 1e-9


class TestEndToEndRouting:
    def test_relabeling_scheme_on_suite(self, suite):
        for name, g in suite.items():
            scheme = RelabelingRoutingScheme.build(g, k=2, epsilon=0.25, seed=2)
            pairs = sample_pairs(g.nodes(), 120)
            report = evaluate_routing(scheme, g, pairs=pairs)
            assert report.delivery_rate == 1.0, name
            assert report.max_stretch <= 11 + 1e-6, name

    def test_compact_hierarchy_on_suite(self, suite):
        for name, g in suite.items():
            hierarchy = build_compact_routing(g, k=3, seed=2)
            pairs = sample_pairs(g.nodes(), 120)
            report = evaluate_routing(hierarchy, g, pairs=pairs)
            assert report.delivery_rate == 1.0, name
            assert report.max_stretch <= 9 + 1e-6, name
            assert report.over_estimate == 0, name

    def test_relabeling_runner_record(self):
        g = graphs.random_geometric_graph(24, 0.4, None, seed=3)
        record = run_relabeling_experiment(g, k=2, pair_sample=100)
        assert record["delivery_rate"] == 1.0
        assert record["max_route_stretch"] <= record["stretch_bound"] + 1e-6


class TestEnginesAgree:
    def test_pde_engines_agree_on_weighted_graph(self):
        g = graphs.grid_graph(3, 5, graphs.uniform_weights(1, 12), seed=9)
        sources = list(g.nodes())[:6]
        logical = solve_pde(g, sources, h=6, sigma=4, epsilon=0.5, engine="logical")
        simulated = solve_pde(g, sources, h=6, sigma=4, epsilon=0.5, engine="simulate")
        for v in g.nodes():
            assert [(e.estimate, e.source) for e in logical.lists[v]] == \
                [(e.estimate, e.source) for e in simulated.lists[v]]
        # The simulated run really measured its cost.
        assert simulated.metrics.measured and not logical.metrics.measured


class TestSeedStability:
    def test_schemes_deterministic_given_seed(self):
        g = graphs.erdos_renyi_graph(20, 0.2, graphs.uniform_weights(1, 30), seed=13)
        a = RelabelingRoutingScheme.build(g, k=2, seed=4)
        b = RelabelingRoutingScheme.build(g, k=2, seed=4)
        assert a.skeleton == b.skeleton
        assert {v: a.home[v] for v in g.nodes()} == {v: b.home[v] for v in g.nodes()}

    def test_hierarchy_deterministic_given_seed(self):
        g = graphs.erdos_renyi_graph(20, 0.2, graphs.uniform_weights(1, 30), seed=13)
        a = CompactRoutingHierarchy.build(g, k=3, seed=4)
        b = CompactRoutingHierarchy.build(g, k=3, seed=4)
        assert a.levels == b.levels
        assert a.build_report().max_bunch_size == b.build_report().max_bunch_size
