"""Tests for the Theorem 4.5 routing scheme (relabeling, stretch 6k-1+o(1)).

At the default ``budget_constant=2`` the detection budget covers graphs of
this size whole and every pair is short-range, so the schemes here use
``budget_constant=0.5``: a third to a half of their pairs take the
skeleton path the ``6k - 1`` bound is about.
"""

import functools
import json
import os

import pytest

from repro import graphs
from repro.graphs import all_pairs_weighted_distances, dijkstra
from repro.routing import RelabelingRoutingScheme
from repro.routing.stretch import evaluate_distance_estimates, evaluate_routing, sample_pairs
from repro.serving import parse_graph_spec

#: A detection budget that leaves pairs for the long-range path.
LONG_RANGE_C = 0.5

with open(os.path.join(os.path.dirname(__file__), "data",
                       "relabel_route_offenders.json"),
          encoding="utf-8") as _fh:
    OFFENDERS = json.load(_fh)["offenders"]


def build_long_range(g, k, seed):
    """A scheme on ``g`` with pairs on both paths (asserted)."""
    scheme = RelabelingRoutingScheme.build(g, k=k, epsilon=0.25, seed=seed,
                                           budget_constant=LONG_RANGE_C)
    assert 0 < scheme.long_range_fraction() < 1
    return scheme


@pytest.fixture(scope="module")
def er_scheme():
    g = graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 60), seed=23)
    return g, build_long_range(g, k=2, seed=5)


@pytest.fixture(scope="module")
def long_range_scheme():
    """A scheme where the detection budget is deliberately small so that the
    long-range (skeleton + spanner) path is exercised."""
    g = graphs.erdos_renyi_graph(36, 0.12, graphs.uniform_weights(1, 80), seed=31)
    scheme = RelabelingRoutingScheme.build(g, k=2, epsilon=0.25, seed=3,
                                           sampling_probability=0.25,
                                           budget_constant=0.5)
    return g, scheme


class TestConstruction:
    def test_invalid_k(self, small_weighted_graph):
        with pytest.raises(ValueError):
            RelabelingRoutingScheme.build(small_weighted_graph, k=0)

    def test_invalid_spanner_method(self, small_weighted_graph):
        with pytest.raises(ValueError):
            RelabelingRoutingScheme.build(small_weighted_graph, k=2,
                                          spanner_method="bogus")

    def test_skeleton_nonempty(self, er_scheme):
        _, scheme = er_scheme
        assert len(scheme.skeleton) >= 1

    def test_home_assignment_total(self, er_scheme):
        g, scheme = er_scheme
        assert set(scheme.home) == set(g.nodes())
        assert all(s in scheme.skeleton for s in scheme.home.values())

    def test_skeleton_nodes_homed_at_themselves(self, er_scheme):
        _, scheme = er_scheme
        for s in scheme.skeleton:
            assert scheme.home[s] == s

    def test_build_report_fields(self, er_scheme):
        g, scheme = er_scheme
        report = scheme.build_report()
        assert report.n == g.num_nodes
        assert report.rounds > 0
        assert report.skeleton_size == len(scheme.skeleton)
        assert report.label_bits_max > 0

    def test_metrics_rounds_positive(self, er_scheme):
        _, scheme = er_scheme
        assert scheme.metrics.rounds > 0


class TestLabels:
    def test_label_contains_home_and_constant_words(self, er_scheme):
        g, scheme = er_scheme
        for v in g.nodes():
            label = scheme.label_of(v)
            assert label.get("home") in scheme.skeleton
            # home id + distance + tree label (+ keys + owner): a constant.
            assert label.words() <= 8

    def test_label_distance_nonnegative(self, er_scheme):
        g, scheme = er_scheme
        exact = all_pairs_weighted_distances(g)
        for v in g.nodes():
            label = scheme.label_of(v)
            home = label.get("home")
            assert label.get("dist_home") >= exact[v][home] - 1e-9

    def test_table_sizes_reported(self, er_scheme):
        g, scheme = er_scheme
        for v in list(g.nodes())[:5]:
            table = scheme.table_of(v)
            assert table.words() > 0


class TestRoutingAndDistance:
    def test_all_pairs_delivered_with_bounded_stretch(self, er_scheme):
        g, scheme = er_scheme
        report = evaluate_routing(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= scheme.theoretical_stretch_bound() + 1e-6

    def test_distance_estimates_feasible_and_bounded(self, er_scheme):
        g, scheme = er_scheme
        report = evaluate_distance_estimates(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= scheme.theoretical_stretch_bound() + 1e-6

    def test_self_route(self, er_scheme):
        g, scheme = er_scheme
        v = g.nodes()[0]
        trace = scheme.route(v, v)
        assert trace.delivered and trace.weight == 0.0

    def test_long_range_pairs_exercised(self, long_range_scheme):
        g, scheme = long_range_scheme
        pairs = sample_pairs(g.nodes())
        long_pairs = [(u, v) for u, v in pairs
                      if u != v and not scheme.pde_short.in_list(u, v)]
        assert long_pairs, "expected some pairs to need the long-range path"
        report = evaluate_routing(scheme, g, pairs=long_pairs)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= scheme.theoretical_stretch_bound() + 1e-6

    def test_long_range_distance_estimates(self, long_range_scheme):
        g, scheme = long_range_scheme
        report = evaluate_distance_estimates(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= scheme.theoretical_stretch_bound() + 1e-6

    def test_audit_summary_keys(self, er_scheme):
        _, scheme = er_scheme
        summary = scheme.audit(pairs=None)
        assert {"delivery_rate", "max_stretch", "stretch_bound"} <= set(summary)


class TestMultipleGraphFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_bound_across_k(self, k):
        g = graphs.erdos_renyi_graph(24, 0.18, graphs.mixed_scale_weights(1, 900, 0.3),
                                     seed=41)
        scheme = build_long_range(g, k=k, seed=k)
        report = evaluate_routing(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 6 * k - 1 + 1e-6

    def test_tree_topology(self):
        g = graphs.random_tree(26, graphs.uniform_weights(1, 40), seed=6)
        scheme = build_long_range(g, k=2, seed=6)
        report = evaluate_routing(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 11 + 1e-6

    def test_grid_topology(self):
        g = graphs.grid_graph(4, 6, graphs.uniform_weights(1, 25), seed=8)
        scheme = build_long_range(g, k=2, seed=8)
        report = evaluate_routing(scheme, g)
        assert report.delivery_rate == 1.0
        assert report.max_stretch <= 11 + 1e-6


@functools.lru_cache(maxsize=None)
def offender_build(spec, k, budget_constant, seed):
    graph = parse_graph_spec(spec)
    return graph, RelabelingRoutingScheme.build(
        graph, k=k, epsilon=0.25, seed=seed, budget_constant=budget_constant)


class TestRecordedOffenders:
    """``tests/data/relabel_route_offenders.json``: long-range pairs whose last
    mile walked a tree of the short-range estimation and came out heavier
    than the estimate, which sums ``wd'(w, s'_w)`` of the long-range one."""

    @pytest.mark.parametrize(
        "case", OFFENDERS,
        ids=[f"{c['graph']}-k{c['k']}-{c['pair'][0]}->{c['pair'][1]}"
             for c in OFFENDERS])
    def test_route_realises_its_estimate(self, case):
        graph, scheme = offender_build(case["graph"], case["k"],
                                       case["budget_constant"], case["seed"])
        source, target = case["pair"]
        exact = dijkstra(graph, source)[0][target]
        assert exact == case["exact"]
        assert not scheme.pde_short.in_list(source, target)
        # The record is of a real defect: the old route broke the invariant.
        assert case["weight_before"] > case["estimate_before"]

        trace = scheme.route(source, target)
        assert trace.delivered
        assert trace.estimate == scheme.distance(source, target)
        assert trace.weight <= trace.estimate * (1 + 1e-9)
        assert trace.weight / exact <= 6 * case["k"] - 1
        assert scheme.home[target] == case["home_after"]
