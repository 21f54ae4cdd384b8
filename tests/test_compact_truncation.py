"""Boundary behaviour of the Corollary 4.14 truncation-level choice, and the
recorded truncated-mode routes that once outweighed their own estimate."""

import itertools
import json
import math
import os

import pytest

from repro import graphs
from repro.graphs import dijkstra
from repro.routing import build_compact_routing, choose_truncation_level
from repro.serving import parse_graph_spec

from helpers import assert_routes_realise_estimates

with open(os.path.join(os.path.dirname(__file__), "data",
                       "truncated_route_offenders.json"),
          encoding="utf-8") as _fh:
    OFFENDERS = json.load(_fh)["offenders"]


class TestClampRange:
    """l0 must always land in ``[floor(k/2) + 1, k - 1]`` (Theorem 4.13)."""

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("diameter", [1, 2, 10, 10 ** 3, 10 ** 9])
    def test_within_clamp_range(self, k, diameter):
        n = 1000
        l0 = choose_truncation_level(n, k, diameter)
        assert math.floor(k / 2) + 1 <= l0 <= k - 1

    @pytest.mark.parametrize("k", range(3, 9))
    def test_tiny_diameter_hits_lower_clamp(self, k):
        # D = 1 gives raw ~ k/2 + small, which clamps to floor(k/2) + 1.
        assert choose_truncation_level(10 ** 6, k, 1) == math.floor(k / 2) + 1

    @pytest.mark.parametrize("k", range(3, 9))
    def test_huge_diameter_hits_upper_clamp(self, k):
        # log D / log n >> 1 pushes raw above k - 1.
        assert choose_truncation_level(100, k, 10 ** 12) == k - 1

    def test_matches_corollary_formula_between_clamps(self):
        n, k, diameter = 10 ** 4, 6, 10 ** 2
        raw = k * (math.log(diameter) / math.log(n) + 1.0) / 2.0
        assert choose_truncation_level(n, k, diameter) == int(round(raw))


class TestDegenerateInputs:
    def test_k2_always_one(self):
        # For k = 2 the clamp interval [2, 1] is empty; the function pins
        # l0 to the only level (1) regardless of n and D.
        for diameter in (1, 5, 10 ** 6):
            assert choose_truncation_level(1000, 2, diameter) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_n_falls_back(self, n):
        assert choose_truncation_level(n, 4, 10) == 3  # max(1, k - 1)

    def test_k1_falls_back_to_one(self):
        assert choose_truncation_level(100, 1, 10) == 1

    def test_diameter_below_two_is_clamped_in_log(self):
        # log(max(2, D)) guards D in {0, 1}; both behave like D = 2.
        assert (choose_truncation_level(1000, 5, 0)
                == choose_truncation_level(1000, 5, 2))


class TestAutoModeUsesChoice:
    @pytest.fixture(scope="class")
    def er_graph(self):
        return graphs.erdos_renyi_graph(24, 0.18, graphs.uniform_weights(1, 30),
                                        seed=41)

    def test_k2_auto_uses_budget_mode(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=2, seed=1)
        assert hierarchy.mode == "budget"
        assert hierarchy.l0 is None
        assert hierarchy.build_params["requested_mode"] == "auto"

    def test_k3_auto_uses_truncated_with_chosen_l0(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=3, seed=1)
        assert hierarchy.mode == "truncated"
        diameter = hierarchy.build_params["auto_hop_diameter"]
        assert hierarchy.l0 == choose_truncation_level(
            er_graph.num_nodes, 3, diameter)

    def test_explicit_l0_wins_over_auto_choice(self, er_graph):
        hierarchy = build_compact_routing(er_graph, k=4, l0=3, seed=1)
        assert hierarchy.mode == "truncated"
        assert hierarchy.l0 == 3


class TestRecordedOffenders:
    """``tests/data/truncated_route_offenders.json``: pairs whose level-``l0``
    route left through the nearest skeleton anchor and came out heavier than
    the estimate (and, at small ``k``, than ``4k - 3`` times the distance)."""

    @pytest.mark.parametrize(
        "case", OFFENDERS,
        ids=[f"{c['graph']}-k{c['k']}-{c['pair'][0]}->{c['pair'][1]}"
             for c in OFFENDERS])
    def test_route_realises_its_estimate(self, case):
        graph = parse_graph_spec(case["graph"])
        hierarchy = build_compact_routing(
            graph, k=case["k"], epsilon=0.25, engine="batched",
            mode=case["mode"], seed=case["seed"])
        source, target = case["pair"]
        exact = dijkstra(graph, source)[0][target]
        assert exact == case["exact"]
        assert hierarchy._select_level(source, target) == (
            case["level"], case["pivot"], case["estimate"])
        # The record is of a real defect: the old route broke the invariant.
        assert case["weight_before"] > case["estimate"]

        trace = hierarchy.route(source, target)
        assert trace.delivered and trace.fallback_hops == 0
        assert trace.weight <= trace.estimate * (1 + 1e-9)
        assert trace.weight / exact <= 4 * case["k"] - 3


class TestEdgelessSkeleton:
    """A skeleton of one node has no edges, but it is still a skeleton: its
    PDE is the identity, so the levels built on it keep their estimates
    instead of sending every pair they own to a query-time Dijkstra."""

    @pytest.mark.parametrize("spec,k", [("road:rows=8,cols=8", 3),
                                        ("fattree:k=4", 3),
                                        ("fattree:k=6", 4)])
    def test_top_level_survives(self, spec, k):
        graph = parse_graph_spec(spec)
        hierarchy = build_compact_routing(graph, k=k, epsilon=0.25,
                                          mode="truncated")
        assert hierarchy.skeleton_graph.num_edges == 0
        assert set(hierarchy.skeleton_trees) == set(range(hierarchy.l0, k))
        traces = hierarchy.route_batch(
            list(itertools.permutations(graph.nodes(), 2)), kernel="dict")
        assert_routes_realise_estimates(traces)
        assert sum(t.fallback_hops for t in traces) == 0
