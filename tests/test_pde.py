"""Tests for partial distance estimation (Theorem 3.3 / Corollary 3.5)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import DETECTION_ENGINES, solve_pde
from repro.graphs import (WeightedGraph, all_pairs_weighted_distances,
                          dijkstra_with_hops)

from helpers import unplanned_pde


def _feasibility_check(graph, pde, epsilon):
    """The two defining properties of Definition 2.2 (see module docstring)."""
    exact = all_pairs_weighted_distances(graph)
    # Property 1: estimates never undershoot the true distance.
    for v, row in pde.estimates.items():
        for s, est in row.items():
            assert est >= exact[v][s] - 1e-9, (v, s)
    # Property 2 (via list correctness): every source in the output list that
    # is within the hop budget is (1+eps)-approximated.
    for v in graph.nodes():
        _, hops = dijkstra_with_hops(graph, v)
        for entry in pde.lists[v]:
            if hops.get(entry.source, float("inf")) <= pde.h:
                assert entry.estimate <= (1 + epsilon) * exact[v][entry.source] + 1e-6


class TestLogicalEngine:
    def test_feasibility_on_er(self, small_weighted_graph):
        pde = solve_pde(small_weighted_graph, small_weighted_graph.nodes(),
                        h=6, sigma=5, epsilon=0.25)
        _feasibility_check(small_weighted_graph, pde, 0.25)

    def test_feasibility_on_mixed_scale(self, mixed_scale_graph):
        pde = solve_pde(mixed_scale_graph, mixed_scale_graph.nodes(),
                        h=5, sigma=4, epsilon=0.5)
        _feasibility_check(mixed_scale_graph, pde, 0.5)

    def test_full_instance_covers_all_pairs(self, small_weighted_graph):
        g = small_weighted_graph
        n = g.num_nodes
        pde = solve_pde(g, g.nodes(), h=n, sigma=n, epsilon=0.25)
        exact = all_pairs_weighted_distances(g)
        for v in g.nodes():
            assert len(pde.lists[v]) == n
            for w in g.nodes():
                if w == v:
                    continue
                assert pde.estimate(v, w) <= (1 + 0.25) * exact[v][w] + 1e-6

    def test_prefix_property(self, small_weighted_graph):
        """No source within the hop budget and much closer than the last list
        entry may be missing from the list (list-correctness of Def. 2.2)."""
        g = small_weighted_graph
        eps = 0.25
        sigma = 4
        pde = solve_pde(g, g.nodes(), h=g.num_nodes, sigma=sigma, epsilon=eps)
        exact = all_pairs_weighted_distances(g)
        for v in g.nodes():
            if len(pde.lists[v]) < sigma:
                continue
            last = pde.lists[v][-1].estimate
            listed = {e.source for e in pde.lists[v]}
            for w in g.nodes():
                if w in listed:
                    continue
                assert (1 + eps) * exact[v][w] >= last - 1e-6

    def test_sources_subset(self, grid):
        sources = list(grid.nodes())[:4]
        pde = solve_pde(grid, sources, h=8, sigma=3, epsilon=0.5)
        for v in grid.nodes():
            for entry in pde.lists[v]:
                assert entry.source in set(sources)

    def test_source_entry_is_zero(self, grid):
        sources = list(grid.nodes())[:4]
        pde = solve_pde(grid, sources, h=8, sigma=3, epsilon=0.5)
        for s in sources:
            assert pde.estimate(s, s) == 0

    def test_next_hops_are_neighbors(self, small_weighted_graph):
        g = small_weighted_graph
        pde = solve_pde(g, g.nodes(), h=6, sigma=4, epsilon=0.25)
        for v in g.nodes():
            for entry in pde.lists[v]:
                if entry.source == v:
                    continue
                assert entry.next_hop is not None
                assert g.has_edge(v, entry.next_hop)

    def test_lists_sorted_and_bounded(self, small_weighted_graph):
        pde = solve_pde(small_weighted_graph, small_weighted_graph.nodes(),
                        h=6, sigma=3, epsilon=0.25)
        for v in small_weighted_graph.nodes():
            keys = [e.key() for e in pde.lists[v]]
            assert keys == sorted(keys)
            assert len(keys) <= 3

    def test_closest_source_in(self, small_weighted_graph):
        g = small_weighted_graph
        pde = solve_pde(g, g.nodes(), h=g.num_nodes, sigma=g.num_nodes, epsilon=0.25)
        subset = set(list(g.nodes())[:5])
        exact = all_pairs_weighted_distances(g)
        for v in g.nodes():
            entry = pde.closest_source_in(v, subset)
            assert entry is not None
            best_exact = min(exact[v][s] for s in subset)
            assert entry.estimate >= best_exact - 1e-9
            assert entry.estimate <= (1 + 0.25) * max(exact[v][s] for s in subset)

    def test_invalid_arguments(self, grid):
        with pytest.raises(ValueError):
            solve_pde(grid, [], h=3, sigma=2, epsilon=0.5)
        with pytest.raises(ValueError):
            solve_pde(grid, [999], h=3, sigma=2, epsilon=0.5)
        with pytest.raises(ValueError):
            solve_pde(grid, grid.nodes(), h=0, sigma=2, epsilon=0.5)
        with pytest.raises(ValueError):
            solve_pde(grid, grid.nodes(), h=3, sigma=2, epsilon=0.5, engine="bogus")

    def test_store_levels_flag(self, grid):
        with_levels = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5)
        without = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5,
                            store_levels=False)
        assert with_levels.per_level is not None
        assert without.per_level is None


class TestSimulatedEngine:
    def test_simulation_matches_logical(self):
        # simulate against batched and against the per-source reference.
        g = graphs.erdos_renyi_graph(16, 0.25, graphs.uniform_weights(1, 30), seed=8)
        sources = list(g.nodes())[:5]
        batched = solve_pde(g, sources, h=6, sigma=3, epsilon=0.5)
        reference, _ = unplanned_pde(g, sources, 6, 3, 0.5, reference=True)
        simulated = solve_pde(g, sources, h=6, sigma=3, epsilon=0.5, engine="simulate")
        for v in g.nodes():
            sim_pairs = [(e.estimate, e.source) for e in simulated.lists[v]]
            for other in (batched, reference):
                assert [(e.estimate, e.source) for e in other.lists[v]] \
                    == sim_pairs, v

    def test_simulation_metrics_measured(self):
        g = graphs.grid_graph(3, 4, graphs.uniform_weights(1, 5), seed=1)
        simulated = solve_pde(g, g.nodes()[:3], h=4, sigma=2, epsilon=0.5,
                              engine="simulate")
        assert simulated.metrics.measured
        assert simulated.metrics.rounds > 0
        assert simulated.metrics.max_broadcasts() > 0

    def test_broadcast_cap_scales_with_sigma_and_levels(self):
        g = graphs.grid_graph(3, 4, graphs.uniform_weights(1, 20), seed=1)
        sigma = 3
        simulated = solve_pde(g, g.nodes(), h=5, sigma=sigma, epsilon=0.5,
                              engine="simulate")
        per_level_cap = sigma * (sigma + 1) // 2
        levels = simulated.rounding.num_levels
        assert simulated.metrics.max_broadcasts() <= per_level_cap * levels

    def test_message_cap_reaches_the_simulator(self, monkeypatch):
        seen = []
        simulate = DETECTION_ENGINES["simulate"]

        def spy(*args, message_cap=True, **kwargs):
            seen.append(message_cap)
            return simulate(*args, message_cap=message_cap, **kwargs)

        monkeypatch.setitem(DETECTION_ENGINES, "simulate", spy)
        g = graphs.grid_graph(3, 4, graphs.uniform_weights(1, 20), seed=1)
        capped = solve_pde(g, g.nodes(), h=5, sigma=3, epsilon=0.5,
                           engine="simulate")
        uncapped = solve_pde(g, g.nodes(), h=5, sigma=3, epsilon=0.5,
                             engine="simulate", message_cap=False)
        levels = capped.rounding.num_levels
        assert seen == [True] * levels + [False] * levels
        # Lemma 3.4: the cap only stops what would not be sent anyway.
        assert uncapped.export_state() == capped.export_state()

    def test_feasibility_of_simulated(self):
        g = graphs.grid_graph(3, 4, graphs.uniform_weights(1, 15), seed=2)
        simulated = solve_pde(g, g.nodes(), h=6, sigma=4, epsilon=0.5,
                              engine="simulate")
        _feasibility_check(g, simulated, 0.5)


# ----------------------------------------------------------------------
# level planning: a rounding level searches only the sources it can change
# ----------------------------------------------------------------------
def _planning_graph(kind, n, high, seed):
    weights = graphs.uniform_weights(1, high)
    if kind == "er":
        return graphs.erdos_renyi_graph(n, 0.3, weights, seed=seed)
    if kind == "er disconnected":
        return graphs.erdos_renyi_graph(n, 0.15, weights, seed=seed,
                                        connect=False)
    if kind == "grid":
        return graphs.grid_graph(2, max(1, n // 2), weights, seed=seed)
    if kind == "path":
        return graphs.path_graph(n, weights, seed=seed)
    return graphs.star_graph(n, weights, seed=seed)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_planned_levels_equal_searching_every_source(data):
    graph = _planning_graph(
        data.draw(st.sampled_from(["er", "er disconnected", "grid", "path",
                                   "star"])),
        data.draw(st.integers(2, 12)),
        data.draw(st.sampled_from([1, 8, 64, 10 ** 5])),
        data.draw(st.integers(0, 999)))
    n = graph.num_nodes
    sources = data.draw(st.lists(st.sampled_from(graph.nodes()), min_size=1,
                                 max_size=n, unique=True))
    epsilon = data.draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    # Small h cut some sources off from part of their component, so those
    # must keep searching at the levels above 0.
    h = data.draw(st.sampled_from([1, 2, 3, n]))
    # sigma < |S|: the plan must be inert — every level searches everything.
    sigma = data.draw(st.sampled_from(
        [len(sources), len(sources) + 1, n, max(1, len(sources) - 1)]))
    # The plan is batched-only, so batched is what it is checked on.
    planned = solve_pde(graph, sources, h, sigma, epsilon)
    oracle, per_level = unplanned_pde(graph, sources, h, sigma, epsilon)
    assert planned.export_state() == oracle.export_state()
    assert planned.per_level[0].lists == per_level[0]
    if sigma < len(sources):
        assert {level: detection.lists for level, detection
                in planned.per_level.items()} == per_level


def test_levels_above_zero_search_nothing_when_the_diameter_fits():
    # The whole path fits into h' twice over, so level 0 settles every
    # source whichever node the plan searched from.
    graph = graphs.path_graph(8, graphs.uniform_weights(1, 8), seed=3)
    pde = solve_pde(graph, graph.nodes(), h=64, sigma=8, epsilon=0.25)
    assert pde.rounding.horizon(64) >= 2 * sum(w for _, _, w in graph.edges())
    assert pde.rounding.num_levels > 1
    assert len(pde.per_level[0].lists) == graph.num_nodes
    assert all(not pde.per_level[level].lists
               for level in pde.rounding.levels() if level)
    assert all(level == 0 for row in pde.levels_used.values()
               for level in row.values())


def test_a_horizon_cut_source_keeps_searching():
    # Component {0, 1} lies inside the horizon, the heavy path 10-11-12-13
    # does not: only its source is searched again above level 0.
    graph = WeightedGraph.from_edges(
        [(0, 1, 1), (10, 11, 8), (11, 12, 8), (12, 13, 8)])
    pde = solve_pde(graph, [0, 10], h=1, sigma=2, epsilon=0.5)
    assert pde.rounding.horizon(1) < 24
    searched = {level: {e.source for entries in detection.lists.values()
                        for e in entries}
                for level, detection in pde.per_level.items()}
    assert searched[0] == {0, 10}
    assert all(searched[level] == {10}
               for level in pde.rounding.levels() if level)
    assert max(pde.levels_used[13].values()) > 0
    oracle, _ = unplanned_pde(graph, [0, 10], 1, 2, 0.5)
    assert pde.export_state() == oracle.export_state()
