"""Tests for the batched multi-source detection engine and the engine registry.

The batched engine must be *list-for-list identical* to the per-source
reference (:func:`helpers.detect_sources_logical`) and to the simulator (the
detection problem is deterministic, so the ``(distance, source)`` output is
unique); next hops may differ only among equally short paths, so they are
verified semantically (each realises the listed distance).
"""

import random

import pytest

from repro import graphs
from repro.core import (
    DETECTION_ENGINES,
    detect_sources,
    detect_sources_batched,
    run_source_detection_simulation,
    solve_pde,
)
from repro.graphs import WeightedGraph
from repro.routing import build_compact_routing

from helpers import detect_sources_logical, unplanned_pde


def _pairs(result, node):
    return [(e.distance, e.source) for e in result.lists[node]]


def _assert_lists_identical(graph, a, b):
    for v in graph.nodes():
        assert _pairs(a, v) == _pairs(b, v), v


class TestRegistry:
    def test_registry_names(self):
        assert set(DETECTION_ENGINES) == {"batched", "simulate"}

    def test_dispatch_default_is_batched(self, grid):
        sources = set(list(grid.nodes())[:4])
        via_dispatch = detect_sources(grid, sources, h=6, sigma=3)
        direct = detect_sources_batched(grid, sources, h=6, sigma=3)
        _assert_lists_identical(grid, via_dispatch, direct)

    def test_dispatch_by_name(self, grid):
        sources = set(list(grid.nodes())[:4])
        for name in ("batched", "simulate"):
            result = detect_sources(grid, sources, h=6, sigma=3, engine=name)
            assert result.h == 6 and result.sigma == 3

    def test_dispatch_forwards_engine_kwargs(self, grid):
        sources = set(grid.nodes())
        result = detect_sources(grid, sources, h=8, sigma=3, engine="simulate",
                                message_cap=True)
        assert result.metrics.measured

    def test_unknown_engine_raises(self, grid):
        with pytest.raises(ValueError, match="unknown detection engine"):
            detect_sources(grid, {grid.nodes()[0]}, h=3, sigma=2, engine="bogus")

    def test_solve_pde_unknown_engine_raises(self, grid):
        # "logical" is the tests' per-source reference, not an engine.
        unknown = r"unknown engine .*available: \['batched', 'simulate'\]"
        for engine in ("bogus", "logical"):
            with pytest.raises(ValueError, match=unknown):
                solve_pde(grid, grid.nodes(), h=3, sigma=2, epsilon=0.5,
                          engine=engine)
            for workers in (1, 2):
                with pytest.raises(ValueError, match=unknown):
                    build_compact_routing(grid, k=2, engine=engine,
                                          build_workers=workers)


class TestBatchedIdentity:
    @pytest.mark.parametrize("h,sigma", [(0, 3), (3, 0), (1, 1), (3, 2),
                                         (6, 4), (10, 10)])
    def test_matches_logical_on_fixtures(self, grid, unit_path, h, sigma):
        for g in (grid, unit_path):
            sources = set(list(g.nodes())[: max(1, g.num_nodes // 2)])
            logical = detect_sources_logical(g, sources, h, sigma)
            batched = detect_sources_batched(g, sources, h, sigma)
            _assert_lists_identical(g, logical, batched)

    def test_matches_logical_with_edge_lengths(self):
        for seed in range(6):
            g = graphs.erdos_renyi_graph(16, 0.25, graphs.uniform_weights(1, 6),
                                         seed=seed)
            sources = set(list(g.nodes())[:5])
            length = lambda u, v, w: w
            logical = detect_sources_logical(g, sources, h=9, sigma=3,
                                             edge_length=length)
            batched = detect_sources_batched(g, sources, h=9, sigma=3,
                                             edge_length=length)
            _assert_lists_identical(g, logical, batched)

    def test_matches_simulation(self, grid):
        sources = set(list(grid.nodes())[:5])
        h, sigma = 6, 3
        batched = detect_sources_batched(grid, sources, h, sigma)
        simulated = run_source_detection_simulation(grid, sources, h, sigma)
        _assert_lists_identical(grid, batched, simulated)

    def test_matches_logical_randomized(self):
        rng = random.Random(0)
        for trial in range(25):
            n = rng.randint(4, 22)
            g = graphs.erdos_renyi_graph(n, rng.choice([0.15, 0.3, 0.5]),
                                         graphs.uniform_weights(1, 40),
                                         seed=trial)
            sources = set(rng.sample(g.nodes(), rng.randint(1, n)))
            h = rng.randint(0, 8)
            sigma = rng.randint(0, 5)
            use_lengths = rng.random() < 0.5
            length = (lambda u, v, w: w) if use_lengths else None
            logical = detect_sources_logical(g, sources, h, sigma,
                                             edge_length=length)
            batched = detect_sources_batched(g, sources, h, sigma,
                                             edge_length=length)
            _assert_lists_identical(g, logical, batched)

    def test_across_generator_suite(self, graph_zoo):
        for name, g in graph_zoo.items():
            sources = set(list(g.nodes())[:5])
            logical = detect_sources_logical(g, sources, h=7, sigma=4)
            batched = detect_sources_batched(g, sources, h=7, sigma=4)
            _assert_lists_identical(g, logical, batched)

    def test_tuple_node_ids(self):
        nodes = [("dc", i) for i in range(6)]
        edges = [(nodes[i], nodes[i + 1], i + 1) for i in range(5)]
        g = WeightedGraph.from_edges(edges)
        sources = {nodes[0], nodes[5]}
        length = lambda u, v, w: w
        logical = detect_sources_logical(g, sources, h=12, sigma=2,
                                         edge_length=length)
        batched = detect_sources_batched(g, sources, h=12, sigma=2,
                                         edge_length=length)
        _assert_lists_identical(g, logical, batched)

    def test_source_not_in_graph_raises(self, unit_path):
        with pytest.raises(ValueError):
            detect_sources_batched(unit_path, {99}, h=3, sigma=2)
        # Validation must fire even on the sigma=0 early-return path, matching
        # the per-source reference.
        with pytest.raises(ValueError):
            detect_sources_batched(unit_path, {99}, h=3, sigma=0)

    def test_invalid_parameters(self, unit_path):
        with pytest.raises(ValueError):
            detect_sources_batched(unit_path, {0}, h=-1, sigma=2)
        with pytest.raises(ValueError):
            detect_sources_batched(unit_path, {0}, h=3, sigma=-2)

    def test_analytic_metrics(self, unit_path):
        result = detect_sources_batched(unit_path, {0}, h=4, sigma=3)
        assert result.metrics.rounds == 4 + 3
        assert not result.metrics.measured


class TestBatchedNextHops:
    def test_next_hops_realise_listed_distances(self, grid):
        sources = set(list(grid.nodes())[:6])
        result = detect_sources_batched(grid, sources, h=10, sigma=4)
        for v in grid.nodes():
            for entry in result.lists[v]:
                if entry.source == v:
                    assert entry.next_hop is None
                    continue
                nh = entry.next_hop
                assert nh is not None
                assert grid.has_edge(v, nh)
                # The neighbour's own list contains the source one unit-step
                # closer: d(v, s) = 1 + d(nh, s) on the unit-length metric.
                nh_dist = result.distance(nh, entry.source)
                assert nh_dist == entry.distance - 1

    def test_next_hops_with_edge_lengths(self):
        g = WeightedGraph.from_edges([(0, 1, 5), (1, 2, 5), (0, 2, 20)])
        result = detect_sources_batched(g, {0}, h=12, sigma=1,
                                        edge_length=lambda u, v, w: w)
        assert _pairs(result, 2) == [(10, 0)]
        assert result.lists[2][0].next_hop == 1


class TestPDEBatchedEngine:
    def test_pde_lists_identical_to_logical(self, small_weighted_graph,
                                            mixed_scale_graph):
        # Against the per-source reference at every rounding level.  Next
        # hops are not compared: the reference breaks ties differently.
        for g in (small_weighted_graph, mixed_scale_graph):
            logical, _ = unplanned_pde(g, g.nodes(), h=6, sigma=5,
                                       epsilon=0.25, reference=True)
            batched = solve_pde(g, g.nodes(), h=6, sigma=5, epsilon=0.25,
                                engine="batched")
            for v in g.nodes():
                log_pairs = [(e.estimate, e.source) for e in logical.lists[v]]
                bat_pairs = [(e.estimate, e.source) for e in batched.lists[v]]
                assert log_pairs == bat_pairs
            assert logical.estimates == batched.estimates
            assert logical.levels_used == batched.levels_used

    def test_pde_batched_matches_simulation(self):
        g = graphs.erdos_renyi_graph(16, 0.25, graphs.uniform_weights(1, 30),
                                     seed=8)
        sources = list(g.nodes())[:5]
        batched = solve_pde(g, sources, h=6, sigma=3, epsilon=0.5,
                            engine="batched")
        simulated = solve_pde(g, sources, h=6, sigma=3, epsilon=0.5,
                              engine="simulate")
        for v in g.nodes():
            bat_pairs = [(e.estimate, e.source) for e in batched.lists[v]]
            sim_pairs = [(e.estimate, e.source) for e in simulated.lists[v]]
            assert bat_pairs == sim_pairs

    def test_pde_default_engine_is_batched(self, grid):
        default = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5)
        explicit = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5,
                             engine="batched")
        assert default.estimates == explicit.estimates

    def test_store_levels_false_streams_levels(self, grid):
        kept = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5,
                         store_levels=True)
        dropped = solve_pde(grid, grid.nodes()[:3], h=4, sigma=2, epsilon=0.5,
                            store_levels=False)
        assert kept.per_level is not None
        assert len(kept.per_level) == kept.rounding.num_levels
        assert dropped.per_level is None
        assert kept.estimates == dropped.estimates
