"""Tests for unweighted (S, h, sigma)-source detection (Lenzen–Peleg)."""

import pytest

from repro import graphs
from repro.core import (
    detect_sources_batched,
    expand_with_edge_lengths,
    lemma34_message_cap,
    run_source_detection_simulation,
    solve_pde,
)
from repro.core.source_detection import _map_next_hop
from repro.graphs import WeightedGraph, bfs_hop_distances

from helpers import detect_sources_logical


def _pairs(result, node):
    return [(e.distance, e.source) for e in result.lists[node]]


class TestLogicalEngine:
    """The per-source reference (``helpers.detect_sources_logical``) on
    hand-checked instances: the engines are compared against it."""

    def test_path_all_sources(self, unit_path):
        sources = set(unit_path.nodes())
        result = detect_sources_logical(unit_path, sources, h=3, sigma=2)
        assert _pairs(result, 5) == [(0, 5), (1, 4)]

    def test_respects_hop_budget(self, unit_path):
        result = detect_sources_logical(unit_path, {0}, h=3, sigma=5)
        assert _pairs(result, 3) == [(3, 0)]
        assert _pairs(result, 4) == []

    def test_respects_sigma(self, grid):
        sources = set(grid.nodes())
        result = detect_sources_logical(grid, sources, h=10, sigma=3)
        assert all(len(result.lists[v]) <= 3 for v in grid.nodes())

    def test_lexicographic_tie_break(self):
        g = WeightedGraph.from_edges([(0, 1, 1), (0, 2, 1)])
        result = detect_sources_logical(g, {1, 2}, h=2, sigma=2)
        assert _pairs(result, 0) == [(1, 1), (1, 2)]

    def test_output_matches_bfs_truth(self, grid):
        sources = set(list(grid.nodes())[:4])
        h, sigma = 6, 4
        result = detect_sources_logical(grid, sources, h, sigma)
        for v in grid.nodes():
            expected = []
            for s in sources:
                d = bfs_hop_distances(grid, s).get(v)
                if d is not None and d <= h:
                    expected.append((d, s))
            expected.sort(key=lambda item: (item[0], repr(item[1])))
            assert _pairs(result, v) == expected[:sigma]

    def test_next_hops_are_neighbors(self, grid):
        sources = set(list(grid.nodes())[:3])
        result = detect_sources_logical(grid, sources, h=8, sigma=3)
        for v in grid.nodes():
            for entry in result.lists[v]:
                if entry.source == v:
                    continue
                assert entry.next_hop is not None
                assert grid.has_edge(v, entry.next_hop)

    def test_edge_lengths_respected(self):
        g = WeightedGraph.from_edges([(0, 1, 5), (1, 2, 5)])
        result = detect_sources_logical(g, {0}, h=12, sigma=1,
                                        edge_length=lambda u, v, w: w)
        assert _pairs(result, 2) == [(10, 0)]

    def test_source_not_in_graph_raises(self, unit_path):
        with pytest.raises(ValueError):
            detect_sources_logical(unit_path, {99}, h=3, sigma=2)

    def test_invalid_parameters(self, unit_path):
        with pytest.raises(ValueError):
            detect_sources_logical(unit_path, {0}, h=-1, sigma=2)
        with pytest.raises(ValueError):
            detect_sources_logical(unit_path, {0}, h=3, sigma=-1)

    def test_analytic_round_bound(self, unit_path):
        result = detect_sources_logical(unit_path, {0}, h=4, sigma=3)
        assert result.metrics.rounds == 4 + 3
        assert not result.metrics.measured


class TestSimulatedEngine:
    def test_matches_logical_unweighted(self, grid):
        sources = set(list(grid.nodes())[:5])
        h, sigma = 6, 3
        logical = detect_sources_logical(grid, sources, h, sigma)
        simulated = run_source_detection_simulation(grid, sources, h, sigma)
        for v in grid.nodes():
            assert _pairs(simulated, v) == _pairs(logical, v)

    def test_matches_logical_with_edge_lengths(self):
        g = graphs.erdos_renyi_graph(14, 0.25, graphs.uniform_weights(1, 4), seed=6)
        sources = set(list(g.nodes())[:4])
        h, sigma = 8, 3
        length = lambda u, v, w: w
        logical = detect_sources_logical(g, sources, h, sigma, edge_length=length)
        simulated = run_source_detection_simulation(g, sources, h, sigma,
                                                    edge_length=length)
        for v in g.nodes():
            assert _pairs(simulated, v) == _pairs(logical, v)

    def test_round_budget(self, grid):
        sources = set(list(grid.nodes())[:3])
        h, sigma = 5, 2
        simulated = run_source_detection_simulation(grid, sources, h, sigma)
        assert simulated.metrics.rounds <= h + sigma

    def test_lemma34_message_cap_respected(self, grid):
        sources = set(grid.nodes())
        h, sigma = 8, 3
        simulated = run_source_detection_simulation(grid, sources, h, sigma,
                                                    message_cap=True)
        cap = lemma34_message_cap(sigma)
        assert simulated.metrics.max_broadcasts() <= cap

    def test_message_cap_value(self):
        assert lemma34_message_cap(1) == 1
        assert lemma34_message_cap(4) == 10

    def test_next_hops_map_to_real_neighbors(self):
        g = WeightedGraph.from_edges([(0, 1, 3), (1, 2, 2)])
        simulated = run_source_detection_simulation(
            g, {0}, h=8, sigma=1, edge_length=lambda u, v, w: w)
        entry = simulated.lists[2][0]
        assert entry.source == 0
        assert entry.next_hop == 1


class TestBoundarySemantics:
    """The documented h=0 / sigma=0 boundaries (satellite of Definition 2.1):
    detection engines accept the degenerate instances, the PDE solver rejects
    them because the Definition 2.2 guarantees are vacuous there."""

    @pytest.mark.parametrize("engine", [detect_sources_logical,
                                        detect_sources_batched])
    def test_h_zero_only_sources_detect_themselves(self, unit_path, engine):
        result = engine(unit_path, {0, 4}, h=0, sigma=3)
        assert [(e.distance, e.source) for e in result.lists[0]] == [(0, 0)]
        assert [(e.distance, e.source) for e in result.lists[4]] == [(0, 4)]
        assert all(result.lists[v] == [] for v in unit_path.nodes()
                   if v not in (0, 4))

    @pytest.mark.parametrize("engine", [detect_sources_logical,
                                        detect_sources_batched])
    def test_sigma_zero_all_lists_empty(self, unit_path, engine):
        result = engine(unit_path, {0, 4}, h=3, sigma=0)
        assert all(result.lists[v] == [] for v in unit_path.nodes())

    def test_solve_pde_rejects_degenerate_boundaries(self, unit_path):
        with pytest.raises(ValueError):
            solve_pde(unit_path, [0], h=0, sigma=2, epsilon=0.5)
        with pytest.raises(ValueError):
            solve_pde(unit_path, [0], h=3, sigma=0, epsilon=0.5)

    def test_solve_pde_accepts_minimal_boundaries(self, unit_path):
        pde = solve_pde(unit_path, [0], h=1, sigma=1, epsilon=0.5)
        assert pde.estimate(1, 0) >= 1.0


class TestNextHopMapping:
    def test_tuple_node_ids_round_trip(self):
        # Tuple-valued node IDs must round-trip through the virtual-node
        # names that embed their repr.
        a, b, c = ("dc", 1), ("dc", 2), ("rack", 1, 3)
        g = WeightedGraph.from_edges([(a, b, 3), (b, c, 2)])
        simulated = run_source_detection_simulation(
            g, {a}, h=8, sigma=1, edge_length=lambda u, v, w: w)
        entry = simulated.lists[c][0]
        assert entry.source == a
        assert entry.next_hop == b
        entry_b = simulated.lists[b][0]
        assert entry_b.next_hop == a

    def test_real_next_hop_passes_through(self, unit_path):
        assert _map_next_hop(unit_path, 3, 2) == 2
        assert _map_next_hop(unit_path, 3, None) is None

    def test_unmappable_virtual_next_hop_raises(self, unit_path):
        # Regression: an inconsistent virtual node used to degrade silently
        # into a None next hop; it must raise a descriptive error instead.
        bogus = ("virt", repr(998), repr(999), 1)
        with pytest.raises(ValueError, match="cannot map virtual next hop"):
            _map_next_hop(unit_path, 3, bogus)


class TestExpansion:
    def test_expansion_sizes(self):
        g = WeightedGraph.from_edges([(0, 1, 3)])
        expanded, real = expand_with_edge_lengths(g, lambda u, v, w: w, cap=10)
        assert real == {0, 1}
        assert expanded.num_nodes == 2 + 2   # two virtual nodes on the edge
        assert expanded.num_edges == 3

    def test_expansion_cap(self):
        g = WeightedGraph.from_edges([(0, 1, 100)])
        expanded, _ = expand_with_edge_lengths(g, lambda u, v, w: w, cap=5)
        assert expanded.num_nodes == 2 + 4

    def test_length_one_edges_untouched(self, unit_path):
        expanded, _ = expand_with_edge_lengths(unit_path, lambda u, v, w: 1, cap=5)
        assert expanded.num_nodes == unit_path.num_nodes
        assert expanded.num_edges == unit_path.num_edges

    def test_invalid_cap(self, unit_path):
        with pytest.raises(ValueError):
            expand_with_edge_lengths(unit_path, lambda u, v, w: 1, cap=0)
