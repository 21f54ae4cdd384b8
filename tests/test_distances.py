"""Unit tests for the distance machinery of Section 2.2."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    WeightedGraph,
    all_pairs_hop_distances,
    all_pairs_weighted_distances,
    bfs_hop_distances,
    dijkstra,
    dijkstra_with_hops,
    h_hop_distances,
    h_hop_distances_from_sources,
    hop_diameter,
    path_hops,
    path_weight,
    reconstruct_path,
    shortest_path_diameter,
    weighted_diameter,
)
from repro import graphs


@pytest.fixture(scope="module")
def reference_graph():
    return graphs.erdos_renyi_graph(24, 0.18, graphs.uniform_weights(1, 40), seed=17)


class TestDijkstra:
    def test_matches_networkx(self, reference_graph):
        nx_graph = reference_graph.to_networkx()
        for source in list(reference_graph.nodes())[:5]:
            dist, _ = dijkstra(reference_graph, source)
            expected = nx.single_source_dijkstra_path_length(nx_graph, source)
            assert dist == pytest.approx(expected)

    def test_parent_reconstruction(self, reference_graph):
        source = reference_graph.nodes()[0]
        dist, parent = dijkstra(reference_graph, source)
        for target in list(reference_graph.nodes())[1:6]:
            path = reconstruct_path(parent, target)
            assert path[0] == source
            assert path[-1] == target
            assert path_weight(reference_graph, path) == pytest.approx(dist[target])

    def test_weight_fn_override(self):
        g = WeightedGraph.from_edges([(0, 1, 10), (1, 2, 10), (0, 2, 25)])
        dist, _ = dijkstra(g, 0, weight_fn=lambda u, v, w: 1)
        assert dist[2] == 1  # hop metric: direct edge wins

    def test_unreachable_nodes_absent(self):
        g = WeightedGraph.from_edges([(0, 1, 1)], nodes=[0, 1, 2])
        dist, _ = dijkstra(g, 0)
        assert 2 not in dist

    def test_reconstruct_unreachable_raises(self):
        g = WeightedGraph.from_edges([(0, 1, 1)], nodes=[0, 1, 2])
        _, parent = dijkstra(g, 0)
        with pytest.raises(ValueError):
            reconstruct_path(parent, 2)


class TestHopDistances:
    def test_bfs_matches_networkx(self, reference_graph):
        nx_graph = reference_graph.to_networkx()
        source = reference_graph.nodes()[0]
        assert bfs_hop_distances(reference_graph, source) == \
            nx.single_source_shortest_path_length(nx_graph, source)

    def test_hop_diameter_path(self):
        g = graphs.path_graph(7)
        assert hop_diameter(g) == 6

    def test_hop_diameter_requires_connected(self):
        g = WeightedGraph.from_edges([(0, 1, 1)], nodes=[0, 1, 2])
        with pytest.raises(ValueError):
            hop_diameter(g)

    def test_hop_diameter_requires_connected_at_every_size(self):
        for graph in (WeightedGraph.from_edges([], nodes=[0, 1]),
                      graphs.erdos_renyi_graph(30, 0.02, seed=4, connect=False)):
            assert not graph.is_connected()
            with pytest.raises(ValueError, match="connected"):
                hop_diameter(graph)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["tree", "cycle", "complete", "grid", "er",
                                 "caterpillar", "path"]),
           n=st.integers(1, 40), seed=st.integers(0, 10 ** 6))
    def test_hop_diameter_equals_one_bfs_per_node(self, kind, n, seed):
        if kind == "tree":
            g = graphs.random_tree(n, seed=seed)
        elif kind == "cycle":
            g = graphs.cycle_graph(max(3, n), seed=seed)
        elif kind == "complete":
            g = graphs.complete_graph(n, seed=seed)
        elif kind == "grid":
            g = graphs.grid_graph(1 + seed % 5, 1 + n // 4, seed=seed)
        elif kind == "er":
            g = graphs.erdos_renyi_graph(n, (1 + seed % 9) / 20, seed=seed)
        elif kind == "caterpillar":
            g = graphs.caterpillar_graph(1 + n // 3, seed % 4, seed=seed)
        else:
            g = graphs.path_graph(n, seed=seed)
        brute = max(max(bfs_hop_distances(g, v).values()) for v in g.nodes())
        assert hop_diameter(g) == brute

    def test_all_pairs_hop_distances(self, unit_path):
        table = all_pairs_hop_distances(unit_path)
        assert table[0][9] == 9
        assert table[4][6] == 2


class TestWeightedConcepts:
    def test_weighted_diameter_path(self, weighted_path):
        total = sum(w for _, _, w in weighted_path.edges())
        assert weighted_diameter(weighted_path) == total

    def test_shortest_path_diameter_path(self, weighted_path):
        assert shortest_path_diameter(weighted_path) == weighted_path.num_nodes - 1

    def test_spd_can_exceed_hop_diameter(self):
        # Triangle with one heavy edge: hop diameter is 1 but the shortest
        # weighted path between the heavy edge's endpoints uses 2 hops.
        g = WeightedGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 100)])
        assert hop_diameter(g) == 1
        assert shortest_path_diameter(g) == 2

    def test_dijkstra_with_hops_prefers_fewer_hops(self):
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 4)])
        dist, hops = dijkstra_with_hops(g, 0)
        assert dist[2] == 4
        assert hops[2] == 1  # the direct edge has equal weight but fewer hops

    def test_all_pairs_weighted_distances_symmetry(self, reference_graph):
        table = all_pairs_weighted_distances(reference_graph)
        nodes = reference_graph.nodes()
        for u in nodes[:6]:
            for v in nodes[:6]:
                assert table[u][v] == pytest.approx(table[v][u])


class TestHHopDistances:
    def test_zero_hops(self, reference_graph):
        source = reference_graph.nodes()[0]
        assert h_hop_distances(reference_graph, source, 0) == {source: 0.0}

    def test_unreachable_nodes_omitted(self):
        # Regression: the sparse-dict contract — a disconnected node admits
        # no source-v path at all, so it must be absent from the result
        # (conceptually wd_h = infinity), not mapped to a sentinel.
        g = WeightedGraph.from_edges([(0, 1, 2), (1, 2, 3)], nodes=[0, 1, 2, 3])
        dist = h_hop_distances(g, 0, h=5)
        assert 3 not in dist
        assert set(dist) == {0, 1, 2}
        assert dist[2] == 5.0

    def test_beyond_hop_budget_omitted(self):
        g = graphs.path_graph(6, graphs.unit_weights(), seed=0)
        dist = h_hop_distances(g, 0, h=2)
        assert set(dist) == {0, 1, 2}

    def test_monotone_in_h(self, mixed_scale_graph):
        source = mixed_scale_graph.nodes()[0]
        previous = h_hop_distances(mixed_scale_graph, source, 1)
        for h in range(2, 6):
            current = h_hop_distances(mixed_scale_graph, source, h)
            for node, dist in previous.items():
                assert current[node] <= dist + 1e-9
            previous = current

    def test_converges_to_true_distance(self, mixed_scale_graph):
        source = mixed_scale_graph.nodes()[0]
        n = mixed_scale_graph.num_nodes
        exact, _ = dijkstra(mixed_scale_graph, source)
        assert h_hop_distances(mixed_scale_graph, source, n) == pytest.approx(exact)

    def test_h_hop_never_below_true_distance(self, mixed_scale_graph):
        source = mixed_scale_graph.nodes()[0]
        exact, _ = dijkstra(mixed_scale_graph, source)
        limited = h_hop_distances(mixed_scale_graph, source, 3)
        for node, dist in limited.items():
            assert dist >= exact[node] - 1e-9

    def test_from_sources_table(self, grid):
        sources = grid.nodes()[:3]
        table = h_hop_distances_from_sources(grid, sources, 4)
        for v in grid.nodes():
            for s, d in table[v].items():
                assert s in sources
                assert d >= 0

    def test_negative_h_rejected(self, grid):
        with pytest.raises(ValueError):
            h_hop_distances(grid, grid.nodes()[0], -1)


class TestNumericTypes:
    """Regression: dijkstra used to return int distances while h_hop_distances
    returned floats, so stretch audits and serialized results compared
    int-vs-float tables.  All distance functions now return float values."""

    def test_dijkstra_returns_floats(self, reference_graph):
        dist, _ = dijkstra(reference_graph, reference_graph.nodes()[0])
        assert all(type(d) is float for d in dist.values())

    def test_dijkstra_with_hops_returns_float_distances(self, reference_graph):
        dist, hops = dijkstra_with_hops(reference_graph, reference_graph.nodes()[0])
        assert all(type(d) is float for d in dist.values())
        assert all(type(hc) is int for hc in hops.values())

    def test_h_hop_distances_returns_floats(self, reference_graph):
        dist = h_hop_distances(reference_graph, reference_graph.nodes()[0], 4)
        assert all(type(d) is float for d in dist.values())

    def test_dijkstra_and_h_hop_agree_exactly_at_full_horizon(self, reference_graph):
        source = reference_graph.nodes()[0]
        exact, _ = dijkstra(reference_graph, source)
        limited = h_hop_distances(reference_graph, source,
                                  reference_graph.num_nodes)
        assert limited == exact  # same types, same values — no approx needed

    def test_all_pairs_weighted_distances_floats(self, reference_graph):
        table = all_pairs_weighted_distances(reference_graph)
        for row in table.values():
            assert all(type(d) is float for d in row.values())


class TestPathHelpers:
    def test_path_weight_and_hops(self):
        g = WeightedGraph.from_edges([(0, 1, 3), (1, 2, 4)])
        assert path_weight(g, [0, 1, 2]) == 7
        assert path_hops([0, 1, 2]) == 2
        assert path_hops([0]) == 0
