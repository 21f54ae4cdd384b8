"""Property-based tests (hypothesis) for core invariants.

Random weighted graphs are generated from a seed strategy; every property is
one the paper relies on:

* metric/feasibility properties of the distance machinery,
* the defining invariants of source detection and PDE (Definition 2.1/2.2),
* spanner stretch (used as a black box in Theorem 4.5),
* tree routing delivery,
* routing-scheme stretch bounds, and the Thorup–Zwick invariant behind them:
  a route is no heavier than the table estimate it was selected on.
"""

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import RoundingScheme, approximate_apsp, detect_sources_logical, solve_pde
from repro.graphs import (
    WeightedGraph,
    all_pairs_weighted_distances,
    bfs_hop_distances,
    dijkstra,
    h_hop_distances,
    path_weight,
)
from repro.routing import (
    TreeRouting,
    build_compact_routing,
    greedy_spanner,
    verify_spanner,
)
from repro.congest import build_bfs_tree
from repro.serving import parse_graph_spec
from repro.serving.artifacts import load_hierarchy, save_hierarchy

from helpers import assert_routes_realise_estimates


# ----------------------------------------------------------------------
# graph strategy
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, min_nodes=4, max_nodes=16, max_weight=50):
    """Connected random weighted graphs, seeded for shrinkability."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    rng = random.Random(seed)
    g = WeightedGraph()
    for i in range(n):
        g.add_node(i)
    # random spanning tree for connectivity
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i), rng.randint(1, max_weight))
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(i, j) and rng.random() < density:
                g.add_edge(i, j, rng.randint(1, max_weight))
    return g


COMMON_SETTINGS = settings(max_examples=25, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# distance machinery
# ----------------------------------------------------------------------
class TestDistanceProperties:
    @COMMON_SETTINGS
    @given(random_graphs())
    def test_triangle_inequality(self, g):
        dist = all_pairs_weighted_distances(g)
        nodes = g.nodes()
        for a in nodes[:5]:
            for b in nodes[:5]:
                for c in nodes[:5]:
                    assert dist[a][c] <= dist[a][b] + dist[b][c] + 1e-9

    @COMMON_SETTINGS
    @given(random_graphs())
    def test_weighted_distance_below_hop_times_max_weight(self, g):
        max_w = g.max_weight()
        source = g.nodes()[0]
        wd, _ = dijkstra(g, source)
        hd = bfs_hop_distances(g, source)
        for v in g.nodes():
            assert hd[v] <= wd[v] + 1e-9          # weights are >= 1
            assert wd[v] <= hd[v] * max_w + 1e-9  # hop-shortest path is a candidate

    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=6))
    def test_h_hop_distances_dominate_true_distances(self, g, h):
        source = g.nodes()[0]
        exact, _ = dijkstra(g, source)
        limited = h_hop_distances(g, source, h)
        for v, d in limited.items():
            assert d >= exact[v] - 1e-9


# ----------------------------------------------------------------------
# rounding scheme
# ----------------------------------------------------------------------
class TestRoundingProperties:
    @COMMON_SETTINGS
    @given(st.floats(min_value=0.05, max_value=2.0),
           st.integers(min_value=1, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 6))
    def test_rounded_weights_sandwich(self, eps, max_weight, w):
        w = min(w, max_weight)
        scheme = RoundingScheme(epsilon=eps, max_weight=max_weight)
        for level in scheme.levels():
            rounded = scheme.rounded_weight(level, w)
            assert rounded >= w - 1e-9
            assert rounded < w + scheme.base(level) + 1e-6
            assert scheme.edge_length(level, w) == math.ceil(w / scheme.base(level))


# ----------------------------------------------------------------------
# source detection / PDE
# ----------------------------------------------------------------------
class TestDetectionProperties:
    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=4))
    def test_detection_output_is_correct_prefix(self, g, h, sigma):
        sources = set(g.nodes()[: max(1, g.num_nodes // 2)])
        result = detect_sources_logical(g, sources, h, sigma)
        for v in g.nodes():
            expected = []
            hd = bfs_hop_distances(g, v)
            for s in sources:
                d = hd.get(s)
                if d is not None and d <= h:
                    expected.append((d, s))
            expected.sort(key=lambda item: (item[0], repr(item[1])))
            got = [(e.distance, e.source) for e in result.lists[v]]
            assert got == expected[:sigma]

    @COMMON_SETTINGS
    @given(random_graphs(max_nodes=12), st.floats(min_value=0.1, max_value=1.0))
    def test_pde_estimates_never_undershoot(self, g, eps):
        pde = solve_pde(g, g.nodes(), h=g.num_nodes, sigma=3, epsilon=eps)
        exact = all_pairs_weighted_distances(g)
        for v, row in pde.estimates.items():
            for s, est in row.items():
                assert est >= exact[v][s] - 1e-9

    @COMMON_SETTINGS
    @given(random_graphs(max_nodes=12), st.floats(min_value=0.1, max_value=1.0))
    def test_apsp_stretch_guarantee(self, g, eps):
        result = approximate_apsp(g, epsilon=eps)
        audit = result.stretch_audit(g)
        assert audit["missing"] == 0
        assert audit["infeasible"] == 0
        assert audit["max_stretch"] <= 1 + eps + 1e-9


# ----------------------------------------------------------------------
# spanners and tree routing
# ----------------------------------------------------------------------
class TestRoutingSubstrateProperties:
    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=4))
    def test_greedy_spanner_stretch(self, g, k):
        spanner = greedy_spanner(g, k)
        assert verify_spanner(g, spanner, k)

    @COMMON_SETTINGS
    @given(random_graphs())
    def test_tree_routing_always_delivers(self, g):
        root = g.nodes()[0]
        bfs = build_bfs_tree(g, root)
        tr = TreeRouting(root, bfs.parent)
        nodes = g.nodes()
        rng = random.Random(0)
        for _ in range(10):
            a, b = rng.choice(nodes), rng.choice(nodes)
            path = tr.route(a, b)
            assert path[0] == a and path[-1] == b
            assert path_weight(g, path) >= 0


# ----------------------------------------------------------------------
# compact routing: a route realises the estimate it was selected on
# ----------------------------------------------------------------------
HIERARCHY_MODES = ("budget", "spd", "truncated")


class TestRouteRealisesEstimate:
    @COMMON_SETTINGS
    @given(random_graphs(), st.sampled_from(HIERARCHY_MODES),
           st.integers(min_value=2, max_value=4))
    def test_route_no_heavier_than_its_estimate(self, g, mode, k):
        hierarchy = build_compact_routing(g, k=k, epsilon=0.25, mode=mode)
        pairs = list(itertools.permutations(g.nodes(), 2))
        assert_routes_realise_estimates(
            hierarchy.route_batch(pairs, kernel="dict"))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", HIERARCHY_MODES)
    @pytest.mark.parametrize("spec", ["er:n=60,p=0.08,seed=1",
                                      "road:rows=8,cols=8",
                                      "powerlaw:n=80,seed=1", "fattree:k=4"])
    def test_all_pairs_within_estimate_and_bound(self, spec, mode, k, tmp_path):
        g = parse_graph_spec(spec)
        hierarchy = build_compact_routing(g, k=k, epsilon=0.25, mode=mode)
        pairs = list(itertools.permutations(g.nodes(), 2))
        traces = hierarchy.route_batch(pairs, kernel="dict")
        assert_routes_realise_estimates(traces)
        exact = all_pairs_weighted_distances(g)
        over_bound = [(t.source, t.target) for t in traces
                      if t.weight > (4 * k - 3) * exact[t.source][t.target]
                      * (1 + 1e-9)]
        assert over_bound == []

        path = str(tmp_path / "h.artifact")
        save_hierarchy(hierarchy, path)
        loaded, _ = load_hierarchy(path)
        assert loaded.has_columnar_kernel()
        assert loaded.route_batch(pairs, kernel="columnar") == traces
