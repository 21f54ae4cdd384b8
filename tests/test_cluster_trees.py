"""Tests for destination-rooted routing trees built from PDE pointers."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import RoundingScheme, solve_pde
from repro.core.pde import PDEEntry, PDEResult
from repro.graphs import WeightedGraph, all_pairs_weighted_distances, path_weight
from repro.routing import TreeFamily, build_compact_routing, build_destination_trees
from repro.serving import parse_graph_spec

from helpers import TREE_TAMPERS


@pytest.fixture(scope="module")
def pde_setup():
    g = graphs.erdos_renyi_graph(24, 0.2, graphs.uniform_weights(1, 40), seed=13)
    pde = solve_pde(g, g.nodes(), h=g.num_nodes, sigma=6, epsilon=0.25)
    family = build_destination_trees(g, pde)
    return g, pde, family


class TestTreeFamily:
    def test_one_tree_per_destination(self, pde_setup):
        g, pde, family = pde_setup
        assert set(family.destinations()) == set(g.nodes())

    def test_members_cover_lists(self, pde_setup):
        g, pde, family = pde_setup
        for v in g.nodes():
            for entry in pde.lists[v]:
                assert family[entry.source].contains(v)

    def test_roots_have_no_parent(self, pde_setup):
        _, _, family = pde_setup
        for dest in family.destinations():
            assert family[dest].parent[dest] is None

    def test_parents_are_graph_edges(self, pde_setup):
        g, _, family = pde_setup
        for dest in family.destinations():
            tree = family[dest]
            for node, parent in tree.parent.items():
                if parent is not None:
                    assert g.has_edge(node, parent)

    def test_paths_reach_root_with_bounded_stretch(self, pde_setup):
        g, pde, family = pde_setup
        exact = all_pairs_weighted_distances(g)
        for dest in list(family.destinations())[:10]:
            tree = family[dest]
            for node in list(tree.parent)[:10]:
                path = tree.path_to_root(node)
                assert path[0] == node
                assert path[-1] == dest
                if node != dest:
                    # Routing along the tree realises (roughly) the PDE
                    # estimate; in particular it is a real path, and when the
                    # node detected the destination its weight is at most the
                    # (1+eps) estimate.
                    est = pde.estimate(node, dest)
                    if est != float("inf"):
                        assert path_weight(g, path) <= est + 1e-6

    def test_tree_route_between_members(self, pde_setup):
        g, _, family = pde_setup
        dest = list(family.destinations())[0]
        tree = family[dest]
        members = list(tree.parent)[:6]
        for a in members:
            for b in members:
                path, weight = tree.tree_route(a, b)
                assert path[0] == a and path[-1] == b
                for u, v in zip(path, path[1:]):
                    assert g.has_edge(u, v)
                assert weight == path_weight(g, path)

    def test_membership_counts_consistent(self, pde_setup):
        _, _, family = pde_setup
        counts = family.membership_counts()
        total = sum(counts.values())
        assert total == sum(tree.size for tree in family.trees.values())

    def test_trees_containing(self, pde_setup):
        g, pde, family = pde_setup
        v = g.nodes()[3]
        containing = set(family.trees_containing(v))
        for entry in pde.lists[v]:
            assert entry.source in containing

    @pytest.mark.parametrize("sigma", [1, 6])
    def test_explicit_membership(self, pde_setup, sigma):
        """With every node a member, ``T_s`` is exactly ``s`` plus the nodes
        with an estimate toward it: a pointer chain never leaves them, and a
        member without an estimate is left out, not repaired."""
        g, _, _ = pde_setup
        pde = solve_pde(g, g.nodes(), h=g.num_nodes, sigma=sigma, epsilon=0.25)
        dest = g.nodes()[0]
        family = build_destination_trees(g, pde, destinations=[dest],
                                         members_of={dest: set(g.nodes())})
        assert set(family[dest].parent) == {dest} | {
            v for v in g.nodes() if pde.estimate(v, dest) != float("inf")}

    def test_label_and_depth(self, pde_setup):
        _, _, family = pde_setup
        dest = list(family.destinations())[0]
        tree = family[dest]
        assert tree.depth >= 0
        assert tree.label_of(dest) == tree.routing.label_of(dest)


def _hand_built_pde(graph, dest, pointers):
    """A PDE toward ``dest`` whose next hops are exactly ``pointers`` (node
    -> hop); every pointing node holds ``dest`` in its list."""
    estimates = {v: {dest: float(len(pointers) - i)}
                 for i, v in enumerate(pointers)}
    estimates[dest] = {dest: 0.0}
    return PDEResult(
        sources={dest}, h=graph.num_nodes, sigma=1, epsilon=0.25,
        lists={v: [PDEEntry(row[dest], dest)] for v, row in estimates.items()},
        estimates=estimates,
        next_hops={v: {dest: hop} for v, hop in pointers.items()},
        levels_used={v: {dest: 0} for v in estimates},
        rounding=RoundingScheme(0.25, graph.max_weight()))


class TestPointersAreChecked:
    """Trees are the PDE's pointers, checked at build time: a broken
    pointer is a build error, never a silent repair."""

    def test_pointer_that_is_not_an_edge_raises(self):
        g = graphs.path_graph(4)
        pde = _hand_built_pde(g, 0, {1: 0, 3: 1})     # 3 -> 1 is no edge
        with pytest.raises(RuntimeError, match="not an edge"):
            build_destination_trees(g, pde)

    def test_missing_pointer_raises(self):
        g = graphs.path_graph(4)
        pde = _hand_built_pde(g, 0, {1: 0, 2: None})
        with pytest.raises(RuntimeError, match="not an edge"):
            build_destination_trees(g, pde)

    def test_pointer_loop_raises(self):
        g = graphs.path_graph(4)
        pde = _hand_built_pde(g, 0, {1: 0, 2: 3, 3: 2})
        with pytest.raises(RuntimeError, match="loop"):
            build_destination_trees(g, pde)

    def test_sound_pointers_are_the_tree(self):
        g = graphs.path_graph(4)
        pde = _hand_built_pde(g, 0, {3: 2, 2: 1, 1: 0})
        tree = build_destination_trees(g, pde)[0]
        assert list(tree.parent.items()) == [(0, None), (1, 0), (2, 1), (3, 2)]


class TestState:
    def test_from_state_ignores_the_retired_repair_count(self, pde_setup):
        """A per-tree key the tree no longer has (the retired repair
        counter, always 0) is ignored on load."""
        g, _, family = pde_setup
        retired_key = "_".join(("fallback", "edges"))
        state = [dict(tree, **{retired_key: 0})
                 for tree in family.export_state()]
        loaded = TreeFamily.from_state(state, g)
        assert loaded.export_state() == family.export_state()
        assert all(retired_key not in tree for tree in loaded.export_state())

    @pytest.mark.parametrize("tamper", sorted(TREE_TAMPERS))
    def test_from_state_refuses_a_spoilt_tree(self, pde_setup, tamper):
        """Loading checks every pointer against the graph and every
        ``dist`` against its parent's: a spoilt tree never loads."""
        g, _, family = pde_setup
        state = family.export_state()
        victim = next(tree for tree in state if len(tree["parent"]) > 2)
        TREE_TAMPERS[tamper](victim, g)
        with pytest.raises((KeyError, ValueError)):
            TreeFamily.from_state(state, g)

    def test_dist_is_sound_on_a_hand_built_tree(self):
        g = graphs.path_graph(4, graphs.uniform_weights(1, 9), seed=3)
        pde = _hand_built_pde(g, 0, {3: 2, 2: 1, 1: 0})
        tree = build_destination_trees(g, pde)[0]
        assert tree.dist == {0: 0, 1: g.weight(1, 0),
                             2: g.weight(1, 0) + g.weight(2, 1),
                             3: g.weight(1, 0) + g.weight(2, 1) + g.weight(3, 2)}
        assert tree.tree_route(3, 1) == ([3, 2, 1], tree.dist[3] - tree.dist[1])


_HIERARCHY_SPECS = ("er:n=120,p=0.05,seed=1,weights=uniform:1:64",
                    "road:rows=8,cols=8", "powerlaw:n=150,weights=uniform:1:32",
                    "fattree:k=4")


@pytest.mark.parametrize("mode", ["budget", "spd", "truncated"])
@pytest.mark.parametrize("spec", _HIERARCHY_SPECS)
def test_every_hierarchy_tree_weighs_its_dist(spec, mode):
    """Every member of every tree family a hierarchy routes on — the level
    trees and the attach trees in ``G``, the skeleton trees in the skeleton
    graph — has ``dist`` equal to its pointer chain's weight, and
    ``tree_route`` is the interval scheme's path with that path's weight."""
    hierarchy = build_compact_routing(parse_graph_spec(spec), k=3,
                                      epsilon=0.25, mode=mode)
    families = [(hierarchy.graph, data.trees)
                for data in hierarchy.level_data if data.trees is not None]
    if hierarchy.attach_trees is not None:
        families.append((hierarchy.graph, hierarchy.attach_trees))
    families += [(hierarchy.skeleton_graph, family)
                 for family in hierarchy.skeleton_trees.values()]
    assert families
    for graph, family in families:
        for tree in family.trees.values():
            for v in tree.parent:
                assert type(tree.dist[v]) is int
                assert tree.dist[v] == path_weight(graph, tree.path_to_root(v))
            members = list(tree.parent)
            members = members[:3] + members[-3:]
            for a in members:
                for b in members:
                    path, weight = tree.tree_route(a, b)
                    assert path == tree.routing.route(a, b)
                    assert weight == path_weight(graph, path)


def _disconnected_er(n, seed):
    """Two ER components side by side, so some pairs have no estimate."""
    g = WeightedGraph()
    half = n // 2
    for offset, size in ((0, half), (half, n - half)):
        part = graphs.erdos_renyi_graph(size, 0.3, graphs.uniform_weights(1, 30),
                                        seed=seed + offset)
        for v in part.nodes():
            g.add_node(v + offset)
        for u, v, w in part.edges():
            g.add_edge(u + offset, v + offset, w)
    return g


_FAMILIES = {
    "er": lambda n, seed: graphs.erdos_renyi_graph(
        n, 0.25, graphs.uniform_weights(1, 40), seed=seed),
    "disconnected_er": _disconnected_er,
    "grid": lambda n, seed: graphs.grid_graph(
        3, max(2, n // 3), graphs.uniform_weights(1, 20), seed=seed),
    "path": lambda n, seed: graphs.path_graph(
        n, graphs.uniform_weights(1, 50), seed=seed),
    "star": lambda n, seed: graphs.star_graph(
        n, graphs.uniform_weights(1, 50), seed=seed),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(sorted(_FAMILIES)),
       n=st.integers(6, 14), seed=st.integers(0, 10 ** 4),
       sigma=st.sampled_from(["1", "2", "|S|"]),
       h=st.sampled_from(["1", "3", "n"]),
       epsilon=st.sampled_from([0.1, 0.25, 1.0]),
       data=st.data())
def test_pointer_trees_hold_every_estimate(family, n, seed, sigma, h,
                                           epsilon, data):
    """On any graph and any ``(S, h, sigma, eps)`` the pointers form trees:
    the build never raises, ``T_s`` holds exactly ``s`` and the nodes with an
    estimate toward it, and a node's tree path weighs at most its estimate."""
    g = _FAMILIES[family](n, seed)
    nodes = g.nodes()
    sources = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
    pde = solve_pde(g, sources,
                    h={"1": 1, "3": 3, "n": g.num_nodes}[h],
                    sigma={"1": 1, "2": 2, "|S|": len(sources)}[sigma],
                    epsilon=epsilon)
    trees = build_destination_trees(
        g, pde, members_of={s: set(nodes) for s in sources})
    for s in sources:
        tree = trees[s]
        estimated = {v for v in nodes if pde.estimate(v, s) != float("inf")}
        assert set(tree.parent) == estimated | {s}
        for v in estimated:
            assert path_weight(g, tree.path_to_root(v)) \
                <= pde.estimate(v, s) * (1 + 1e-9), (v, s)
    listed = build_destination_trees(g, pde)
    for v in nodes:
        for entry in pde.lists[v]:
            assert listed[entry.source].contains(v)
