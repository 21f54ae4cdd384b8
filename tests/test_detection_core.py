"""The bucket-queue detection core: golden artifact identity and edge cases.

The ``batched`` engine was rewritten from a dict-of-Hashable heap loop to an
int-indexed distance-bucket queue.  The contract of that rewrite is that no
output byte moves: ``tests/data/golden_build_checksums.json`` holds the
``payload_sha256`` of hierarchies built by the *previous* engine (recorded
before it was deleted; ``python tests/test_detection_core.py --record``
rewrites the file from whatever engine is on ``PYTHONPATH``), and the core
must keep reproducing them.  Two entries are younger: the ``truncated``
builds of ``road:rows=8,cols=8`` and ``fattree:k=4`` have a one-node
skeleton, whose levels the hierarchy used to leave empty; they were
re-recorded when it started solving them (the detection core did not move).
All twelve were re-recorded when destination trees stopped carrying a
repair count: the pickled tree states in the ``level_trees_*`` and
``skeleton`` sections lost that always-zero key, and every other section
kept its bytes.  They were re-recorded again when the tree states gained
``dist`` (each member's pointer-chain weight) and the hierarchy's state
version went 1 -> 2: the ``level_trees_*`` and ``skeleton`` sections equal
the previous ones with ``dist`` dropped, ``meta`` differs only in its
``state_version``, and every other section kept its bytes.
"""

import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.core import (
    detect_sources,
    detect_sources_batched,
    detect_sources_logical,
    solve_pde,
)
from repro.core.source_detection import (GraphCSR, _detect_pruned,
                                         bucket_detect)
from repro.graphs import WeightedGraph
from repro.routing.compact import build_compact_routing
from repro.serving import parse_graph_spec
from repro.serving.artifacts import artifact_info, save_hierarchy

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_build_checksums.json")
GOLDEN_SPECS = (
    "er:n=120,p=0.05,seed=1,weights=uniform:1:64",
    "road:rows=8,cols=8",
    "powerlaw:n=150,weights=uniform:1:32",
    "fattree:k=4",
)
GOLDEN_MODES = ("budget", "spd", "truncated")


def build_checksum(spec: str, mode: str, build_workers: int = 1) -> str:
    kwargs = {"l0": 2} if mode == "truncated" else {}
    hierarchy = build_compact_routing(parse_graph_spec(spec), k=3,
                                      epsilon=0.25, mode=mode,
                                      build_workers=build_workers, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.artifact")
        save_hierarchy(hierarchy, path)
        return artifact_info(path).payload_sha256


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _pairs(result, node):
    return [(e.distance, e.source) for e in result.lists[node]]


def _assert_matches_logical(graph, sources, h, sigma, edge_length=None):
    logical = detect_sources_logical(graph, sources, h, sigma,
                                     edge_length=edge_length)
    batched = detect_sources_batched(graph, sources, h, sigma,
                                     edge_length=edge_length)
    assert list(batched.lists) == graph.nodes()
    for v in graph.nodes():
        assert _pairs(batched, v) == _pairs(logical, v), v
    return batched


def _assert_next_hops_realise_distances(graph, result):
    """Under ``edge_length = weight``: each hop is one edge closer."""
    for v in graph.nodes():
        for entry in result.lists[v]:
            if entry.source == v:
                assert entry.distance == 0 and entry.next_hop is None
                continue
            step = graph.weight(v, entry.next_hop)
            assert result.distance(entry.next_hop, entry.source) \
                == entry.distance - step


def _bellman_ford_lists(graph, sources, h, sigma):
    """Reference lists that never compare two node labels."""
    expected = {v: [] for v in graph.nodes()}
    for s in sources:
        dist = {s: 0}
        for _ in range(graph.num_nodes):
            for u, v, w in graph.edges():
                for a, b in ((u, v), (v, u)):
                    if a in dist and dist[a] + w < dist.get(b, h + 1):
                        dist[b] = dist[a] + w
        for v, d in dist.items():
            expected[v].append((d, repr(s), s))
    return {v: [(d, s) for d, _, s in sorted(rows, key=lambda r: r[:2])][:sigma]
            for v, rows in expected.items()}


# ----------------------------------------------------------------------
# artifact identity with the engine this core replaced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", GOLDEN_MODES)
@pytest.mark.parametrize("spec", GOLDEN_SPECS)
def test_golden_build_checksums(spec, mode):
    assert build_checksum(spec, mode) == _golden()[spec][mode]


def test_golden_checksum_survives_parallel_build():
    spec = GOLDEN_SPECS[1]
    assert build_checksum(spec, "budget", build_workers=4) \
        == _golden()[spec]["budget"]


# ----------------------------------------------------------------------
# list-for-list agreement with the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("h,sigma", [(0, 3), (3, 0), (1, 1), (3, 2), (6, 4),
                                     (10, 10), (40, 200)])
def test_matches_logical_on_engine_matrix(graph_zoo, h, sigma):
    for graph in graph_zoo.values():
        nodes = graph.nodes()
        for sources in (set(nodes[:1]), set(nodes[::3]), set(nodes)):
            _assert_matches_logical(graph, sources, h, sigma)
            _assert_matches_logical(graph, sources, h, sigma,
                                    edge_length=lambda u, v, w: w)


def test_next_hops_realise_listed_distances_with_lengths():
    graph = graphs.erdos_renyi_graph(40, 0.12, graphs.uniform_weights(1, 9),
                                     seed=4)
    result = detect_sources_batched(graph, set(graph.nodes()[:7]), h=30,
                                    sigma=4, edge_length=lambda u, v, w: w)
    _assert_next_hops_realise_distances(graph, result)


# ----------------------------------------------------------------------
# labels: the kernel compares ints only
# ----------------------------------------------------------------------
class Opaque:
    """Hashable, but neither orderable nor equal to anything but itself."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Opaque({self.name})"


def test_non_comparable_tuple_and_mixed_labels():
    # The oracle engine heaps ``(distance, node)`` pairs and cannot run on
    # these labels at all; the reference here is a label-blind Bellman-Ford.
    labels = [Opaque("a"), ("rack", 1), "host", 7, 2.5, frozenset({1}),
              Opaque("b"), ("rack", 0, "x")]
    edges = [(labels[i], labels[(i + 1) % len(labels)], i + 1)
             for i in range(len(labels))]
    graph = WeightedGraph.from_edges(edges + [(labels[0], labels[4], 3)])
    sources = {labels[0], labels[1], labels[3], labels[7]}
    for h, sigma in ((20, 3), (4, 2), (20, 10)):
        batched = detect_sources_batched(graph, sources, h, sigma,
                                         edge_length=lambda u, v, w: w)
        assert {v: _pairs(batched, v) for v in graph.nodes()} \
            == _bellman_ford_lists(graph, sources, h, sigma)
        _assert_next_hops_realise_distances(graph, batched)

    exact = _bellman_ford_lists(graph, sources, h=10 ** 6, sigma=len(sources))
    solved = solve_pde(graph, sources, h=graph.num_nodes, sigma=len(sources),
                       epsilon=0.5)
    for v in graph.nodes():
        assert set(solved.estimates[v]) == sources
        for d, s in exact[v]:
            assert d <= solved.estimate(v, s) <= 1.5 * d + 1e-9
            hop = solved.next_hop(v, s)
            assert (hop is None) == (s == v)
            assert hop is None or graph.has_edge(v, hop)


def test_csr_layout_and_int_space_kernel():
    graph = WeightedGraph.from_edges(
        [("b", "a", 5), ("c", "b", 1), ("a", "c", 2)], nodes=["z"])
    csr = GraphCSR.from_graph(graph)
    assert csr.nodes == ["z", "b", "a", "c"] == graph.nodes()
    assert csr.indptr == [0, 0, 2, 4, 6]
    # rows follow neighbor_weights order, not id order
    assert csr.indices == [2, 3, 1, 3, 1, 2]
    assert csr.weights == [5, 1, 5, 2, 1, 2]
    # sources ranked ["a", "c"] -> ids [2, 3]; triples are
    # (distance, source rank, from id), -1 at the source itself
    lists = bucket_detect(csr, csr.weights, [2, 3], h=9, sigma=2)
    assert lists == [[], [(1, 1, 3), (3, 0, 3)], [(0, 0, -1), (2, 1, 3)],
                     [(0, 1, -1), (2, 0, 2)]]


# ----------------------------------------------------------------------
# sigma >= |S|: the per-source path against the loop that is correct for any
# sigma
# ----------------------------------------------------------------------
def _tie_heavy_graphs():
    """Graphs on which most labels have several shortest paths to choose from."""
    two_islands = WeightedGraph.from_edges(
        [(i, (i + 1) % 6, 1 + i % 2) for i in range(6)]
        + [(10, 11, 1), (11, 12, 1), (12, 13, 2), (10, 13, 2), (10, 12, 2)],
        nodes=[99])
    return {
        "unit grid 6x6": graphs.grid_graph(6, 6, graphs.unit_weights(), seed=0),
        "er lengths 1..2": graphs.erdos_renyi_graph(
            30, 0.15, graphs.uniform_weights(1, 2), seed=7),
        "dense er lengths 1..2": graphs.erdos_renyi_graph(
            24, 0.3, graphs.uniform_weights(1, 2), seed=11),
        "disconnected": two_islands,
    }


def _edge_rows(csr):
    """The ``(neighbour id, length)`` rows ``bucket_detect`` hands its loops."""
    return [list(zip(csr.indices[a:b], csr.weights[a:b]))
            for a, b in zip(csr.indptr, csr.indptr[1:])]


TIE_HEAVY = {name: (csr, _edge_rows(csr)) for name, csr in
             ((name, GraphCSR.from_graph(g))
              for name, g in _tie_heavy_graphs().items())}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_per_source_path_equals_pruned_loop_including_next_hops(data):
    csr, rows = TIE_HEAVY[data.draw(st.sampled_from(sorted(TIE_HEAVY)))]
    n = len(csr.nodes)
    # Several sources per component, so one source's explored region overlaps
    # the next one's and a scratch entry left dirty would change a triple.
    source_ids = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=n))
    # 0 and 1 truncate nearly every source, 3 some of them, 64 none.
    h = data.draw(st.sampled_from([0, 1, 3, 64]))
    for sigma in {max(0, len(source_ids) - 1), len(source_ids),
                  len(source_ids) + 1, n}:
        assert bucket_detect(csr, csr.weights, source_ids, h, sigma) \
            == _detect_pruned(rows, source_ids, h, sigma), sigma


# ----------------------------------------------------------------------
# boundaries
# ----------------------------------------------------------------------
def test_h_zero_sources_detect_only_themselves(grid):
    sources = set(grid.nodes()[:3])
    result = detect_sources_batched(grid, sources, h=0, sigma=2)
    for v in grid.nodes():
        assert [tuple(e) for e in result.lists[v]] \
            == ([(0, v, None)] if v in sources else [])


def test_sigma_zero_lists_are_empty(grid):
    result = detect_sources_batched(grid, set(grid.nodes()), h=5, sigma=0)
    assert result.lists == {v: [] for v in grid.nodes()}
    assert result.metrics.rounds == 5


@pytest.mark.parametrize("sigma", [0, 2])
def test_source_outside_graph_keeps_error_text(unit_path, sigma):
    with pytest.raises(ValueError,
                       match=r"^source 99 is not a node of the graph$"):
        detect_sources_batched(unit_path, {0, 99}, h=3, sigma=sigma)
    with pytest.raises(ValueError,
                       match=r"^source 99 is not a node of the graph$"):
        detect_sources(unit_path, {99}, h=3, sigma=sigma, engine="batched")


def test_negative_parameters_rejected(unit_path):
    for h, sigma in ((-1, 2), (3, -2)):
        with pytest.raises(ValueError, match="must be non-negative"):
            detect_sources_batched(unit_path, {0}, h=h, sigma=sigma)


def test_disconnected_graph():
    graph = WeightedGraph.from_edges(
        [(0, 1, 2), (1, 2, 2), (10, 11, 1), (11, 12, 4)], nodes=[0, 99])
    batched = _assert_matches_logical(graph, {0, 12}, h=50, sigma=5,
                                      edge_length=lambda u, v, w: w)
    assert _pairs(batched, 99) == []
    assert _pairs(batched, 2) == [(4, 0)]
    assert _pairs(batched, 10) == [(5, 12)]
    solved = solve_pde(graph, {0, 12}, h=3, sigma=2, epsilon=0.25)
    assert solved.estimates[99] == {}
    assert solved.estimate(10, 0) == float("inf")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 15, 16, 17, 31, 33])
def test_bit_packing_boundaries(n):
    # Queue items pack ``node`` and ``from + 1`` into n.bit_length() bits
    # each, so sizes around powers of two exercise both the roomy and the
    # exact fit; the highest node id is a source, a relay and a next hop.
    graph = graphs.path_graph(n, graphs.uniform_weights(1, 3), seed=n)
    nodes = graph.nodes()
    batched = _assert_matches_logical(graph, {nodes[0], nodes[-1]}, h=3 * n,
                                      sigma=2, edge_length=lambda u, v, w: w)
    _assert_next_hops_realise_distances(graph, batched)
    assert len(batched.lists[nodes[0]]) == min(n, 2)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_detection_core.py --record")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({spec: {mode: build_checksum(spec, mode)
                          for mode in GOLDEN_MODES}
                   for spec in GOLDEN_SPECS}, fh, indent=2)
        fh.write("\n")
    raise SystemExit(0)
