"""Helpers shared by test modules (plain imports, not fixtures)."""

import functools
import heapq
import threading

import pytest

from repro.congest.metrics import CongestMetrics
from repro.core.pde import (finalize_pde_result, fold_detection_lists,
                            intern_detection_lists, level_adjacency)
from repro.core.source_detection import (DetectionEntry, GraphCSR,
                                         SourceDetectionResult, bucket_detect,
                                         materialize_detection)
from repro.core.weight_rounding import RoundingScheme
from repro.serving import workload_names

#: ``(shape, params)`` query streams for the list-for-list identity tests:
#: every workload shape with its defaults, plus Zipf at two more skews, so
#: each identity test runs on four streams.
IDENTITY_STREAMS = [pytest.param(name, {}, id=name)
                    for name in workload_names()] + [
    pytest.param("zipf", {"skew": 2.0}, id="zipf-skew2"),
    pytest.param("zipf", {"skew": 0.8}, id="zipf-skew0.8"),
]


def watchdog(seconds):
    """Run the test body on a daemon thread and fail — instead of hanging
    the suite — when it is still running after ``seconds``."""
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            outcome = {}

            def body():
                try:
                    test(*args, **kwargs)
                except BaseException as exc:   # noqa: BLE001 - re-raised
                    outcome["error"] = exc

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            thread.join(seconds)
            if thread.is_alive():
                pytest.fail(f"{test.__name__} still running after "
                            f"{seconds}s (a blocking call hung)")
            if "error" in outcome:
                raise outcome["error"]
        return run
    return wrap


def _deepest_member(tree):
    """The member of a tree state farthest from its root."""
    return max(tree["dist"], key=tree["dist"].get)


def _point_at_a_stranger(tree, graph):
    node = _deepest_member(tree)
    tree["parent"][node] = next(
        v for v in graph.nodes() if v != node and not graph.has_edge(node, v))


def _drop_dist(tree, graph):
    del tree["dist"]


def _float_dist(tree, graph):
    node = _deepest_member(tree)
    tree["dist"][node] = float(tree["dist"][node])


def _skew_dist(tree, graph):
    tree["dist"][_deepest_member(tree)] += 1


#: Ways to spoil one exported tree state (``DestinationTree.export_state``
#: of a tree with at least one non-root member) in place: each must make
#: loading it against ``graph`` fail.
TREE_TAMPERS = {
    "non-edge pointer": _point_at_a_stranger,
    "missing dist": _drop_dist,
    "non-int dist": _float_dist,
    "inconsistent dist": _skew_dist,
}


def assert_routes_realise_estimates(traces):
    """Every pair has a finite estimate and is delivered, and no route is
    heavier than the estimate it was selected on."""
    for trace in traces:
        pair = (trace.source, trace.target)
        assert trace.estimate != float("inf"), pair
        assert trace.delivered, pair
        assert trace.weight <= trace.estimate * (1 + 1e-9), pair


def detect_sources_logical(graph, sources, h, sigma, edge_length=None):
    """The per-source reference for ``(S, h, sigma)``-detection.

    One Dijkstra per source, pruned at ``h``, over integer edge lengths
    (``edge_length(u, v, w)``, default 1: the graph as unweighted); each
    node keeps the ``sigma`` lexicographically smallest ``(distance,
    source)`` pairs.  The output lists are unique, so ``batched`` and
    ``simulate`` must match them list for list; next hops point along a
    shortest path, but ties may break differently from the engines.
    """
    if h < 0 or sigma < 0:
        raise ValueError("h and sigma must be non-negative")
    length = edge_length if edge_length is not None else (lambda u, v, w: 1)
    best = {v: {} for v in graph.nodes()}
    for s in sorted(sources, key=repr):
        if not graph.has_node(s):
            raise ValueError(f"source {s!r} is not a node of the graph")
        dist, parent = {s: 0}, {s: None}
        heap, settled = [(0, s)], set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled or d > h:
                continue
            settled.add(u)
            for v, w in graph.neighbor_weights(u).items():
                nd = d + max(1, int(length(u, v, w)))
                if nd <= h and nd < dist.get(v, h + 1):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        for v, d in dist.items():
            # parent[v] precedes v on the path from s: v's next hop to s.
            best[v][s] = (d, parent[v])
    lists = {}
    for v in graph.nodes():
        entries = sorted((DetectionEntry(d, s, hop)
                          for s, (d, hop) in best[v].items()),
                         key=DetectionEntry.key)
        lists[v] = entries[:sigma]
    return SourceDetectionResult(
        lists=lists, h=h, sigma=sigma,
        metrics=CongestMetrics(rounds=h + sigma, measured=False))


def unplanned_pde(graph, sources, h, sigma, epsilon, reference=False):
    """The PDE oracle: every rounding level searches every source, then the fold.

    Each level runs the ``batched`` kernel on the interned graph, or with
    ``reference=True`` :func:`detect_sources_logical` on the labelled one.
    Returns the result and each level's labelled detection lists.
    """
    ranked = sorted(set(sources), key=repr)
    rounding = RoundingScheme(epsilon=epsilon, max_weight=graph.max_weight())
    horizon = rounding.horizon(h)
    csr = GraphCSR.from_graph(graph)
    node_id = csr.node_ids()
    table = [{} for _ in csr.nodes]
    per_level = {}
    for level in rounding.levels():
        if reference:
            detection = detect_sources_logical(
                graph, ranked, horizon, sigma,
                edge_length=rounding.edge_length_fn(level))
            lists = intern_detection_lists(
                detection.lists, node_id, {s: r for r, s in enumerate(ranked)})
        else:
            lists = dict(enumerate(bucket_detect(
                csr, level_adjacency(csr.weights, rounding.base(level)),
                [node_id[s] for s in ranked], horizon, sigma)))
        fold_detection_lists(lists, rounding, level, table)
        per_level[level] = materialize_detection(
            SourceDetectionResult(lists=lists, h=horizon, sigma=sigma),
            csr.nodes, ranked).lists
    metrics = [CongestMetrics(rounds=horizon + sigma, measured=False)
               for _ in rounding.levels()]
    result = finalize_pde_result(csr.nodes, ranked, h, sigma, epsilon,
                                 rounding, table, metrics, {}, False)
    return result, per_level
