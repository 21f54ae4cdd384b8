"""Helpers shared by test modules (plain imports, not fixtures)."""

import functools
import heapq
import threading

import pytest

from repro import graphs
from repro.congest.metrics import CongestMetrics
from repro.core.pde import (finalize_pde_result, fold_detection_lists,
                            intern_detection_lists, level_adjacency)
from repro.core.source_detection import (DetectionEntry, GraphCSR,
                                         SourceDetectionResult, bucket_detect,
                                         materialize_detection)
from repro.core.weight_rounding import RoundingScheme
from repro.graphs.weighted_graph import WeightedGraph
from repro.routing.tables import RouteTrace
from repro.serving import workload_names

#: ``(shape, params)`` query streams for the list-for-list identity tests:
#: every workload shape with its defaults, plus Zipf at two more skews, so
#: each identity test runs on four streams.
#: Sentinel for "absent from a bunch" in the query reference.
_ABSENT = object()

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


def disconnected_er(n, seed):
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


def select_level_reference(hierarchy, source, target):
    """The per-pair level selection the batch loop replaced: the minimal
    level ``l`` with ``s'_l(target)`` in ``source``'s bunch, as ``(l, pivot,
    estimate)``, or ``(k, None, inf)``."""
    for l in range(hierarchy.k):
        pivot = target if l == 0 else hierarchy.pivots[l][target]
        if pivot is None:
            continue
        estimate = hierarchy.level_data[l].bunches[source].get(pivot, _ABSENT)
        if estimate is not _ABSENT:
            tail = 0.0 if l == 0 else hierarchy.pivot_dists[l][target]
            return l, pivot, estimate + tail
    return hierarchy.k, None, float("inf")


def _skeleton_leg_reference(hierarchy, node, pivot, level):
    """``node``'s path to ``pivot`` through the skeleton and its weight, or
    ``None``: the first-minimum anchor scanned afresh for every call (the
    hierarchy memoises it), then the anchor's attach-tree path and tail."""
    if node == pivot:
        return [node], 0
    tails, _ = hierarchy._skeleton_tails(level, pivot)
    anchor, best = None, float("inf")
    for t, dt in hierarchy.skeleton_anchors.get(node, {}).items():
        row = tails.get(t)
        if row is not None and dt + row[0] < best:
            anchor, best = t, dt + row[0]
    if anchor is None:
        return None
    tree = hierarchy.attach_trees[anchor]
    if not tree.contains(node):
        return None
    _, tail, tail_weight = tails[anchor]
    path = tree.path_to_root(node)
    path.extend(tail)
    return path, tree.dist[node] + tail_weight


def route_reference(hierarchy, source, target):
    """The per-pair route the batch loop replaced: both skeleton legs built
    separately and joined as ``up + down[-2::-1]``."""
    if source == target:
        return RouteTrace(source=source, target=target, path=[source],
                          delivered=True, weight=0.0, estimate=0.0)
    level, pivot, estimate = select_level_reference(hierarchy, source, target)
    path = None
    if pivot is not None and hierarchy.level_data[level].skeleton_level:
        up = _skeleton_leg_reference(hierarchy, source, pivot, level)
        down = _skeleton_leg_reference(hierarchy, target, pivot, level)
        if up is not None and down is not None:
            path = up[0] + down[0][-2::-1]
            weight = up[1] + down[1]
    elif pivot is not None:
        tree = hierarchy.level_data[level].trees.get(pivot)
        if tree is not None and tree.contains(source) \
                and tree.contains(target):
            path, weight = tree.tree_route(source, target)
    if path is None:
        return RouteTrace(source=source, target=target, path=[source],
                          estimate=float("inf"))
    return RouteTrace(source=source, target=target, path=path,
                      delivered=True, weight=weight, estimate=estimate)


def distance_reference(hierarchy, source, target):
    """The per-pair distance estimate the batch loop replaced."""
    if source == target:
        return 0.0
    return select_level_reference(hierarchy, source, target)[2]


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
