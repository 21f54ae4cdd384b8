"""Graph distance machinery: the concepts of Section 2.2 of the paper.

This module provides reference (centralized) implementations of every
distance notion the paper uses:

* hop distance ``hd`` and the hop diameter ``D``,
* weighted distance ``wd`` and the weighted diameter ``WD``,
* ``h``-hop distances (minimum weight over paths of at most ``h`` hops),
* minimum-hop shortest weighted paths and the shortest path diameter ``SPD``.

These are used both as ground truth in tests and benchmarks (stretch is
always measured against ``wd``) and as the computational core of the
centralized (non-simulated) computations of the distributed algorithms.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .weighted_graph import WeightedGraph

__all__ = [
    "INFINITY",
    "dijkstra",
    "dijkstra_with_hops",
    "all_pairs_weighted_distances",
    "bfs_hop_distances",
    "all_pairs_hop_distances",
    "hop_diameter",
    "weighted_diameter",
    "shortest_path_diameter",
    "h_hop_distances",
    "h_hop_distances_from_sources",
    "path_weight",
    "path_hops",
    "reconstruct_path",
]

INFINITY = float("inf")


def dijkstra(graph: WeightedGraph, source: Hashable,
             weight_fn=None) -> Tuple[Dict[Hashable, float], Dict[Hashable, Optional[Hashable]]]:
    """Single-source shortest weighted paths.

    Returns ``(dist, parent)`` where ``dist[v]`` is the weighted distance
    ``wd(source, v)`` as a ``float`` and ``parent[v]`` is the predecessor of
    ``v`` on a shortest path from ``source`` (``None`` for the source
    itself).  Nodes unreachable from ``source`` are omitted from both dicts
    (the sparse-dict contract shared by every distance function in this
    module); all distance values are ``float`` so results from the different
    distance functions compare and serialise consistently.

    ``weight_fn(u, v, w)`` may be supplied to reinterpret edge weights (used
    by the rounding machinery of Section 3).
    """
    dist: Dict[Hashable, float] = {source: 0.0}
    parent: Dict[Hashable, Optional[Hashable]] = {source: None}
    heap: List[Tuple[float, Hashable]] = [(0.0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in graph.neighbor_weights(u).items():
            edge_w = w if weight_fn is None else weight_fn(u, v, w)
            nd = d + float(edge_w)
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def dijkstra_with_hops(graph: WeightedGraph, source: Hashable
                       ) -> Tuple[Dict[Hashable, float], Dict[Hashable, int]]:
    """Weighted distances together with minimum hop counts among shortest paths.

    Returns ``(dist, hops)`` where ``hops[v]`` is the minimum number of hops
    over all shortest weighted paths from ``source`` to ``v`` (the quantity
    ``h_{source,v}`` of Section 2.2).  The search orders nodes
    lexicographically by ``(distance, hops)``.  Distances are ``float``;
    unreachable nodes are omitted (see :func:`dijkstra`).
    """
    dist: Dict[Hashable, float] = {source: 0.0}
    hops: Dict[Hashable, int] = {source: 0}
    heap: List[Tuple[float, int, Hashable]] = [(0.0, 0, source)]
    settled = set()
    while heap:
        d, hop, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in graph.neighbor_weights(u).items():
            nd = d + float(w)
            nh = hop + 1
            if nd < dist.get(v, INFINITY) or (
                    nd == dist.get(v, INFINITY) and nh < hops.get(v, float("inf"))):
                dist[v] = nd
                hops[v] = nh
                heapq.heappush(heap, (nd, nh, v))
    return dist, hops


def all_pairs_weighted_distances(graph: WeightedGraph
                                 ) -> Dict[Hashable, Dict[Hashable, float]]:
    """Exact all-pairs weighted distances (ground truth for stretch audits)."""
    return {v: dijkstra(graph, v)[0] for v in graph.nodes()}


def bfs_hop_distances(graph: WeightedGraph, source: Hashable) -> Dict[Hashable, int]:
    """Hop distances (unweighted BFS distances) from ``source``."""
    dist = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = level
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


def all_pairs_hop_distances(graph: WeightedGraph) -> Dict[Hashable, Dict[Hashable, int]]:
    """Hop distances between all pairs of nodes."""
    return {v: bfs_hop_distances(graph, v) for v in graph.nodes()}


def hop_diameter(graph: WeightedGraph) -> int:
    """The hop diameter ``D`` of the graph (max hop distance over all pairs).

    Raises :class:`ValueError` for disconnected graphs, matching the paper's
    assumption of a connected network.

    Exact, by iFUB (Crescenzi et al., TCS 2013): two double sweeps give a
    lower bound and candidate roots; from the root with the fewest nodes
    beyond half the bound, BFS levels are visited outside in.  Once every
    node farther than ``i`` from the root has had its eccentricity taken,
    every pair left is at most ``2i`` apart, so the bound is exact as soon as
    it reaches ``2i``.
    """
    nodes = graph.nodes()
    if not nodes:
        return 0
    start = max(nodes, key=graph.degree)
    roots = {start: bfs_hop_distances(graph, start)}
    if len(roots[start]) != len(nodes):
        raise ValueError("hop_diameter requires a connected graph")
    dist, lower = roots[start], 0
    for _ in range(2):
        a = max(dist, key=dist.get)
        from_a = bfs_hop_distances(graph, a)
        b = max(from_a, key=from_a.get)
        from_b = bfs_hop_distances(graph, b)
        length, lower = from_a[b], max(lower, max(from_b.values()))
        middle = next(v for v in nodes if from_a[v] == length // 2
                      and from_b[v] == length - length // 2)
        dist = roots[middle] = bfs_hop_distances(graph, middle)
    from_u = min(roots.values(),
                 key=lambda row: sum(2 * d > lower for d in row.values()))
    fringe: List[List[Hashable]] = [[] for _ in range(max(from_u.values()) + 1)]
    for v, d in from_u.items():
        fringe[d].append(v)
    lower = max(lower, len(fringe) - 1)
    for i in range(len(fringe) - 1, 0, -1):
        for v in fringe[i]:
            if lower >= 2 * i:
                return lower
            lower = max(lower, max(bfs_hop_distances(graph, v).values()))
    return lower


def weighted_diameter(graph: WeightedGraph) -> float:
    """The weighted diameter ``WD`` of the graph."""
    diameter = 0.0
    n = graph.num_nodes
    for v in graph.nodes():
        dist, _ = dijkstra(graph, v)
        if len(dist) != n:
            raise ValueError("weighted_diameter requires a connected graph")
        diameter = max(diameter, max(dist.values()))
    return diameter


def shortest_path_diameter(graph: WeightedGraph) -> int:
    """The shortest path diameter ``SPD``.

    ``SPD`` is the maximum, over all pairs ``(v, w)``, of the minimum hop
    length of a shortest *weighted* path between ``v`` and ``w``.
    """
    spd = 0
    n = graph.num_nodes
    for v in graph.nodes():
        _, hops = dijkstra_with_hops(graph, v)
        if len(hops) != n:
            raise ValueError("shortest_path_diameter requires a connected graph")
        spd = max(spd, max(hops.values()))
    return spd


def h_hop_distances(graph: WeightedGraph, source: Hashable, h: int
                    ) -> Dict[Hashable, float]:
    """``h``-hop distances from ``source``.

    ``wd_h(source, v)`` is the minimum weight over all ``source``-``v`` paths
    with at most ``h`` hops.  Nodes admitting no such path (conceptually at
    distance ``wd_h = infinity``) are *omitted* from the returned dict — the
    sparse-dict contract shared by every distance function in this module;
    use ``dist.get(v, INFINITY)`` to recover the total function.  All values
    are ``float``.  Computed with ``h`` rounds of Bellman–Ford relaxation,
    which mirrors exactly what an ``h``-round distributed relaxation can
    learn.
    """
    if h < 0:
        raise ValueError("h must be non-negative")
    dist = {source: 0.0}
    frontier = {source}
    for _ in range(h):
        updates: Dict[Hashable, float] = {}
        for u in frontier:
            du = dist[u]
            for v, w in graph.neighbor_weights(u).items():
                nd = du + float(w)
                if nd < dist.get(v, INFINITY) and nd < updates.get(v, INFINITY):
                    updates[v] = nd
        if not updates:
            break
        frontier = set()
        for v, nd in updates.items():
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                frontier.add(v)
        if not frontier:
            break
    return dist


def h_hop_distances_from_sources(graph: WeightedGraph, sources: Iterable[Hashable],
                                 h: int) -> Dict[Hashable, Dict[Hashable, float]]:
    """``h``-hop distances from every node to every source.

    Returns ``result[v][s] = wd_h(v, s)`` including only finite entries.
    """
    result: Dict[Hashable, Dict[Hashable, float]] = {v: {} for v in graph.nodes()}
    for s in sources:
        dist = h_hop_distances(graph, s, h)
        for v, d in dist.items():
            result[v][s] = d
    return result


def path_weight(graph: WeightedGraph, path: List[Hashable]) -> float:
    """Total weight of a path given as a node sequence."""
    return sum(graph.weight(path[i], path[i + 1]) for i in range(len(path) - 1))


def path_hops(path: List[Hashable]) -> int:
    """Hop length of a path given as a node sequence."""
    return max(0, len(path) - 1)


def reconstruct_path(parent: Dict[Hashable, Optional[Hashable]],
                     target: Hashable) -> List[Hashable]:
    """Reconstruct a root-to-target path from a parent map produced by Dijkstra."""
    if target not in parent:
        raise ValueError(f"target {target!r} unreachable")
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path
