"""Exact (centralized) Thorup–Zwick distance oracle — reference for Section 4.3.

The compact routing hierarchy of Section 4.3 is an approximate, distributed
construction of the Thorup–Zwick hierarchy [20].  For the ablation experiment
E8 (exact vs. approximate distances in the hierarchy) we implement the
classical centralized oracle with *exact* distances:

* levels ``A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}`` by geometric sampling with parameter
  ``n^{-1/k}``,
* pivots ``p_l(v)`` (the closest ``A_l``-node) and bunches
  ``B(v) = ∪_l { w in A_l \\ A_{l+1} : d(v, w) < d(v, A_{l+1}) }``,
* the classical query with stretch ``2k - 1``, and
* the label/hierarchy query used by the paper (route via ``s_l(w)`` for the
  minimal level ``l`` with ``s_l(w)`` in ``v``'s bunch) with stretch
  ``4k - 3`` — this is the query our distributed scheme implements, so the
  two can be compared level by level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..graphs.distances import dijkstra
from ..graphs.weighted_graph import WeightedGraph

__all__ = ["ExactThorupZwickOracle", "level_sets_of", "sample_levels"]


def sample_levels(nodes: List[Hashable], k: int, rng: random.Random) -> Dict[Hashable, int]:
    """Assign each node a level via the geometric process of Section 4.3.

    The probability of having level at least ``l`` is ``n^{-l/k}``; levels
    are capped at ``k - 1``.  The top level is forced to be non-empty (the
    paper conditions on this w.h.p. event).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = max(2, len(nodes))
    q = n ** (-1.0 / k)
    levels: Dict[Hashable, int] = {}
    for v in nodes:
        level = 0
        while level < k - 1 and rng.random() < q:
            level += 1
        levels[v] = level
    if not any(level == k - 1 for level in levels.values()) and nodes:
        levels[min(nodes, key=repr)] = k - 1
    return levels


def level_sets_of(levels: Dict[Hashable, int], k: int) -> List[Set[Hashable]]:
    """``S_l``, the nodes of level at least ``l``, for ``l < k``."""
    return [{v for v, lvl in levels.items() if lvl >= l} for l in range(k)]


@dataclass
class _Bunch:
    """Per-node exact TZ structures."""

    pivots: List[Hashable]            # p_l(v) per level
    pivot_dists: List[float]          # d(v, p_l(v)) per level
    bunch: Dict[Hashable, float]      # w -> d(v, w) for w in B(v)


class ExactThorupZwickOracle:
    """Classical Thorup–Zwick approximate distance oracle with exact distances."""

    def __init__(self, graph: WeightedGraph, k: int, seed: int = 0,
                 levels: Optional[Dict[Hashable, int]] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.graph = graph
        self.k = k
        rng = random.Random(seed)
        self.levels = levels if levels is not None else sample_levels(
            graph.nodes(), k, rng)
        self.level_sets = level_sets_of(self.levels, k)
        self._structures: Dict[Hashable, _Bunch] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # Exact distances from every node (the centralized reference can
        # afford full Dijkstra; the point of the paper is doing better
        # distributedly).
        dist_from: Dict[Hashable, Dict[Hashable, float]] = {}
        for v in self.graph.nodes():
            dist_from[v], _ = dijkstra(self.graph, v)

        for v in self.graph.nodes():
            pivots: List[Hashable] = []
            pivot_dists: List[float] = []
            for l in range(self.k):
                candidates = [
                    (dist_from[v].get(s, float("inf")), repr(s), s)
                    for s in self.level_sets[l]
                ]
                d, _, s = min(candidates)
                pivots.append(s)
                pivot_dists.append(d)
            bunch: Dict[Hashable, float] = {}
            for l in range(self.k):
                next_dist = pivot_dists[l + 1] if l + 1 < self.k else float("inf")
                for w in self.level_sets[l]:
                    if l + 1 < self.k and w in self.level_sets[l + 1]:
                        continue
                    d = dist_from[v].get(w, float("inf"))
                    if d < next_dist:
                        bunch[w] = d
            # The node itself and all top-level nodes always belong.
            bunch[v] = 0.0
            for w in self.level_sets[self.k - 1]:
                bunch[w] = dist_from[v].get(w, float("inf"))
            self._structures[v] = _Bunch(pivots=pivots, pivot_dists=pivot_dists,
                                         bunch=bunch)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bunch_size(self, node: Hashable) -> int:
        return len(self._structures[node].bunch)

    def pivot(self, node: Hashable, level: int) -> Tuple[Hashable, float]:
        s = self._structures[node]
        return s.pivots[level], s.pivot_dists[level]

    def query(self, u: Hashable, v: Hashable) -> float:
        """The classical TZ query: stretch at most ``2k - 1``."""
        if u == v:
            return 0.0
        su = self._structures[u]
        sv = self._structures[v]
        w = u
        i = 0
        d_uw = 0.0
        while w not in sv.bunch:
            i += 1
            u, v = v, u
            su, sv = sv, su
            w = su.pivots[i]
            d_uw = su.pivot_dists[i]
        return d_uw + sv.bunch[w]

    def hierarchy_query(self, u: Hashable, v: Hashable) -> Tuple[float, int]:
        """The paper's query: route via ``p_l(v)`` for the minimal level ``l``
        such that ``p_l(v)`` lies in ``u``'s bunch.  Stretch at most ``4k-3``.

        Returns ``(estimate, level_used)``.
        """
        if u == v:
            return 0.0, 0
        su = self._structures[u]
        sv = self._structures[v]
        for level in range(self.k):
            pivot = v if level == 0 else sv.pivots[level]
            if pivot in su.bunch:
                via = su.bunch[pivot] + (0.0 if level == 0 else sv.pivot_dists[level])
                return via, level
        # Unreachable for connected graphs: the top-level pivot of v is in
        # every bunch by construction.
        return float("inf"), self.k  # pragma: no cover

    # ------------------------------------------------------------------
    def max_bunch_size(self) -> int:
        return max(self.bunch_size(v) for v in self.graph.nodes())

    def average_bunch_size(self) -> float:
        sizes = [self.bunch_size(v) for v in self.graph.nodes()]
        return sum(sizes) / len(sizes)
