"""Routing table construction with node relabeling — Theorem 4.5.

For a parameter ``k``, the scheme computes labels of ``O(log n)`` bits and
routing tables achieving stretch ``6k - 1 + o(1)`` in ``O~(n^{1/2+1/(4k)} + D)``
rounds, improving the ``O(k log k)`` stretch of the prior work [15].

Construction (Section 4.2):

1. Sample a skeleton ``S`` with probability ``p = n^{-1/2-1/(4k)}`` per node.
2. *Short range*: solve ``(1+eps)``-approximate ``(V, h, sigma)``-estimation
   with ``h = sigma = c log n / p``.  Every node ``v`` learns approximate
   distances and next hops to the ``~sigma`` closest nodes (list ``L_v``)
   and its closest skeleton node ``s'_v`` (Lemma 4.2).
3. *Long range*: solve ``(1+eps)``-approximate ``(S, h, |S|)``-estimation,
   giving every node distances/next hops to nearby skeleton nodes and the
   skeleton graph ``H`` on ``S`` (edge weights ``wd'_S``).  A ``(2k-1)``-
   spanner of ``H`` (Baswana–Sen) is made known to all nodes.
4. *Labels*: ``lambda(w) = (w, s'_w, wd'(w, s'_w), tree-label of w)``, where
   ``s'_w`` is ``w``'s closest skeleton node in the long-range estimation,
   ``wd'(w, s'_w)`` that estimate, and the tree label refers to ``s'_w``'s
   long-range tree — the tree of the step-3 next hops toward ``s'_w``, which
   holds ``w`` because ``w`` detected ``s'_w`` — in ``O(log n)`` bits.

Routing from ``v`` to ``w``: if ``w`` is in ``v``'s short-range list, follow
the short-range tree of ``w``; otherwise route up the long-range tree of the
skeleton node ``t`` minimising ``wd'(v, t) + wd'_H(t, s'_w)``, along the
skeleton spanner to ``s'_w``, and down ``s'_w``'s long-range tree to ``w``
(stretch ``(2 + O(eps)) + (2k-1)(3 + O(eps)) = 6k - 1 + o(1)`` by
Lemma 4.3).  These are the very paths the estimate ``dist_v(lambda(w))``
sums over, so every route is a path no heavier than its estimate: a route
is built only from tables and trees, never repaired at query time.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

from ..congest.bfs import build_bfs_tree, pipelined_broadcast_rounds
from ..congest.metrics import CongestMetrics, merge_metrics
from ..core.pde import PDEResult, solve_pde
from ..graphs.distances import dijkstra
from ..graphs.weighted_graph import WeightedGraph
from .cluster_trees import TreeFamily, build_destination_trees
from .skeleton import (
    build_skeleton_pde,
    default_detection_budget,
    default_sampling_probability,
    sample_skeleton,
)
from .spanner import baswana_sen_spanner, greedy_spanner
from .tables import Label, RouteTrace, RoutingTable
from .stretch import evaluate_routing

__all__ = ["RelabelingRoutingScheme", "RelabelingBuildReport"]


@dataclass
class RelabelingBuildReport:
    """Construction-time statistics for Theorem 4.5 accounting."""

    n: int
    k: int
    epsilon: float
    sampling_probability: float
    skeleton_size: int
    detection_budget: int
    rounds: int
    spanner_edges: int
    skeleton_edges: int
    label_bits_max: int

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


class RelabelingRoutingScheme:
    """The Theorem 4.5 routing scheme (build once, then query labels/routes)."""

    def __init__(self, graph: WeightedGraph, k: int, epsilon: float,
                 skeleton: Set[Hashable], pde_short: PDEResult, pde_skel: PDEResult,
                 home: Dict[Hashable, Hashable],
                 short_trees: TreeFamily, skeleton_trees: TreeFamily,
                 skeleton_graph: WeightedGraph,
                 spanner: WeightedGraph, metrics: CongestMetrics) -> None:
        self.graph = graph
        self.k = k
        self.epsilon = epsilon
        self.skeleton = skeleton
        self.pde_short = pde_short
        self.pde_skel = pde_skel
        self.home = home
        self.short_trees = short_trees
        self.skeleton_trees = skeleton_trees
        self.skeleton_graph = skeleton_graph
        self.spanner = spanner
        self.metrics = metrics
        self._spanner_dist: Dict[Hashable, Dict[Hashable, float]] = {}
        self._spanner_parent: Dict[Hashable, Dict[Hashable, Optional[Hashable]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: WeightedGraph, k: int, epsilon: float = 0.25,
              seed: int = 0, sampling_probability: Optional[float] = None,
              budget_constant: float = 2.0, spanner_method: str = "baswana_sen",
              engine: str = "batched") -> "RelabelingRoutingScheme":
        """Run the distributed construction (logically or on the simulator)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        n = graph.num_nodes
        rng = random.Random(seed)
        p = (sampling_probability if sampling_probability is not None
             else default_sampling_probability(n, k))
        skeleton = sample_skeleton(graph.nodes(), p, rng)
        budget = default_detection_budget(n, p, c=budget_constant)

        # Step 2: short-range estimation over all nodes.
        pde_short = solve_pde(graph, graph.nodes(), h=budget, sigma=budget,
                              epsilon=epsilon, engine=engine, store_levels=False)
        # Step 3: long-range estimation from the skeleton, and the skeleton
        # graph H on S with the approximate edge weights wd'_S.
        pde_skel, skeleton_graph = build_skeleton_pde(
            graph, skeleton, epsilon, h=budget, sigma=max(1, len(skeleton)),
            engine=engine)

        # Home skeleton node s'_v of every node (Lemma 4.2): the closest one
        # in the long-range estimation, whose tree (built below) holds v.
        home: Dict[Hashable, Hashable] = {}
        for v in graph.nodes():
            entry = pde_skel.closest_source_in(v, skeleton)
            # A node that detected no skeleton node has dist_home = inf, so
            # no long route ends there; attach it to the smallest one.
            home[v] = (entry.source if entry is not None
                       else min(skeleton, key=repr))

        # Short-range destination trees (one per destination, members = nodes
        # whose list contains the destination).
        short_trees = build_destination_trees(graph, pde_short)
        # Long-range trees toward every skeleton node from the second PDE:
        # the first mile climbs one, the last mile descends s'_w's.
        skeleton_trees = build_destination_trees(graph, pde_skel)

        # The (2k-1)-spanner of the skeleton graph, made globally known.
        if spanner_method == "greedy":
            spanner = greedy_spanner(skeleton_graph, k)
        elif spanner_method == "baswana_sen":
            spanner = baswana_sen_spanner(skeleton_graph, k, rng)
        else:
            raise ValueError(f"unknown spanner method {spanner_method!r}")
        # A route expands each spanner edge through the long-range trees;
        # every skeleton edge is a detection, so this holds by construction.
        if any(skeleton_trees.edge_path(a, b) is None
               for a, b, _ in spanner.edges()):
            raise RuntimeError("a spanner edge has no path through the "
                               "long-range trees")

        # Round accounting: the two PDE phases, the spanner construction on
        # the skeleton (simulated Baswana-Sen, O~(|S|^{1+1/k} + D)), the
        # broadcast of the spanner edges over a BFS tree, and tree labeling.
        bfs_height = build_bfs_tree(graph, graph.nodes()[0]).height
        spanner_rounds = int(math.ceil(
            len(skeleton) ** (1.0 + 1.0 / k) * max(1.0, math.log(max(2, n)))))
        broadcast_rounds = pipelined_broadcast_rounds(spanner.num_edges, bfs_height)
        labeling_rounds = skeleton_trees.max_depth() + short_trees.max_depth()
        extra = CongestMetrics(rounds=spanner_rounds + broadcast_rounds + labeling_rounds,
                               measured=False)
        metrics = merge_metrics(pde_short.metrics, pde_skel.metrics, extra,
                                sequential=True)

        return cls(graph=graph, k=k, epsilon=epsilon, skeleton=skeleton,
                   pde_short=pde_short, pde_skel=pde_skel, home=home,
                   short_trees=short_trees, skeleton_trees=skeleton_trees,
                   skeleton_graph=skeleton_graph,
                   spanner=spanner, metrics=metrics)

    # ------------------------------------------------------------------
    # labels and tables
    # ------------------------------------------------------------------
    def label_of(self, node: Hashable) -> Label:
        """The ``O(log n)``-bit label of Theorem 4.5."""
        s = self.home[node]
        tree = self.skeleton_trees[s]
        return Label(owner=node, fields={
            "home": s,
            "dist_home": self.pde_skel.estimate(node, s),
            "tree_label": tree.label_of(node) if tree.contains(node) else 0,
        })

    def table_of(self, node: Hashable) -> RoutingTable:
        """The local routing table of ``node`` (for size accounting)."""
        table = RoutingTable(owner=node)
        for entry in self.pde_short.list_of(node):
            if entry.next_hop is not None:
                table.next_hops[entry.source] = entry.next_hop
        skel_entries = {}
        for entry in self.pde_skel.list_of(node):
            skel_entries[entry.source] = (entry.estimate, entry.next_hop)
        table.extra["skeleton_list"] = skel_entries
        table.extra["tree_memberships"] = (
            self.short_trees.trees_containing(node)
            + self.skeleton_trees.trees_containing(node))
        table.extra["spanner"] = [(u, v, w) for u, v, w in self.spanner.edges()]
        return table

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _spanner_sssp(self, source: Hashable) -> Tuple[Dict[Hashable, float],
                                                       Dict[Hashable, Optional[Hashable]]]:
        if source not in self._spanner_dist:
            dist, parent = dijkstra(self.spanner, source)
            self._spanner_dist[source] = dist
            self._spanner_parent[source] = parent
        return self._spanner_dist[source], self._spanner_parent[source]

    def _is_short_range(self, source: Hashable, target: Hashable) -> bool:
        return self.pde_short.in_list(source, target)

    def long_range_fraction(self, pairs=None) -> float:
        """Share of ``pairs`` (default: every ordered pair) with ``source !=
        target`` that route on the long-range path — the regime the skeleton,
        the spanner and the ``6k - 1`` bound are about."""
        if pairs is None:
            pairs = itertools.permutations(self.graph.nodes(), 2)
        pairs = [(v, w) for v, w in pairs if v != w]
        return (sum(not self._is_short_range(v, w) for v, w in pairs)
                / max(1, len(pairs)))

    def _skeleton_entry(self, source: Hashable, home: Hashable
                        ) -> Tuple[Optional[Hashable], float]:
        """The skeleton node ``t`` of ``source``'s long-range list minimising
        ``wd'(source, t) + wd'_H(t, home)`` (the first, on a tie), and that
        sum."""
        home_dist, _ = self._spanner_sssp(home)
        best, best_cost = None, float("inf")
        for entry in self.pde_skel.list_of(source):
            cost = entry.estimate + home_dist.get(entry.source, float("inf"))
            if cost < best_cost:
                best, best_cost = entry.source, cost
        return best, best_cost

    def distance(self, source: Hashable, target: Hashable) -> float:
        """The distance estimate ``dist_v(lambda(w))`` (never below ``wd``)."""
        if source == target:
            return 0.0
        if self._is_short_range(source, target):
            return self.pde_short.estimate(source, target)
        label = self.label_of(target)
        _, cost = self._skeleton_entry(source, label.get("home"))
        return cost + label.get("dist_home")

    def route(self, source: Hashable, target: Hashable) -> RouteTrace:
        """Trace the stateless route induced by the scheme's tables.

        The route follows the paths its estimate sums over, and its weight
        is summed from their trees' ``dist`` tables; a pair they do not
        connect (a disconnected graph) comes back undelivered with an
        infinite estimate.
        """
        if source == target:
            return RouteTrace(source=source, target=target, path=[source],
                              delivered=True, weight=0.0, estimate=0.0)
        if self._is_short_range(source, target):
            # source's list holds target, so target's short-range tree holds
            # source.
            tree = self.short_trees[target]
            return RouteTrace(source=source, target=target,
                              path=tree.path_to_root(source), delivered=True,
                              weight=tree.dist[source],
                              estimate=self.pde_short.estimate(source, target))
        label = self.label_of(target)
        home = label.get("home")
        entry, cost = self._skeleton_entry(source, home)
        estimate = cost + label.get("dist_home")
        if estimate == float("inf"):
            return RouteTrace(source=source, target=target, path=[source],
                              estimate=estimate)
        # Up the entry node's long-range tree (source's list holds it) ...
        tree = self.skeleton_trees[entry]
        path, weight = tree.path_to_root(source), tree.dist[source]
        # ... along the spanner to s'_w, each edge expanded as the build
        # checked ...
        _, parent = self._spanner_sssp(home)
        while entry != home:
            hop, hop_weight = self.skeleton_trees.edge_path(entry, parent[entry])
            path += hop[1:]
            weight += hop_weight
            entry = parent[entry]
        # ... and down s'_w's long-range tree, which holds target.
        tree = self.skeleton_trees[home]
        path += tree.path_to_root(target)[-2::-1]
        return RouteTrace(source=source, target=target, path=path,
                          delivered=True, weight=weight + tree.dist[target],
                          estimate=estimate)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def theoretical_stretch_bound(self) -> float:
        """The Theorem 4.5 bound ``6k - 1`` (the ``o(1)`` term is epsilon-driven)."""
        return 6 * self.k - 1

    def build_report(self) -> RelabelingBuildReport:
        n = self.graph.num_nodes
        label_bits = max(self.label_of(v).bits(n) for v in self.graph.nodes())
        return RelabelingBuildReport(
            n=n,
            k=self.k,
            epsilon=self.epsilon,
            sampling_probability=default_sampling_probability(n, self.k),
            skeleton_size=len(self.skeleton),
            detection_budget=self.pde_short.h,
            rounds=self.metrics.rounds,
            spanner_edges=self.spanner.num_edges,
            skeleton_edges=self.skeleton_graph.num_edges,
            label_bits_max=label_bits,
        )

    def audit(self, pairs=None) -> Dict[str, float]:
        """End-to-end routing audit (delivery rate and stretch statistics)."""
        report = evaluate_routing(self, self.graph, pairs=pairs)
        summary = report.as_dict()
        summary["stretch_bound"] = self.theoretical_stretch_bound()
        return summary
