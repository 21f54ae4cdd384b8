"""Approximate Thorup–Zwick routing hierarchy — Theorems 4.8 and 4.13.

The compact-routing results of Section 4.3 build the Thorup–Zwick hierarchy
with ``(1+eps)``-approximate distances obtained from partial distance
estimation, achieving stretch ``4k - 3 + o(1)`` with tables of ``O~(n^{1/k})``
words and labels of ``O(k log n)`` bits.

Hierarchy (Section 4.3):

1. Every node draws a level from a geometric distribution: level at least
   ``l`` with probability ``n^{-l/k}``; ``S_l`` is the set of nodes of level
   at least ``l`` (``S_0 = V``).
2. Per level ``l``, a PDE instance with source set ``S_l`` gives every node
   approximate distances to its closest ``~n^{1/k} log n`` level-``l`` nodes
   (Lemma 4.7); from it each node derives its pivot ``s'_{l+1}(v)`` (closest
   ``S_{l+1}`` node) and its bunch ``S'_l(v)`` (level-``l`` nodes closer than
   the pivot).
3. Routing from ``v`` to ``w`` uses the minimal level ``l`` with
   ``s'_l(w) in S'_l(v)``: climb the tree of ``s'_l(w)`` from ``v`` and
   descend to ``w`` using ``w``'s tree-routing label (Lemma 4.6 bounds the
   stretch by ``4k - 3 + o(1)``).

Three construction modes map to the paper's variants:

* ``mode="budget"`` — Lemma 4.7 budgets ``h_{l+1} = c n^{(l+1)/k} log n``.
* ``mode="spd"`` — Theorem 4.8: every level uses ``h = SPD`` (requires the
  shortest-path diameter, or an upper bound on it, as input).
* ``mode="truncated"`` — Theorem 4.13: levels ``>= l0`` are built on the
  skeleton graph ``G~(l0)`` (Definition 4.9 / Corollary 4.11), with the
  skeleton-level computation "simulated" globally via a BFS tree; rounds are
  accounted per Lemma 4.12.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..congest.bfs import build_bfs_tree, pipelined_broadcast_rounds
from ..congest.metrics import CongestMetrics, merge_metrics
from ..core.pde import PDEInstance, PDEResult, solve_pde_instances
from ..graphs.distances import shortest_path_diameter
from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import NULL_REGISTRY
from .cluster_trees import TreeFamily, build_destination_trees
from .skeleton import skeleton_graph_from_pde
from .tables import Label, RouteTrace, RoutingTable
from .tz_exact import level_sets_of, sample_levels
from .stretch import evaluate_routing

__all__ = ["CompactRoutingHierarchy", "HierarchyBuildReport", "QUERY_KERNELS"]

#: Sentinel distinguishing "absent from the bunch" from any real estimate.
_ABSENT = object()

#: Query-kernel names, kept only so that ``kernel=`` arguments still
#: validate: the name selects nothing, since every hierarchy selects levels
#: through :meth:`CompactRoutingHierarchy._select_levels` over plain dicts.
#: The follow-up benchmark change that drops ``kernel=`` from
#: ``benchmarks/e2e`` deletes it, with ``kernel=`` and ``--kernel``.
QUERY_KERNELS = {"dict": "dict", "columnar": "dict", "auto": "dict"}


@dataclass
class HierarchyBuildReport:
    """Construction statistics for the Theorem 4.8 / 4.13 accounting."""

    n: int
    k: int
    epsilon: float
    mode: str
    l0: Optional[int]
    level_sizes: List[int]
    rounds: int
    max_bunch_size: int
    avg_bunch_size: float
    max_table_words: int
    avg_table_words: float
    max_label_bits: int
    bunch_overflows: int

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class _LevelData:
    """What queries, tables and reports read of level ``l``: its budgets,
    bunches and trees (the estimates they were cut from die with the
    build)."""

    h: int
    sigma: int
    bunches: Dict[Hashable, Dict[Hashable, float]] = field(default_factory=dict)
    trees: Optional[TreeFamily] = None
    skeleton_level: bool = False
    overflow_count: int = 0


class CompactRoutingHierarchy:
    """Compact routing tables with stretch ``4k - 3 + o(1)`` (Section 4.3)."""

    def __init__(self, graph: WeightedGraph, k: int, epsilon: float, mode: str,
                 l0: Optional[int], levels: Dict[Hashable, int],
                 level_sets: List[Set[Hashable]], level_data: List[_LevelData],
                 pivots: Dict[int, Dict[Hashable, Hashable]],
                 pivot_dists: Dict[int, Dict[Hashable, float]],
                 skeleton_anchors: Optional[Dict[Hashable, Dict[Hashable, float]]],
                 skeleton_graph: Optional[WeightedGraph],
                 attach_trees: Optional[TreeFamily], skeleton_trees: Dict[int, TreeFamily],
                 metrics: CongestMetrics) -> None:
        self.graph = graph
        self.k = k
        self.epsilon = epsilon
        self.mode = mode
        self.l0 = l0
        self.levels = levels
        self.level_sets = level_sets
        self.level_data = level_data
        self.pivots = pivots
        self.pivot_dists = pivot_dists
        #: Theorem 4.13's skeleton lists, ``node -> {t in S_l0: wd'(node, t)}``
        #: in the skeleton PDE's order; ``None`` unless truncated.
        self.skeleton_anchors = skeleton_anchors
        self.skeleton_graph = skeleton_graph
        self.attach_trees = attach_trees
        self.skeleton_trees = skeleton_trees
        self.metrics = metrics
        self.build_params: Dict[str, object] = {}
        self._skeleton_tail_tables: Dict[Tuple[int, Hashable], Tuple[Dict, Dict]] = {}
        #: Telemetry registry for batch-query spans (``metrics`` is taken by
        #: the paper-side :class:`CongestMetrics` accounting).  The no-op
        #: singleton by default; the serving layer swaps in a live registry
        #: via :meth:`set_metrics_registry` when telemetry is enabled.
        self._obs_metrics = NULL_REGISTRY

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def build(cls, graph: WeightedGraph, k: int, epsilon: float = 0.25,
              seed: int = 0, mode: str = "budget", l0: Optional[int] = None,
              budget_constant: float = 2.0, spd: Optional[int] = None,
              engine: str = "batched", build_workers: int = 1,
              registry=None) -> "CompactRoutingHierarchy":
        """Build the approximate hierarchy.

        Parameters
        ----------
        mode:
            ``"budget"`` (Lemma 4.7), ``"spd"`` (Theorem 4.8) or
            ``"truncated"`` (Theorem 4.13, requires ``l0``).
        l0:
            Truncation level for ``mode="truncated"``; per Theorem 4.13 it
            should satisfy ``k/2 + 1 <= l0 <= k``.
        spd:
            Optional upper bound on the shortest-path diameter for
            ``mode="spd"`` (computed exactly when omitted).
        engine:
            Per-level PDE detection engine, ``"batched"`` or ``"simulate"``
            (forwarded to :func:`repro.core.pde.solve_pde`).  Skeleton-level
            instances are globally simulated per Lemma 4.12, so they build
            with ``"batched"`` under either engine (the rounds are accounted
            analytically).
        build_workers:
            Processes the level stream runs on.  The per-level instances
            are always put on one stream
            (:func:`repro.core.pde.solve_pde_instances`); ``1`` (default)
            solves each rounding level in-process as its fold comes up,
            ``> 1`` (``"batched"`` only) on a pool.  The built hierarchy is
            *identical* either way — down to the artifact checksum.
        registry:
            Optional telemetry registry for build-stage spans
            (``level_solve``, ``build_scatter``, ``build_merge``).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if mode not in ("budget", "spd", "truncated"):
            raise ValueError(f"unknown mode {mode!r}")
        obs = registry if registry is not None else NULL_REGISTRY
        if mode == "truncated":
            if k < 2:
                raise ValueError("truncated mode needs k >= 2")
            if l0 is None:
                l0 = max(1, min(k - 1, k // 2 + 1))
            if not 1 <= l0 <= k - 1:
                raise ValueError("l0 must satisfy 1 <= l0 <= k-1")
        else:
            l0 = None

        n = graph.num_nodes
        rng = random.Random(seed)
        levels = sample_levels(graph.nodes(), k, rng)
        level_sets = level_sets_of(levels, k)

        log_n = max(1.0, math.log(max(2, n)))
        spd_value = None
        if mode == "spd":
            spd_value = spd if spd is not None else shortest_path_diameter(graph)

        # Lemma 4.7's budgets: ceil(c n^{steps/k} ln n) clamped to [1, cap]; a
        # list length sigma is its steps = 1 case, but S_{k-1} is kept whole.
        def budget(steps: int, cap: int) -> int:
            return max(1, min(cap, math.ceil(budget_constant * n ** (steps / k) * log_n)))

        def sigma_of(l: int) -> int:
            size = len(level_sets[l])
            return max(1, size) if l == k - 1 else budget(1, size)

        def level_budgets(l: int) -> Tuple[int, int]:
            h = (n if l == k - 1 else max(1, int(spd_value)) if mode == "spd"
                 else budget(l + 1, n))
            return h, sigma_of(l)

        level_data: List[_LevelData] = []
        # Each level's estimate lists: the bunches and pivots below are cut
        # from them, and the hierarchy keeps none of them.
        estimates: List[Dict[Hashable, Dict[Hashable, float]]] = []
        level_metrics: List[CongestMetrics] = []
        pde_results: List[Optional[PDEResult]] = []

        # --- levels computed directly on G --------------------------------
        # In truncated mode the level-l0 skeleton estimation also runs on G
        # and is independent of the direct levels, so it rides on the same
        # level stream (phase A); skeleton levels depend on its output and
        # form a second stream (phase B) below.
        direct_levels = list(range(k) if mode != "truncated" else range(l0))
        direct_budgets = {l: level_budgets(l) for l in direct_levels}
        instances = [
            PDEInstance(token="graph", sources=tuple(level_sets[l]),
                        h=direct_budgets[l][0], sigma=direct_budgets[l][1],
                        epsilon=epsilon, engine=engine)
            for l in direct_levels
        ]
        if mode == "truncated":
            instances.append(
                PDEInstance(token="graph", sources=tuple(level_sets[l0]),
                            h=budget(l0, n), sigma=max(1, len(level_sets[l0])),
                            epsilon=epsilon, engine=engine))
        direct_pdes = solve_pde_instances(instances, {"graph": graph},
                                          build_workers=build_workers,
                                          registry=obs)
        pde_skel: Optional[PDEResult] = (direct_pdes.pop()
                                         if mode == "truncated" else None)

        for l, pde in zip(direct_levels, direct_pdes):
            h, sigma = direct_budgets[l]
            pde_results.append(pde)
            level_metrics.append(pde.metrics)
            level_data.append(_LevelData(h=h, sigma=sigma))
            estimates.append(pde.estimates)

        skeleton_anchors: Optional[Dict[Hashable, Dict[Hashable, float]]] = None
        skeleton_graph: Optional[WeightedGraph] = None
        attach_trees: Optional[TreeFamily] = None
        skeleton_trees: Dict[int, TreeFamily] = {}

        # --- truncated levels computed on the skeleton graph ---------------
        if mode == "truncated":
            level_metrics.append(pde_skel.metrics)
            skeleton_graph = skeleton_graph_from_pde(pde_skel, level_sets[l0])
            attach_trees = build_destination_trees(graph, pde_skel)
            # sigma = |S_l0| cuts no list, so the estimates are the lists.
            skeleton_anchors = pde_skel.estimates
            # A skeleton route expands each skeleton edge through the attach
            # trees; every edge is a detection, so this holds by construction.
            if any(attach_trees.edge_path(a, b) is None
                   for a, b, _ in skeleton_graph.edges()):
                raise RuntimeError("a skeleton edge has no path through the "
                                   "attach trees")

            bfs_height = build_bfs_tree(graph, graph.nodes()[0]).height
            # The skeleton computation is simulated globally (Lemma 4.12),
            # so the faithful CONGEST engine does not apply here: skeleton
            # levels always build with the default "batched" engine.
            # Every S_l is non-empty (the top level is), and a skeleton with
            # no edges — a single node, say — is solved like any other: its
            # PDE is the identity, wd'_sk(t, t) = 0.
            skel_levels = [(l, budget(l + 1 - l0, max(1, skeleton_graph.num_nodes)),
                            sigma_of(l)) for l in range(l0, k)]
            sk_instances = {
                l: PDEInstance(token="skeleton", sources=tuple(level_sets[l]),
                               h=h_skel, sigma=sigma, epsilon=epsilon)
                for l, h_skel, sigma in skel_levels}
            sk_solved = dict(zip(sk_instances, solve_pde_instances(
                list(sk_instances.values()), {"skeleton": skeleton_graph},
                build_workers=build_workers, registry=obs)))

            for l, h_skel, sigma in skel_levels:
                pde_sk = sk_solved[l]
                pde_results.append(pde_sk)
                skeleton_trees[l] = build_destination_trees(skeleton_graph, pde_sk)
                # Lemma 4.12 round accounting for the global simulation of
                # the skeleton computation over a BFS tree.
                broadcasts = skeleton_graph.num_nodes * sigma * sigma
                sim_rounds = pipelined_broadcast_rounds(broadcasts, bfs_height) \
                    + (h_skel + sigma) * max(1, bfs_height)
                level_metrics.append(CongestMetrics(rounds=sim_rounds, measured=False))

                # Combined estimates wd'(v, s) = min_t wd'_skel(v, t) + wd'_sk(t, s)
                combined: Dict[Hashable, Dict[Hashable, float]] = {}
                for v in graph.nodes():
                    row: Dict[Hashable, float] = {}
                    anchors = dict(skeleton_anchors.get(v, {}))
                    if v in level_sets[l0]:
                        anchors[v] = 0.0
                    for t, dt in anchors.items():
                        for s, ds in pde_sk.estimates.get(t, {}).items():
                            total = dt + ds
                            if total < row.get(s, float("inf")):
                                row[s] = total
                    combined[v] = row
                level_data.append(_LevelData(h=h_skel, sigma=sigma,
                                             skeleton_level=True))
                estimates.append(combined)

        # --- bunches, pivots, trees ----------------------------------------
        pivots: Dict[int, Dict[Hashable, Hashable]] = {}
        pivot_dists: Dict[int, Dict[Hashable, float]] = {}
        next_pivot: List[Dict[Hashable, Optional[Hashable]]] = [
            {} for _ in range(k)]
        next_pivot_dist: List[Dict[Hashable, float]] = [{} for _ in range(k)]

        for l in range(k):
            data = level_data[l]
            sources = level_sets[l]
            upper = level_sets[l + 1] if l + 1 < k else None
            for v in graph.nodes():
                row = estimates[l].get(v, {})
                # Closest next-level node according to this level's estimates.
                if upper is not None:
                    best = None
                    for s, est in row.items():
                        if s in upper and (best is None or (est, repr(s)) < best[:2]):
                            best = (est, repr(s), s)
                    if best is not None:
                        next_pivot[l][v] = best[2]
                        next_pivot_dist[l][v] = best[0]
                    else:
                        next_pivot[l][v] = None
                        next_pivot_dist[l][v] = float("inf")
                        data.overflow_count += 1
                else:
                    next_pivot[l][v] = None
                    next_pivot_dist[l][v] = float("inf")
                # Bunch: level-l nodes strictly closer than the next pivot.
                cutoff = (next_pivot_dist[l][v], repr(next_pivot[l][v]))
                bunch = {}
                for s, est in row.items():
                    if s not in sources:
                        continue
                    if upper is None or (est, repr(s)) < cutoff:
                        bunch[s] = est
                data.bunches[v] = bunch

        # Pivots s'_l(v) for l >= 1 come from the level-(l-1) estimation.
        for l in range(1, k):
            pivots[l] = {}
            pivot_dists[l] = {}
            sources = level_sets[l]
            for v in graph.nodes():
                source = next_pivot[l - 1].get(v)
                dist = next_pivot_dist[l - 1].get(v, float("inf"))
                if source is None:
                    # Fall back to the closest level-l node seen at level l.
                    row = estimates[l].get(v, {})
                    best = None
                    for s, est in row.items():
                        if s in sources and (best is None or (est, repr(s)) < best[:2]):
                            best = (est, repr(s), s)
                    if best is not None:
                        source, dist = best[2], best[0]
                if source is None and sources:
                    source = min(sources, key=repr)
                    dist = float("inf")
                pivots[l][v] = source
                pivot_dists[l][v] = 0.0 if v == source else dist

        # Destination trees for directly-computed levels.
        for l in direct_levels:
            data = level_data[l]
            pde = pde_results[l]
            members: Dict[Hashable, Set[Hashable]] = {s: set() for s in level_sets[l]}
            for v in graph.nodes():
                for s in data.bunches[v]:
                    members[s].add(v)
                if l >= 1 and pivots[l].get(v) in members:
                    members[pivots[l][v]].add(v)
            data.trees = build_destination_trees(graph, pde, destinations=sorted(
                level_sets[l], key=repr), members_of=members)

        metrics = merge_metrics(*level_metrics, sequential=True)
        hierarchy = cls(graph=graph, k=k, epsilon=epsilon, mode=mode, l0=l0,
                        levels=levels, level_sets=level_sets, level_data=level_data,
                        pivots=pivots, pivot_dists=pivot_dists,
                        skeleton_anchors=skeleton_anchors,
                        skeleton_graph=skeleton_graph, attach_trees=attach_trees,
                        skeleton_trees=skeleton_trees, metrics=metrics)
        hierarchy.build_params = {
            "k": k, "epsilon": epsilon, "seed": seed, "mode": mode, "l0": l0,
            "budget_constant": budget_constant, "spd": spd, "engine": engine,
        }
        return hierarchy

    # ==================================================================
    # labels and tables
    # ==================================================================
    def label_of(self, node: Hashable) -> Label:
        """Label of ``O(k log n)`` bits: per level the pivot, its distance and
        the tree-routing label of ``node`` in that pivot's tree."""
        pivot_ids: List[Hashable] = []
        pivot_ds: List[float] = []
        tree_labels: List[int] = []
        for l in range(1, self.k):
            s = self.pivots[l][node]
            pivot_ids.append(s)
            pivot_ds.append(self.pivot_dists[l][node])
            data = self.level_data[l]
            label_value = 0
            if data.trees is not None:
                tree = data.trees.get(s)
                if tree is not None and tree.contains(node):
                    label_value = tree.label_of(node)
            tree_labels.append(label_value)
        return Label(owner=node, fields={
            "pivots": tuple(pivot_ids),
            "pivot_dists": tuple(pivot_ds),
            "tree_labels": tuple(tree_labels),
        })

    def table_of(self, node: Hashable) -> RoutingTable:
        table = RoutingTable(owner=node)
        bunch_entries = {}
        for l in range(self.k):
            for s, est in self.level_data[l].bunches[node].items():
                bunch_entries[(l, s)] = est
        table.extra["bunches"] = bunch_entries
        memberships = []
        for l in range(self.k):
            data = self.level_data[l]
            if data.trees is not None:
                memberships.extend((l, d) for d in data.trees.trees_containing(node))
        table.extra["tree_memberships"] = memberships
        if self.skeleton_anchors is not None:
            table.extra["skeleton_list"] = dict(
                self.skeleton_anchors.get(node, {}))
        return table

    def table_words(self, node: Hashable) -> int:
        return self.table_of(node).words()

    # ==================================================================
    # queries
    # ==================================================================
    def set_metrics_registry(self, registry) -> None:
        """Attach a telemetry registry for batch-query spans.

        Pass :data:`~repro.obs.metrics.NULL_REGISTRY` to detach.  Called by
        the serving layer; harmless to leave at the default no-op registry.
        """
        self._obs_metrics = registry

    def _select_levels(self, pairs) -> Iterator[Tuple[int, Hashable, float]]:
        """Per pair, ``(l, s'_l(target), estimate)`` for the minimal level
        ``l`` with ``s'_l(target)`` in ``source``'s bunch: at most ``k`` bunch
        probes a pair, each level's dicts fetched once a call; ``(k, None,
        inf)`` if none, and ``(0, target, 0.0)`` unprobed when ``s == t``."""
        upper = [(l, self.pivots[l], self.pivot_dists[l],
                  self.level_data[l].bunches) for l in range(1, self.k)]
        bunches = self.level_data[0].bunches
        for source, target in pairs:
            row = bunches[source]       # an unknown node raises, even alone
            estimate = 0.0 if source == target else row.get(target, _ABSENT)
            if estimate is not _ABSENT:
                yield 0, target, estimate
                continue
            for l, pivots, dists, level_bunches in upper:
                pivot = pivots[target]
                if pivot is not None:
                    estimate = level_bunches[source].get(pivot, _ABSENT)
                    if estimate is not _ABSENT:
                        yield l, pivot, estimate + dists[target]
                        break
            else:
                yield self.k, None, float("inf")

    def distance(self, source: Hashable, target: Hashable) -> float:
        """Distance estimate from ``source``'s table and ``target``'s label."""
        return next(self._select_levels([(source, target)]))[2]

    @staticmethod
    def query_kernel(kernel: str = "auto") -> None:
        """Check that ``kernel`` names a :data:`QUERY_KERNELS` entry; the name
        selects nothing.  Kept for the callers in ``benchmarks/e2e``; the
        benchmark change that drops ``kernel=`` deletes it."""
        if kernel not in QUERY_KERNELS:
            raise ValueError(f"unknown query kernel {kernel!r}; available: "
                             f"{', '.join(sorted(QUERY_KERNELS))}")

    def distance_batch(self, pairs: List[Tuple[Hashable, Hashable]],
                       kernel: str = "auto") -> List[float]:
        """:meth:`distance` per pair, in one pass; ``kernel`` is validated."""
        self.query_kernel(kernel)
        with self._obs_metrics.span("kernel_batch"):
            return [estimate for _, _, estimate in self._select_levels(pairs)]

    def route_batch(self, pairs: List[Tuple[Hashable, Hashable]],
                    kernel: str = "auto") -> List[RouteTrace]:
        """:meth:`route` per pair, in one pass; ``kernel`` is validated."""
        self.query_kernel(kernel)
        with self._obs_metrics.span("kernel_batch"):
            return self._routes(pairs)

    def clear_runtime_caches(self) -> None:
        """Drop the derived per-pivot skeleton and half-route tables: pure
        functions of the built state, so answers are the same without them.
        Tests call this to compare cold queries with warm ones."""
        self._skeleton_tail_tables.clear()

    def route(self, source: Hashable, target: Hashable) -> RouteTrace:
        """Route ``source`` to ``target`` at the level :meth:`_select_levels`
        picks, along only the trees its estimate was summed over, weighed
        from their ``dist`` (no graph is read); a pair they do not connect
        (no pivot in range, a disconnected graph) is undelivered, at ``inf``."""
        return self._routes([(source, target)])[0]

    def _routes(self, pairs) -> List[RouteTrace]:
        level_data, traces, inf = self.level_data, [], float("inf")
        for (source, target), (level, pivot, estimate) in zip(
                pairs, self._select_levels(pairs)):
            path = None
            if source == target:
                path, weight = [source], 0.0
            elif pivot is not None and level_data[level].skeleton_level:
                path, weight = self._skeleton_route(source, target, pivot,
                                                    level)
            elif pivot is not None:
                tree = level_data[level].trees.get(pivot)
                if tree is not None and tree.contains(source) \
                        and tree.contains(target):
                    path, weight = tree.tree_route(source, target)
            traces.append(RouteTrace(source, target, [source], False, inf, inf)
                          if path is None else
                          RouteTrace(source, target, path, True, weight, estimate))
        return traces

    def _skeleton_route(self, source, target, pivot, level: int
                        ) -> Tuple[Optional[List[Hashable]], int]:
        """The route through the level-``l0`` skeleton as one new list
        (``source``'s half-route to the pivot, ``target``'s reversed) and its
        weight, or ``(None, 0)`` if an end has no half: two probes of the
        pivot's half-route table, whose tuples are copied, never handed out."""
        tails, halves = self._skeleton_tails(level, pivot)
        up = halves.get(source, _ABSENT)
        if up is _ABSENT:
            up = self._skeleton_half(tails, halves, source)
        down = halves.get(target, _ABSENT)
        if down is _ABSENT:
            down = self._skeleton_half(tails, halves, target)
        if up is None or down is None:
            return None, 0
        path = list(up[1:])
        path.extend(down[-2:0:-1])      # the pivot ends the up half
        return path, up[0] + down[0]

    def _skeleton_half(self, tails, halves, node) -> Optional[Tuple]:
        """Store and return ``node``'s half-route ``(weight, node, …, anchor,
        …tail…, pivot)`` or ``None``: up the attach tree of the first minimum
        ``t`` of ``wd'(node, t) + wd'_sk(t, pivot)`` over its skeleton list
        (the anchor its estimate was summed over), then along ``t``'s tail.
        One dict store of a pure function: racing threads store the same."""
        anchor, best, half = None, float("inf"), None
        for t, dt in self.skeleton_anchors.get(node, {}).items():
            row = tails.get(t)
            if row is not None and dt + row[0] < best:
                anchor, best = t, dt + row[0]
        tree = None if anchor is None else self.attach_trees.trees[anchor]
        if tree is not None and node in tree.parent:
            parent, step, (_, tail, tail_weight) = tree.parent, node, tails[anchor]
            walk = [tree.dist[node] + tail_weight]
            while step is not None:
                walk.append(step)
                step = parent[step]
            half = tuple(walk) + tail
        halves[node] = half
        return half

    def _skeleton_tails(self, level: int, pivot: Hashable) -> Tuple[
            Dict[Hashable, Tuple[int, Tuple[Hashable, ...], int]],
            Dict[Hashable, Optional[Tuple]]]:
        """What the skeleton nodes store for ``pivot`` (Theorem 4.13), and
        the half-routes :meth:`_skeleton_route` has built through it.

        ``anchor t -> (t's distance to the pivot in the skeleton tree, that
        tree path expanded to a path in G — without ``t`` itself — and the
        expansion's weight in G)``, derived once per ``(level, pivot)`` from
        the skeleton tree and the attach trees' paths and ``dist``; ``node ->
        its half-route`` holds the pivot's ``(0, pivot)``, then one tuple per
        node routed through it (at most ``n·Σ_{l≥l0}|S_l|`` in all)."""
        entry = self._skeleton_tail_tables.get((level, pivot))
        if entry is None:
            # Every skeleton level has one tree per source, and a pivot of
            # level l is a source of level l.
            tree = self.skeleton_trees[level][pivot]
            parent = tree.parent
            tails = {pivot: (0, (), 0)}
            for t in parent:
                chain = []
                while t not in tails:
                    chain.append(t)
                    t = parent[t]
                for a in reversed(chain):
                    b = parent[a]
                    _, tail, weight = tails[b]
                    # A skeleton-tree edge is a skeleton edge, which the build
                    # checked expands through the attach trees.
                    hop, hop_weight = self.attach_trees.edge_path(a, b)
                    tails[a] = (tree.dist[a], tuple(hop[1:]) + tail,
                                hop_weight + weight)
            # Published whole: a concurrent reader never sees half a table.
            entry = self._skeleton_tail_tables[(level, pivot)] = (
                tails, {pivot: (0, pivot)})
        return entry

    # ==================================================================
    # reporting
    # ==================================================================
    def theoretical_stretch_bound(self) -> float:
        return 4 * self.k - 3

    def max_bunch_size(self) -> int:
        return max(
            sum(len(self.level_data[l].bunches[v]) for l in range(self.k))
            for v in self.graph.nodes()
        )

    def build_report(self) -> HierarchyBuildReport:
        n = self.graph.num_nodes
        bunch_sizes = [
            sum(len(self.level_data[l].bunches[v]) for l in range(self.k))
            for v in self.graph.nodes()
        ]
        table_words = [self.table_words(v) for v in self.graph.nodes()]
        label_bits = [self.label_of(v).bits(n) for v in self.graph.nodes()]
        return HierarchyBuildReport(
            n=n,
            k=self.k,
            epsilon=self.epsilon,
            mode=self.mode,
            l0=self.l0,
            level_sizes=[len(s) for s in self.level_sets],
            rounds=self.metrics.rounds,
            max_bunch_size=max(bunch_sizes),
            avg_bunch_size=sum(bunch_sizes) / len(bunch_sizes),
            max_table_words=max(table_words),
            avg_table_words=sum(table_words) / len(table_words),
            max_label_bits=max(label_bits),
            bunch_overflows=sum(d.overflow_count for d in self.level_data),
        )

    def audit(self, pairs=None) -> Dict[str, float]:
        report = evaluate_routing(self, self.graph, pairs=pairs)
        summary = report.as_dict()
        summary["stretch_bound"] = self.theoretical_stretch_bound()
        return summary

    # ==================================================================
    # state export (serving artifacts)
    # ==================================================================
    #: Bumped whenever :meth:`export_state` changes shape incompatibly
    #: (2: every destination tree carries ``dist``; 3: the skeleton PDE is
    #: kept only as ``skeleton_anchors``).
    STATE_VERSION = 3

    def export_state(self) -> Dict[str, object]:
        """Snapshot of all query-relevant state as plain builtins.

        The structural-equality oracle of the artifact round-trip and
        parallel-build tests: the snapshot contains no ``repro`` classes
        (only dicts / lists / tuples / scalars), so two hierarchies are
        the same build exactly when their snapshots compare equal.
        Runtime caches and raw per-level PDE results are excluded; dict
        insertion orders are preserved because query tie-breaking follows
        iteration order (a skeleton route leaves through the *first* anchor
        of ``skeleton_anchors[node]`` minimising the combined estimate).
        """
        def family_state(trees: Optional[TreeFamily]):
            return None if trees is None else trees.export_state()

        return {
            "state_version": self.STATE_VERSION,
            "graph": self.graph.export_state(),
            "k": self.k,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "l0": self.l0,
            "levels": dict(self.levels),
            "level_sets": [sorted(s, key=repr) for s in self.level_sets],
            "level_data": [
                {
                    "h": data.h,
                    "sigma": data.sigma,
                    "bunches": {v: dict(row) for v, row in data.bunches.items()},
                    "trees": family_state(data.trees),
                    "skeleton_level": data.skeleton_level,
                    "overflow_count": data.overflow_count,
                }
                for data in self.level_data
            ],
            "pivots": {l: dict(m) for l, m in self.pivots.items()},
            "pivot_dists": {l: dict(m) for l, m in self.pivot_dists.items()},
            "skeleton_anchors": None if self.skeleton_anchors is None else {
                v: dict(row) for v, row in self.skeleton_anchors.items()},
            "skeleton_graph": (self.skeleton_graph.export_state()
                               if self.skeleton_graph is not None else None),
            "attach_trees": family_state(self.attach_trees),
            "skeleton_trees": {l: trees.export_state()
                               for l, trees in self.skeleton_trees.items()},
            "metrics": self.metrics.export_state(),
            "build_params": dict(self.build_params),
        }
