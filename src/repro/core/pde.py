"""Partial Distance Estimation (PDE) — Theorem 3.3 and Corollary 3.5.

``(1+eps)``-approximate ``(S, h, sigma)``-estimation (Definition 2.2) asks
for a distance function ``wd'`` with

* ``wd'(v, s) >= wd(v, s)`` for all ``v`` and sources ``s``, and
* ``wd'(v, s) <= (1+eps) * wd(v, s)`` whenever the minimum-hop shortest path
  from ``v`` to ``s`` has at most ``h`` hops,

and for each node the prefix ``L_v`` of the (up to) ``sigma`` smallest
``(wd'(v, s), s)`` pairs.

The solver follows the construction of Theorem 3.3 exactly:

1. Build the rounding levels ``i = 0..imax`` (:class:`RoundingScheme`).
2. Per level, solve unweighted ``(S, h', sigma)``-detection on the virtual
   graph ``G_i`` (edge ``e`` subdivided into ``ceil(W(e)/b(i))`` unit edges)
   with horizon ``h' in O(h/eps)``.
3. Combine: ``wd~(v, s) = min_i b(i) * hd_i(v, s)`` over levels where ``s``
   appears in the level list ``L_{v,i}``; output the top ``sigma`` entries.

Three engines are available (the registry of
:mod:`repro.core.source_detection`):

* ``engine="batched"`` (default) — per-level detection via one ``sigma``-
  truncated multi-source bucket-queue search on the graph interned once per
  solve; fastest, cost independent of ``|S|``, output identical to
  ``"logical"``.
* ``engine="logical"`` — per-level detection computed centrally with one
  pruned Dijkstra per source (identical output, analytic round/message
  bounds).
* ``engine="simulate"`` — per-level detection run faithfully on the CONGEST
  simulator over the materialised virtual graph; metrics are measured.

Per Corollary 3.5 the expected cost is ``O((h + sigma)/eps^2 * log n + D)``
rounds and ``O(sigma^2 / eps * log n)`` broadcasts per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Dict, Hashable, Iterable, List, NamedTuple, Optional, Set,
                    Tuple)

from ..congest.metrics import CongestMetrics, merge_metrics
from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import NULL_REGISTRY
from .source_detection import (
    DETECTION_ENGINES,
    DetectionEntry,
    GraphCSR,
    SourceDetectionResult,
    detect_sources,
    materialize_detection,
)
from .weight_rounding import RoundingScheme

__all__ = [
    "PDEEntry",
    "PDEResult",
    "PARALLEL_PDE_ENGINES",
    "solve_pde",
    "pde_engine_names",
    "validate_pde_instance",
    "level_adjacency",
    "intern_detection_lists",
    "fold_detection_lists",
    "finalize_pde_result",
]

#: Engines whose per-level detections may be fanned out to parallel build
#: workers (see :mod:`repro.routing.parallel_build`): those that are pure
#: functions of ``(graph, S, h', sigma)`` with analytic metrics.  The
#: faithful CONGEST simulator is excluded — its measured metrics are the
#: point of running it, and they must be produced by one coherent run.
PARALLEL_PDE_ENGINES = ("logical", "batched")


class PDEEntry(NamedTuple):
    """One entry of a node's PDE output list ``L_v``."""

    estimate: float
    source: Hashable
    next_hop: Optional[Hashable] = None
    level: int = 0

    def key(self) -> Tuple[float, str]:
        return (self.estimate, repr(self.source))


@dataclass
class PDEResult:
    """Output of ``(1+eps)``-approximate ``(S, h, sigma)``-estimation.

    Attributes
    ----------
    lists:
        ``lists[v]`` — the top-``sigma`` prefix of the sorted
        ``(wd'(v, s), s)`` pairs (Definition 2.2).
    estimates:
        ``estimates[v][s] = wd'(v, s)`` for every source that was detected at
        any level (a superset of the sources appearing in ``lists[v]``).
    next_hops:
        ``next_hops[v][s]`` — a neighbour of ``v`` on a path realising the
        estimate (used to build routing tables, Corollary 3.5).
    levels_used:
        ``levels_used[v][s]`` — the rounding level achieving the minimum.
    per_level:
        Optional raw per-level detection results (needed by the tree-routing
        argument of Lemma 4.4 and by tests).
    rounding:
        The :class:`RoundingScheme` employed.
    metrics:
        Rounds / broadcasts accounting (measured when simulated).
    """

    sources: Set[Hashable]
    h: int
    sigma: int
    epsilon: float
    lists: Dict[Hashable, List[PDEEntry]]
    estimates: Dict[Hashable, Dict[Hashable, float]]
    next_hops: Dict[Hashable, Dict[Hashable, Optional[Hashable]]]
    levels_used: Dict[Hashable, Dict[Hashable, int]]
    rounding: RoundingScheme
    metrics: CongestMetrics = field(default_factory=CongestMetrics)
    per_level: Optional[Dict[int, SourceDetectionResult]] = None

    # ------------------------------------------------------------------
    def estimate(self, node: Hashable, source: Hashable) -> float:
        """``wd'(node, source)`` — infinity if the source was never detected."""
        return self.estimates.get(node, {}).get(source, float("inf"))

    def next_hop(self, node: Hashable, source: Hashable) -> Optional[Hashable]:
        return self.next_hops.get(node, {}).get(source)

    def list_of(self, node: Hashable) -> List[PDEEntry]:
        return self.lists.get(node, [])

    def in_list(self, node: Hashable, source: Hashable) -> bool:
        return any(entry.source == source for entry in self.lists.get(node, []))

    def detected_sources(self, node: Hashable) -> List[Hashable]:
        return [entry.source for entry in self.lists.get(node, [])]

    def closest_source_in(self, node: Hashable,
                          subset: Set[Hashable]) -> Optional[PDEEntry]:
        """The entry minimising ``(wd'(node, s), s)`` among ``s in subset``.

        Considers all detected sources (not only the top-``sigma`` list), so
        callers such as Lemma 4.2 can locate ``s'_v`` even if it narrowly
        misses the list.
        """
        best: Optional[PDEEntry] = None
        for s, est in self.estimates.get(node, {}).items():
            if s not in subset:
                continue
            entry = PDEEntry(
                estimate=est, source=s,
                next_hop=self.next_hops.get(node, {}).get(s),
                level=self.levels_used.get(node, {}).get(s, 0),
            )
            if best is None or entry.key() < best.key():
                best = entry
        return best

    # ------------------------------------------------------------------
    # state export (serving artifacts)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Plain-builtin snapshot for persistence.

        Dict insertion order is preserved deliberately: downstream consumers
        (skeleton anchor selection in the routing hierarchy) break ties by
        iteration order, so a reloaded result must replay it exactly.  The
        raw ``per_level`` detection results are intentionally dropped — they
        are construction-time debugging state, not query state.
        """
        return {
            "sources": sorted(self.sources, key=repr),
            "h": self.h,
            "sigma": self.sigma,
            "epsilon": self.epsilon,
            "lists": {v: [(e.estimate, e.source, e.next_hop, e.level)
                          for e in entries]
                      for v, entries in self.lists.items()},
            "estimates": {v: dict(row) for v, row in self.estimates.items()},
            "next_hops": {v: dict(row) for v, row in self.next_hops.items()},
            "levels_used": {v: dict(row) for v, row in self.levels_used.items()},
            "rounding": {"epsilon": self.rounding.epsilon,
                         "max_weight": self.rounding.max_weight},
            "metrics": self.metrics.export_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "PDEResult":
        """Rebuild a result from :meth:`export_state` (``per_level`` is ``None``)."""
        return cls(
            sources=set(state["sources"]),
            h=state["h"],
            sigma=state["sigma"],
            epsilon=state["epsilon"],
            lists={v: [PDEEntry(estimate=est, source=s, next_hop=nh, level=lvl)
                       for est, s, nh, lvl in entries]
                   for v, entries in state["lists"].items()},
            estimates={v: dict(row) for v, row in state["estimates"].items()},
            next_hops={v: dict(row) for v, row in state["next_hops"].items()},
            levels_used={v: dict(row) for v, row in state["levels_used"].items()},
            rounding=RoundingScheme(**state["rounding"]),
            metrics=CongestMetrics.from_state(state["metrics"]),
            per_level=None,
        )


def validate_pde_instance(graph: WeightedGraph, sources: Iterable[Hashable],
                          h: int, sigma: int, engine: str) -> Set[Hashable]:
    """Validate one ``(S, h, sigma)`` instance; returns the source set.

    Shared by the sequential solver and the parallel orchestrator so both
    reject malformed instances with identical errors *before* any worker
    process is spawned.
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("the source set must be non-empty")
    for s in source_set:
        if not graph.has_node(s):
            raise ValueError(f"source {s!r} is not a node of the graph")
    if engine not in DETECTION_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"available: {sorted(DETECTION_ENGINES)}")
    if h < 1 or sigma < 1:
        raise ValueError("h and sigma must be at least 1")
    return source_set


#: Int-space fold state: ``table[v][rank] = (estimate, from id, level)`` for
#: node id ``v`` and source rank ``rank`` (see
#: :func:`~repro.core.source_detection.bucket_detect` for the id spaces).
FoldTable = List[Dict[int, Tuple[float, int, int]]]


def level_adjacency(weights: List[int], base: float) -> List[int]:
    """Integer edge lengths of the virtual graph ``G_i``, per CSR edge.

    Computes ``max(1, ceil(w / b(i)))`` over the flat weight list of a
    :class:`~repro.core.source_detection.GraphCSR` — bit-identical to routing
    every weight through
    :meth:`~repro.core.weight_rounding.RoundingScheme.edge_length_fn`, which
    is what keeps the interned detections (and parallel build workers, which
    run this exact function) indistinguishable from the per-level callback
    path.
    """
    return [max(1, math.ceil(w / base)) for w in weights]


def intern_detection_lists(lists: Dict[Hashable, List[DetectionEntry]],
                           node_id: Dict[Hashable, int],
                           rank: Dict[Hashable, int],
                           ) -> Dict[int, List[Tuple[int, int, int]]]:
    """Translate a labelled engine's lists to the int space the fold works in."""
    return {node_id[v]: [(d, rank[s], node_id.get(hop, -1))
                         for d, s, hop in entries]
            for v, entries in lists.items()}


def fold_detection_lists(lists: Dict[int, List[Tuple[int, int, int]]],
                         rounding: RoundingScheme, level: int,
                         table: FoldTable) -> None:
    """Fold one rounding level's int-space detection lists into the minimum.

    The strict ``<`` means the *earliest* level achieving a value wins the
    tie; callers must therefore fold levels in increasing order — the
    parallel merge relies on this being the whole ordering contract.
    """
    base = rounding.base(level)
    for v, entries in lists.items():
        row = table[v]
        for distance, rank, hop in entries:
            value = base * distance
            current = row.get(rank)
            if current is None or value < current[0]:
                row[rank] = (value, hop, level)


def finalize_pde_result(nodes: List[Hashable], ranked: List[Hashable],
                        h: int, sigma: int, epsilon: float,
                        rounding: RoundingScheme, table: FoldTable,
                        level_metrics: List[CongestMetrics],
                        per_level: Dict[int, SourceDetectionResult],
                        store_levels: bool) -> PDEResult:
    """Assemble the labelled :class:`PDEResult` from a fully-folded table.

    ``nodes`` are the labels by node id and ``ranked`` the sources by rank
    (``sorted(S, key=repr)``), so sorting ``(estimate, rank)`` pairs is the
    paper's ``(wd', source)`` order.  Rows keep the fold's insertion order.
    """
    hop_label = list(nodes) + [None]        # from id -1 -> no next hop
    lists: Dict[Hashable, List[PDEEntry]] = {}
    estimates: Dict[Hashable, Dict[Hashable, float]] = {}
    next_hops: Dict[Hashable, Dict[Hashable, Optional[Hashable]]] = {}
    levels_used: Dict[Hashable, Dict[Hashable, int]] = {}
    for node, row in zip(nodes, table):
        estimates[node] = {ranked[r]: e[0] for r, e in row.items()}
        next_hops[node] = {ranked[r]: hop_label[e[1]] for r, e in row.items()}
        levels_used[node] = {ranked[r]: e[2] for r, e in row.items()}
        top = sorted((est, r, hop, level)
                     for r, (est, hop, level) in row.items())[:sigma]
        lists[node] = [PDEEntry(est, ranked[r], hop_label[hop], level)
                       for est, r, hop, level in top]

    metrics = merge_metrics(*level_metrics, sequential=True)
    return PDEResult(
        sources=set(ranked),
        h=h,
        sigma=sigma,
        epsilon=epsilon,
        lists=lists,
        estimates=estimates,
        next_hops=next_hops,
        levels_used=levels_used,
        rounding=rounding,
        metrics=metrics,
        per_level=per_level if store_levels else None,
    )


def solve_pde(graph: WeightedGraph, sources: Iterable[Hashable], h: int, sigma: int,
              epsilon: float, engine: str = "batched", message_cap: bool = True,
              store_levels: bool = True, build_workers: int = 1,
              registry=None) -> PDEResult:
    """Solve ``(1+eps)``-approximate ``(S, h, sigma)``-estimation (Theorem 3.3).

    Parameters
    ----------
    graph:
        The weighted network graph.
    sources:
        The source set ``S``.
    h, sigma:
        Hop budget and list length of Definition 2.2.  Both must be at least
        1: with ``h = 0`` or ``sigma = 0`` the guarantees of Definition 2.2 /
        Theorem 3.3 are vacuous (no pair is within the hop budget, or no list
        entry may be emitted), so such instances are rejected here — unlike
        the raw detection engines, which accept the degenerate boundaries
        (see :mod:`repro.core.source_detection`).
    epsilon:
        Approximation parameter (``wd' <= (1+eps) wd`` within ``h`` hops).
    engine:
        Per-level detection engine: ``"batched"`` (default; fastest, analytic
        metrics), ``"logical"`` (per-source searches, identical output) or
        ``"simulate"`` (faithful CONGEST execution on the materialised
        virtual graphs, measured metrics).
    message_cap:
        Apply the Lemma 3.4 per-node broadcast cap in the simulator.
    store_levels:
        Keep the raw per-level detection results on the result object.  When
        ``False`` each level's detection output is folded into the estimates
        as soon as it is computed and the raw
        :class:`~repro.core.source_detection.SourceDetectionResult` is
        released immediately instead of being retained for all levels.  (The
        folded ``estimates`` tables themselves can still hold up to the
        union of every level's top-``sigma`` sources per node.)
    build_workers:
        Number of processes to solve the per-rounding-level detections with.
        The default ``1`` runs everything in-process; ``> 1`` fans the
        independent levels across a spawn-based pool
        (:mod:`repro.routing.parallel_build`) with a deterministic merge —
        the result is identical to the sequential solve.  Only the pure
        engines (:data:`PARALLEL_PDE_ENGINES`) support it.
    registry:
        Optional telemetry registry; each level's detection is timed under a
        ``level_solve`` span (plus ``build_scatter``/``build_merge`` on the
        parallel path).  ``None`` disables instrumentation.
    """
    obs = registry if registry is not None else NULL_REGISTRY
    source_set = validate_pde_instance(graph, sources, h, sigma, engine)
    if build_workers < 1:
        raise ValueError("build_workers must be >= 1")
    if build_workers > 1:
        if engine not in PARALLEL_PDE_ENGINES:
            raise ValueError(
                f"engine {engine!r} does not support parallel builds; "
                f"build_workers > 1 requires one of "
                f"{sorted(PARALLEL_PDE_ENGINES)}")
        # Imported lazily: routing.parallel_build depends on this module.
        from ..routing.parallel_build import solve_pde_parallel

        return solve_pde_parallel(graph, source_set, h=h, sigma=sigma,
                                  epsilon=epsilon, engine=engine,
                                  build_workers=build_workers,
                                  store_levels=store_levels, registry=obs)

    rounding = RoundingScheme(epsilon=epsilon, max_weight=graph.max_weight())
    horizon = rounding.horizon(h)

    # Intern once: node id = position in graph.nodes(), source rank =
    # position in repr order.  The fold works on ints for every engine.
    csr = GraphCSR.from_graph(graph)
    nodes, node_id = csr.nodes, csr.node_ids()
    ranked = sorted(source_set, key=repr)
    table: FoldTable = [{} for _ in nodes]
    source_ids = [node_id[s] for s in ranked]
    rank = {s: r for r, s in enumerate(ranked)}

    per_level: Dict[int, SourceDetectionResult] = {}
    level_metrics: List[CongestMetrics] = []
    for level in rounding.levels():
        if engine == "batched":
            engine_kwargs = {"interned": (csr, source_ids, level_adjacency(
                csr.weights, rounding.base(level)))}
        else:
            engine_kwargs = {"edge_length": rounding.edge_length_fn(level)}
            if engine == "simulate":
                engine_kwargs["message_cap"] = message_cap
        with obs.span("level_solve"):
            detection = detect_sources(graph, source_set, horizon, sigma,
                                       engine=engine, **engine_kwargs)
        level_metrics.append(detection.metrics)
        # Fold this level into the running minimum right away; the raw
        # detection result is retained only when the caller asked for it.
        if engine == "batched":
            lists = detection.lists
            if store_levels:
                detection = materialize_detection(detection, nodes, ranked)
        else:
            lists = intern_detection_lists(detection.lists, node_id, rank)
        fold_detection_lists(lists, rounding, level, table)
        if store_levels:
            per_level[level] = detection

    return finalize_pde_result(nodes, ranked, h, sigma, epsilon, rounding,
                               table, level_metrics, per_level, store_levels)


def pde_engine_names() -> List[str]:
    """The available per-level detection engine names."""
    return sorted(DETECTION_ENGINES)
