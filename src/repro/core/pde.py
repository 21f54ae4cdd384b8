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

Two engines are available (the registry of
:mod:`repro.core.source_detection`):

* ``engine="batched"`` (default) — per-level detection via one ``sigma``-
  truncated multi-source bucket-queue search
  (:func:`~repro.core.source_detection.bucket_detect`) on the graph interned
  once per solve; cost independent of ``|S|``, analytic round/message
  bounds.  The only engine a build may fan out to a pool.
* ``engine="simulate"`` — per-level detection run faithfully on the CONGEST
  simulator over the materialised virtual graph; metrics are measured, so
  it runs in-process.

Per Corollary 3.5 the expected cost is ``O((h + sigma)/eps^2 * log n + D)``
rounds and ``O(sigma^2 / eps * log n)`` broadcasts per node.

**One loop.**  The levels are independent, so the solver is written once as
a task list and a fold: :func:`level_stream` turns ``(S, h, sigma)``
instances into one ``(instance, rounding level)`` task each, solved by
:func:`_solve_level` (the only place an ``engine`` name picks the code that
solves a level: the kernel, or the simulator), and hands the list to
:func:`~repro.core.build_runner.run_tasks`; :func:`solve_pde` folds its
instance's replies in level order (:func:`fold_detection_lists`, then
:func:`finalize_pde_result`).  ``build_workers`` only tells the runner
whether the list runs in-process or on a pool — sequential is the one-worker
case of the same code, which is why the result cannot depend on it.  A
hierarchy build puts all its instances on one stream
(:func:`solve_pde_instances`) so a pool sees every task at once.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import (Dict, Hashable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from ..congest.metrics import CongestMetrics, merge_metrics
from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import NULL_REGISTRY
from .build_runner import run_tasks
from .source_detection import (
    DETECTION_ENGINES,
    DetectionEntry,
    GraphCSR,
    SourceDetectionResult,
    bucket_detect,
    detect_sources,
    materialize_detection,
)
from .weight_rounding import RoundingScheme

__all__ = [
    "PDEEntry",
    "PDEResult",
    "PDEInstance",
    "solve_pde",
    "solve_pde_instances",
    "validate_pde_instance",
    "level_adjacency",
    "intern_detection_lists",
    "fold_detection_lists",
    "finalize_pde_result",
]

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
        Optional raw per-level detection results: what each level searched.
        Level 0 searches every source; with ``sigma >= |S|`` a later level
        searches only the sources level 0 did not settle (see
        :func:`level_stream`), so its lists may be empty.
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

    Runs when the level tasks are made, so a malformed instance is rejected
    *before* any worker process is spawned.
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
    is what keeps the kernel's detections indistinguishable from the
    simulator's, which walks the callback on the labelled graph.
    """
    return [max(1, math.ceil(w / base)) for w in weights]


def intern_detection_lists(lists: Dict[Hashable, List[DetectionEntry]],
                           node_id: Dict[Hashable, int],
                           rank: Dict[Hashable, int],
                           ) -> Dict[int, List[Tuple[int, int, int]]]:
    """Translate labelled detection lists to the int space the fold works in."""
    return {node_id[v]: [(d, rank[s], node_id.get(hop, -1))
                         for d, s, hop in entries]
            for v, entries in lists.items()}


def fold_detection_lists(lists: Dict[int, List[Tuple[int, int, int]]],
                         rounding: RoundingScheme, level: int,
                         table: FoldTable) -> None:
    """Fold one rounding level's int-space detection lists into the minimum.

    The strict ``<`` means the *earliest* level achieving a value wins the
    tie; callers must therefore fold levels in increasing order — that is
    the whole ordering contract, at every worker count.
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


@dataclass(frozen=True)
class PDEInstance:
    """One ``(S, h, sigma)``-estimation on a shared level stream.

    ``token`` names the graph (in the ``graphs`` mapping given to
    :func:`level_stream`) the instance runs on — many instances may share
    one token, and the graph is interned (and shipped to a pool) once.
    """

    token: str
    sources: Tuple[Hashable, ...]
    h: int
    sigma: int
    epsilon: float
    engine: str = "batched"
    store_levels: bool = False


class _LevelGraph:
    """One graph as level tasks see it: interned, and labelled in-process.

    Pickles as its :class:`~repro.core.source_detection.GraphCSR` alone: a
    pool runs only ``batched`` tasks, which read nothing else, while the
    simulator walks the labelled graph and runs in-process only.
    """

    def __init__(self, graph: Optional[WeightedGraph],
                 csr: Optional[GraphCSR] = None) -> None:
        self.csr = csr if csr is not None else GraphCSR.from_graph(graph)
        self.node_id = self.csr.node_ids()
        self.graph = graph

    def __reduce__(self):
        return _LevelGraph, (None, self.csr)


def _solve_level(task: dict, graphs: Dict[str, _LevelGraph]):
    """Solve one ``(instance, rounding level)`` detection with its engine.

    Returns ``(lists, metrics, seconds)``: the int-space ``{node id:
    [(distance, source rank, from id), ...]}`` lists the fold consumes, the
    engine's round/message accounting and the wall clock spent — plain data,
    so a pool reply stays small.  ``task["source_ids"]`` are the sources the
    level searches and ``task["ranks"]`` their instance ranks (``None``: every
    source, in rank order); a level with nothing to search enters no kernel
    (see :func:`level_stream`).
    """
    started = time.perf_counter()
    level_graph = graphs[task["token"]]
    csr, source_ids, ranks = level_graph.csr, task["source_ids"], task["ranks"]
    rounding, level = task["rounding"], task["level"]
    horizon, sigma = task["horizon"], task["sigma"]
    metrics = CongestMetrics(rounds=horizon + sigma, measured=False)
    if not source_ids:
        return {}, metrics, time.perf_counter() - started
    if task["engine"] == "batched":
        lengths = level_adjacency(csr.weights, rounding.base(level))
        lists = dict(enumerate(
            bucket_detect(csr, lengths, source_ids, horizon, sigma)))
        if ranks is not None:
            # Positions in the subset -> instance ranks; the map is
            # increasing, so each node's (distance, rank) order is kept.
            lists = {v: [(d, ranks[p], f) for d, p, f in entries]
                     for v, entries in lists.items()}
        return lists, metrics, time.perf_counter() - started
    # The simulator searches every source (ranks is None): its rounds are
    # measured on the labelled graph.
    labels = [csr.nodes[i] for i in source_ids]
    detection = detect_sources(
        level_graph.graph, set(labels), horizon, sigma,
        edge_length=rounding.edge_length_fn(level), engine=task["engine"],
        message_cap=task["message_cap"])
    lists = intern_detection_lists(detection.lists, level_graph.node_id,
                                   {s: r for r, s in enumerate(labels)})
    return lists, detection.metrics, time.perf_counter() - started


def _unsettled_ranks(csr: GraphCSR, source_ids: List[int],
                     horizon: int) -> List[int]:
    """The ranks a rounding level above 0 still searches (see :func:`level_stream`).

    One search on level 0's lengths (the weights) per component, from its
    first source ``r``: ``s`` is settled when ``wd(s, r) + ecc(r) <= horizon``
    (a component ``r`` does not reach in full settles nothing).
    """
    indptr, indices = csr.indptr, csr.indices
    component = [-1] * len(csr.nodes)
    roots: List[int] = []
    for s in source_ids:
        if component[s] < 0:
            component[s] = len(roots)
            frontier = [s]
            for v in frontier:
                for u in indices[indptr[v]:indptr[v + 1]]:
                    if component[u] < 0:
                        component[u] = component[s]
                        frontier.append(u)
            roots.append(s)
    reach = bucket_detect(csr, csr.weights, roots, horizon, len(roots))
    ecc = [0] * len(roots)
    for c, entries in zip(component, reach):
        if c >= 0:
            ecc[c] = max(ecc[c], entries[0][0] if entries else horizon + 1)
    return [rank for rank, s in enumerate(source_ids)
            if not reach[s] or reach[s][0][0] + ecc[component[s]] > horizon]


def _plan_instance(graph: WeightedGraph, sources: Iterable[Hashable], h: int,
                   sigma: int, epsilon: float, engine: str,
                   ) -> Tuple[List[Hashable], RoundingScheme, int]:
    """Validate one instance; returns ``(sources by rank, rounding, h')``."""
    source_set = validate_pde_instance(graph, sources, h, sigma, engine)
    rounding = RoundingScheme(epsilon=epsilon, max_weight=graph.max_weight())
    return sorted(source_set, key=repr), rounding, rounding.horizon(h)


def level_stream(instances: Sequence[PDEInstance],
                 graphs: Dict[str, WeightedGraph], build_workers: int = 1,
                 registry=None, message_cap: bool = True) -> Iterator[tuple]:
    """The per-level detection replies of many instances, as one stream.

    Yields one :func:`_solve_level` reply per ``(instance, rounding level)``
    in instance-then-level order — the order :func:`solve_pde` consumes them
    in.  Malformed instances, a bad ``build_workers`` and a pool-ineligible
    engine are rejected here, before anything runs.  Close the stream if it
    is not exhausted (it may own a worker pool).

    **Level 0 is exact.**  ``b(0) = 1``, so level 0's lengths are the integer
    weights and every value it detects within the horizon ``h'`` is the exact
    ``wd(v, s)``; every later level rounds each edge up (``b(i) * ceil(W(e) /
    b(i)) >= W(e)``), so it can only tie that value, and the fold's strict
    ``<`` keeps the earlier level on a tie.  With ``sigma >= |S|`` no list is
    truncated and sources never interact, so a source whose whole component
    lies within ``h'`` of it (:func:`_unsettled_ranks`) has, after level 0,
    an entry at every node of its component, and no later level can add or
    replace one.  The plan is made here, in the driving process, for
    ``batched`` (``simulate`` searches everything, its measured rounds are
    the point): level 0 searches every source, each later task carries only
    the unsettled ranks, and a task with none returns empty lists — tasks
    stay pure functions of their payloads, and the result, insertion order
    included, is the one searching everything gives.
    """
    shared = {token: _LevelGraph(g) for token, g in graphs.items()}
    tasks = []
    for inst in instances:
        try:
            graph = graphs[inst.token]
        except KeyError:
            raise ValueError(f"instance references unregistered graph "
                             f"token {inst.token!r}") from None
        ranked, rounding, horizon = _plan_instance(
            graph, inst.sources, inst.h, inst.sigma, inst.epsilon, inst.engine)
        if build_workers > 1 and inst.engine != "batched":
            raise ValueError(f"engine {inst.engine!r} does not support "
                             f"parallel builds; build_workers > 1 requires "
                             f"'batched'")
        level_graph = shared[inst.token]
        source_ids = [level_graph.node_id[s] for s in ranked]
        every = later = (None, source_ids)  # (ranks, ids); None: every rank
        if (inst.engine == "batched" and inst.sigma >= len(ranked)
                and rounding.imax):
            ranks = _unsettled_ranks(level_graph.csr, source_ids, horizon)
            if len(ranks) < len(ranked):
                later = (ranks, [source_ids[r] for r in ranks])
        for level in rounding.levels():
            ranks, ids = later if level else every
            tasks.append((f"{inst.token}:{level}", {
                "token": inst.token, "horizon": horizon, "sigma": inst.sigma,
                "source_ids": ids, "ranks": ranks, "rounding": rounding,
                "level": level, "engine": inst.engine,
                "message_cap": message_cap}))
    return run_tasks(_solve_level, tasks, shared, build_workers, registry)


def solve_pde(graph: WeightedGraph, sources: Iterable[Hashable], h: int, sigma: int,
              epsilon: float, engine: str = "batched", message_cap: bool = True,
              store_levels: bool = True, build_workers: int = 1,
              registry=None, _levels: Optional[Iterator[tuple]] = None,
              ) -> PDEResult:
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
        Per-level detection engine: ``"batched"`` (default; the bucket-queue
        kernel, analytic metrics) or ``"simulate"`` (faithful CONGEST
        execution on the materialised virtual graphs, measured metrics).
    message_cap:
        Apply the Lemma 3.4 per-node broadcast cap in the simulator.
    store_levels:
        Keep the raw per-level detection results on the result object.  When
        ``False`` each level's detection output is released as soon as it is
        folded into the estimates instead of being retained for all levels.
        (The folded ``estimates`` tables themselves can still hold up to the
        union of every level's top-``sigma`` sources per node.)
    build_workers:
        Number of processes to solve the per-rounding-level detections with.
        The default ``1`` runs each level in-process when the fold reaches
        it; ``> 1`` runs the same task list on a spawn-based pool
        (:mod:`repro.core.build_runner`) — the result is identical.  Only
        ``"batched"`` supports it.
    registry:
        Optional telemetry registry: each level's solve time lands in the
        ``level_solve`` histogram and each level's fold under a
        ``build_merge`` span (plus ``build_scatter`` around a pool's task
        submission).  ``None`` disables instrumentation.
    _levels:
        Private: a :func:`level_stream` positioned at this instance's first
        level (how :func:`solve_pde_instances` shares one stream, and one
        pool, between instances).  ``build_workers`` and ``message_cap``
        then belong to whoever made the stream.
    """
    obs = registry if registry is not None else NULL_REGISTRY
    ranked, rounding, horizon = _plan_instance(graph, sources, h, sigma,
                                               epsilon, engine)
    # Node id = position in graph.nodes(), source rank = position in repr
    # order: the fold works on ints for every engine.
    nodes = graph.nodes()
    table: FoldTable = [{} for _ in nodes]
    per_level: Dict[int, SourceDetectionResult] = {}
    level_metrics: List[CongestMetrics] = []
    with ExitStack() as stack:
        if _levels is None:
            _levels = stack.enter_context(closing(level_stream(
                [PDEInstance("graph", tuple(ranked), h, sigma, epsilon, engine)],
                {"graph": graph}, build_workers, obs, message_cap)))
        # Levels fold in increasing order (see fold_detection_lists).
        for level in rounding.levels():
            lists, metrics, seconds = next(_levels)
            obs.histogram("level_solve").observe(seconds)
            level_metrics.append(metrics)
            with obs.span("build_merge"):
                fold_detection_lists(lists, rounding, level, table)
                if store_levels:
                    per_level[level] = materialize_detection(
                        SourceDetectionResult(lists=lists, h=horizon,
                                              sigma=sigma, metrics=metrics),
                        nodes, ranked)

    return finalize_pde_result(nodes, ranked, h, sigma, epsilon, rounding,
                               table, level_metrics, per_level, store_levels)


def solve_pde_instances(instances: Sequence[PDEInstance],
                        graphs: Dict[str, WeightedGraph],
                        build_workers: int = 1,
                        registry=None) -> List[PDEResult]:
    """Solve many instances off one level stream; results in ``instances`` order.

    Each instance still goes through :func:`solve_pde`, so the results are
    what separate calls would return — but a pool sees the levels of all
    instances at once, and each graph is interned once.
    """
    with closing(level_stream(instances, graphs, build_workers,
                              registry)) as levels:
        return [solve_pde(graphs[inst.token], inst.sources, inst.h, inst.sigma,
                          inst.epsilon, engine=inst.engine,
                          store_levels=inst.store_levels, registry=registry,
                          _levels=levels)
                for inst in instances]

