"""Unweighted ``(S, h, sigma)``-source detection (Lenzen–Peleg).

The paper's key building block (Definition 2.1) is the source detection
problem of [10] (Lenzen & Peleg, PODC 2013): given sources ``S``, every node
must learn the ``sigma`` lexicographically smallest ``(distance, source)``
pairs among sources within ``h`` hops.  On unweighted graphs this is solvable
deterministically in ``h + sigma`` rounds, and — crucially for Lemma 3.4 — a
node needs to broadcast at most ``O(sigma^2)`` messages overall.

The problem is deterministic, so its output is unique.  This module provides
two engines that compute it, selectable by name via the
:data:`DETECTION_ENGINES` registry / :func:`detect_sources` dispatcher:

* ``"batched"`` — :func:`detect_sources_batched`, a centralized computation
  of the exact output the distributed algorithm produces: a single
  lexicographic multi-source search in which every node retains at most
  ``sigma`` ``(distance, source)`` labels and only surviving labels
  propagate.  This is the centralized mirror of the paper's key insight (a
  node never needs more than its top-``sigma`` labels): total cost
  ``O(sigma * m)`` queue operations *independent of* ``|S|``.  It supports
  integer *edge lengths*, which is how the virtual subdivided graphs ``G_i``
  of Section 3 are handled without materialising them.
* ``"simulate"`` — :class:`LenzenPelegSourceDetection`, the faithful
  per-round CONGEST algorithm, run via
  :class:`~repro.congest.network.CongestNetwork` on an explicitly subdivided
  graph (see :func:`expand_with_edge_lengths`).  It measures real rounds and
  per-node broadcast counts and optionally applies the Lemma 3.4 message cap.

Tests assert that both engines agree list-for-list with a per-source
reference (one pruned Dijkstra per source) kept in the test suite.

**Rounds are buckets.**  The distributed algorithm proceeds round by round
over integer distances, and so does the batched kernel
(:func:`bucket_detect`): the label queue is an array of buckets indexed by
tentative distance instead of a heap.  Every edge length is at least 1, so
all labels of distance ``d`` are queued before round ``d`` is processed;
sorting that bucket by ``(source rank, push counter)`` therefore visits
labels in exactly the order a heap keyed ``(distance, rank, counter)`` would
pop them — same lists, same next-hop tie-breaks — while a push is a
``list.append`` and a whole round costs one sort of machine ints.

**sigma >= |S|: one search per source.**  With ``sigma >= |S|`` (Theorem 4.1's
``S = V, h = sigma = n``; upper hierarchy levels) no list fills up and ranks
never interact, so the kernel runs Dial's algorithm with FIFO buckets once per
source.  Next hops agree too: the truncated loop visits one rank's labels in
``(distance, push counter)`` order, which *is* that rank's FIFO order, and in
both the first push reaching ``(node, rank)`` at final distance owns the hop.
So any subset of the sources yields exactly those sources' triples: above
rounding level 0 the PDE solver searches only the sources level 0 did not
settle (:func:`repro.core.pde.level_stream`).

What is interned where: a caller interns the graph once into a
:class:`GraphCSR` (node id = position in ``graph.nodes()``; flat
``indptr``/``indices``/``weights`` lists in ``neighbor_weights`` order) and
the sources into ranks (position in ``sorted(S, key=repr)``, the paper's
lexicographic source order as integer comparisons).  The kernel sees only
those ints plus one flat list of per-edge integer lengths, and emits plain
``(distance, rank, from id)`` triples; :class:`DetectionEntry` objects and
``Hashable`` labels exist only on the outside of
:func:`materialize_detection`.  The PDE solver calls :func:`bucket_detect`
itself on a graph it interned once and folds the triples as they are;
parallel build workers receive the same ``GraphCSR`` and run the same
kernel.

Boundary semantics: the detection engines accept the degenerate parameters
``h = 0`` (only sources detect themselves, at distance 0) and ``sigma = 0``
(every output list is empty).  These instances are well-defined by
Definition 2.1, whereas the PDE solver (:func:`repro.core.pde.solve_pde`)
rejects ``h < 1`` / ``sigma < 1`` because the guarantees of Definition 2.2 /
Theorem 3.3 are vacuous there; see its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional, Set,
                    Tuple)

from ..congest.message import BROADCAST, Message
from ..congest.metrics import CongestMetrics
from ..congest.network import CongestNetwork
from ..congest.node import CongestAlgorithm, NodeView
from ..graphs.weighted_graph import WeightedGraph

__all__ = [
    "DetectionEntry",
    "SourceDetectionResult",
    "DETECTION_ENGINES",
    "GraphCSR",
    "detect_sources",
    "detect_sources_batched",
    "bucket_detect",
    "materialize_detection",
    "LenzenPelegSourceDetection",
    "expand_with_edge_lengths",
    "run_source_detection_simulation",
    "lemma34_message_cap",
]

#: Edge length callback: maps ``(u, v, weight)`` to a positive integer length.
LengthFn = Callable[[Hashable, Hashable, int], int]


class DetectionEntry(NamedTuple):
    """One list entry: a detected source, its distance and the next hop toward it."""

    distance: int
    source: Hashable
    next_hop: Optional[Hashable] = None

    def key(self) -> Tuple[int, str]:
        """Lexicographic sort key ``(distance, source)`` used by the paper."""
        return (self.distance, repr(self.source))


@dataclass
class SourceDetectionResult:
    """Output of an ``(S, h, sigma)``-detection instance.

    Attributes
    ----------
    lists:
        ``lists[v]`` is the (up to) ``sigma``-entry prefix of ``L_v^{(h)}``.
    h, sigma:
        The instance parameters.
    metrics:
        Round/message accounting (measured for the simulator, analytic for
        the batched engine).
    """

    lists: Dict[Hashable, List[DetectionEntry]]
    h: int
    sigma: int
    metrics: CongestMetrics = field(default_factory=CongestMetrics)

    def distance(self, node: Hashable, source: Hashable) -> Optional[int]:
        """Distance to ``source`` in ``node``'s list, or ``None`` if absent."""
        for entry in self.lists.get(node, []):
            if entry.source == source:
                return entry.distance
        return None


def lemma34_message_cap(sigma: int) -> int:
    """The broadcast cap of Lemma 3.4: ``sum_{i=1}^{sigma} i`` messages per node."""
    return sigma * (sigma + 1) // 2


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------
class GraphCSR(NamedTuple):
    """A graph interned to ints: node id = position in ``graph.nodes()``.

    Row ``v`` of the adjacency is ``indices[indptr[v]:indptr[v + 1]]`` with
    the matching ``weights`` slice, in ``graph.neighbor_weights(v)`` order
    (neighbour order breaks next-hop ties, so it is part of the data).  Four
    flat builtins — this is also what parallel build workers are sent.
    """

    nodes: List[Hashable]
    indptr: List[int]
    indices: List[int]
    weights: List[int]

    def node_ids(self) -> Dict[Hashable, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @classmethod
    def from_graph(cls, graph: WeightedGraph) -> "GraphCSR":
        nodes = graph.nodes()
        node_id = {v: i for i, v in enumerate(nodes)}
        indptr, indices, weights = [0], [], []
        for v in nodes:
            row = graph.neighbor_weights(v)
            indices.extend([node_id[u] for u in row])
            weights.extend(row.values())
            indptr.append(len(indices))
        return cls(nodes, indptr, indices, weights)


def bucket_detect(csr: GraphCSR, lengths: List[int], source_ids: List[int],
                  h: int, sigma: int) -> List[List[Tuple[int, int, int]]]:
    """The detection kernel, in int space (see "Rounds are buckets" above).

    ``lengths[j] >= 1`` is the integer length of directed edge ``j`` of
    ``csr`` and ``source_ids[r]`` the node id of the source of rank ``r``.
    Returns, per node id, the settled ``(distance, source rank, from id)``
    triples in lexicographic ``(distance, rank)`` order; ``from id`` is the
    neighbour the label arrived from (the next hop toward the source), ``-1``
    at the source itself.  The one branch is on the input: both loops return
    the same triples wherever ``sigma >= |S|``, the per-source one sooner.
    """
    indptr, indices = csr.indptr, csr.indices
    rows = [list(zip(indices[a:b], lengths[a:b]))
            for a, b in zip(indptr, indptr[1:])]
    if sigma >= len(source_ids):
        return _detect_per_source(rows, source_ids, h)
    return _detect_pruned(rows, source_ids, h, sigma)


def _detect_pruned(rows: List[List[Tuple[int, int]]], source_ids: List[int],
                   h: int, sigma: int) -> List[List[Tuple[int, int, int]]]:
    """The truncated loop: one multi-source search, correct for every ``sigma``.

    ``buckets[d]`` holds the labels of tentative distance ``d``, each packed
    into one int ``rank | seq | node | from + 1`` (high to low bits, ``seq``
    the global push counter), so sorting a bucket orders it by ``(rank,
    seq)``.  ``state[v][rank]`` is the tentative distance of a label, ``-1``
    once settled; a ``(node, rank, distance)`` is pushed at most once (pushes
    need a strict improvement), so the queued item that still matches
    ``state`` owns the next hop.
    """
    n = len(rows)
    bits = n.bit_length()                   # node < n and from + 1 <= n fit
    mask = (1 << bits) - 1
    seq_shift = 2 * bits
    # Each settled label relaxes its node's row once and a node settles at
    # most sigma labels, which bounds the push counter.
    pushes = len(source_ids) + min(sigma, len(source_ids)) * sum(map(len, rows))
    rank_shift = seq_shift + pushes.bit_length()

    lists: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    state: List[Dict[int, int]] = [{} for _ in range(n)]
    buckets: List[List[int]] = [[] for _ in range(h + 1)]
    limit = h + 1
    seq = 0
    for rank, v in enumerate(source_ids):
        state[v][rank] = 0
        buckets[0].append(rank << rank_shift | seq << seq_shift | v << bits)
        seq += 1

    for d, bucket in enumerate(buckets):
        if not bucket:
            continue
        bucket.sort()
        buckets[d] = None                   # release the round's items
        for item in bucket:
            v = item >> bits & mask
            settled = lists[v]
            if len(settled) >= sigma:
                continue
            rank = item >> rank_shift
            labels = state[v]
            if labels[rank] != d:
                continue    # settled already, or superseded by a shorter label
            labels[rank] = -1
            settled.append((d, rank, (item & mask) - 1))
            tag = rank << rank_shift | v + 1
            for u, step in rows[v]:
                nd = d + step
                # A full node settles nothing more; a settled label is -1.
                if nd < state[u].get(rank, limit) and len(lists[u]) < sigma:
                    state[u][rank] = nd
                    buckets[nd].append(tag | seq << seq_shift | u << bits)
                    seq += 1
    return lists


def _detect_per_source(rows: List[List[Tuple[int, int]]], source_ids: List[int],
                       h: int) -> List[List[Tuple[int, int, int]]]:
    """``sigma >= |S|``: Dial's algorithm from one source at a time."""
    n = len(rows)
    limit = h + 1
    lists: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    dist = [limit] * n                      # scratch shared by all sources: a
    hop = [-1] * n                          # source resets what it settled
    buckets: List[Optional[List[int]]] = [None] * limit     # FIFOs of node ids
    for rank, source in enumerate(source_ids):
        dist[source], hop[source], buckets[0] = 0, -1, [source]
        queued, d, order = 1, 0, []
        while queued:
            bucket = buckets[d]
            if bucket is not None:
                buckets[d] = None
                queued -= len(bucket)
                for v in bucket:
                    if dist[v] != d:
                        continue            # superseded by a shorter label
                    order.append(v)
                    for u, step in rows[v]:
                        nd = d + step
                        if nd < dist[u]:
                            dist[u] = nd
                            hop[u] = v
                            queued += 1
                            if buckets[nd] is None:
                                buckets[nd] = [u]
                            else:
                                buckets[nd].append(u)
            d += 1
        for v in order:
            lists[v].append((dist[v], rank, hop[v]))
            dist[v] = limit
    for entries in lists:
        entries.sort()                      # emitted by rank, read by distance
    return lists


def materialize_detection(result: "SourceDetectionResult",
                          nodes: List[Hashable], ranked: List[Hashable],
                          ) -> "SourceDetectionResult":
    """Translate an int-space result (see :func:`bucket_detect`) to labels."""
    hop = list(nodes) + [None]              # from id -1 -> no next hop
    lists = {nodes[v]: [DetectionEntry(d, ranked[r], hop[f])
                        for d, r, f in entries]
             for v, entries in result.lists.items()}
    return SourceDetectionResult(lists=lists, h=result.h, sigma=result.sigma,
                                 metrics=result.metrics)


def detect_sources_batched(graph: WeightedGraph, sources: Set[Hashable], h: int,
                           sigma: int, edge_length: Optional[LengthFn] = None,
                           ) -> SourceDetectionResult:
    """Compute ``(S, h, sigma)``-detection with one multi-source search.

    Instead of one pruned Dijkstra per source, a single search settles
    ``(distance, source)`` labels in global lexicographic order and keeps at
    most ``sigma`` labels per node; only settled (i.e. surviving top-``sigma``)
    labels propagate to neighbours.  This is exactly the pruning the paper's
    distributed algorithm performs: if a source ``s`` is among the ``sigma``
    lexicographically smallest for ``v`` and ``w`` lies on a shortest
    ``v``-``s`` path, then ``s`` is among the ``sigma`` smallest for ``w`` as
    well (any label beating ``s`` at ``w`` extends to a label beating ``s``
    at ``v``).  Hence truncating to ``sigma`` labels per node never loses an
    output entry, and the produced lists are identical to those of one
    pruned Dijkstra per source.

    ``edge_length`` reinterprets each edge as a path of that many unit edges
    (the virtual graph ``G_i`` of Section 3); by default every edge has
    length 1.  Cost is ``O(sigma * m)`` queue operations, independent of
    ``|S|``.  Next hops point along a shortest path realising the listed
    distance (they may differ from a per-source search's choice when
    multiple shortest paths exist; the ``(distance, source)`` lists do not).

    The degenerate boundaries ``h = 0`` (sources detect only themselves) and
    ``sigma = 0`` (all lists empty) are accepted; only negative parameters
    are rejected.
    """
    if h < 0 or sigma < 0:
        raise ValueError("h and sigma must be non-negative")
    for s in sources:
        if not graph.has_node(s):
            raise ValueError(f"source {s!r} is not a node of the graph")
    csr = GraphCSR.from_graph(graph)
    if edge_length is None:
        lengths = [1] * len(csr.indices)
    else:
        lengths = [max(1, int(edge_length(v, u, w))) for v in csr.nodes
                   for u, w in graph.neighbor_weights(v).items()]
    node_id = csr.node_ids()
    ranked = sorted(sources, key=repr)
    lists = bucket_detect(csr, lengths, [node_id[s] for s in ranked], h, sigma)
    result = SourceDetectionResult(
        lists=dict(enumerate(lists)), h=h, sigma=sigma,
        metrics=CongestMetrics(rounds=h + sigma, measured=False))
    return materialize_detection(result, csr.nodes, ranked)


# ----------------------------------------------------------------------
# faithful CONGEST algorithm
# ----------------------------------------------------------------------
class LenzenPelegSourceDetection(CongestAlgorithm):
    """The deterministic source-detection algorithm of [10] on unweighted graphs.

    Per round, each node broadcasts the lexicographically smallest
    ``(distance, source)`` pair it knows, has not broadcast yet, and that
    currently belongs to its top-``sigma`` list.  After ``h + sigma`` rounds
    every node's top-``sigma`` list restricted to distance ``<= h`` is
    correct.

    ``message_cap=True`` applies the stopping rule of Lemma 3.4: a node stops
    broadcasting after ``sigma * (sigma + 1) / 2`` messages.
    """

    def __init__(self, sources: Set[Hashable], h: int, sigma: int,
                 message_cap: bool = True) -> None:
        self.sources = set(sources)
        self.h = h
        self.sigma = sigma
        self.message_cap = message_cap

    def init_state(self, view: NodeView) -> Dict[str, object]:
        known: Dict[Hashable, Tuple[int, Optional[Hashable]]] = {}
        if view.node_id in self.sources:
            known[view.node_id] = (0, None)
        return {
            "known": known,          # source -> (distance, via-neighbour)
            "sent": set(),           # set of (distance, repr(source)) already broadcast
            "broadcast_count": 0,
        }

    # -- helpers -------------------------------------------------------
    def _top_entries(self, state) -> List[Tuple[int, Hashable]]:
        entries = sorted(
            ((d, s) for s, (d, _) in state["known"].items()),
            key=lambda item: (item[0], repr(item[1])),
        )
        return entries[: self.sigma]

    def generate(self, view: NodeView, state, round_index: int):
        if self.message_cap and state["broadcast_count"] >= lemma34_message_cap(self.sigma):
            return []
        for d, s in self._top_entries(state):
            if (d, repr(s)) not in state["sent"]:
                state["sent"].add((d, repr(s)))
                state["broadcast_count"] += 1
                return [(BROADCAST, Message(("sd", d, s)))]
        return []

    def receive(self, view: NodeView, state, round_index: int, inbox):
        for sender, msg in inbox:
            tag, d, s = msg.payload
            if tag != "sd":
                continue
            nd = d + 1
            current = state["known"].get(s)
            if current is None or nd < current[0]:
                state["known"][s] = (nd, sender)

    def output(self, view: NodeView, state) -> List[DetectionEntry]:
        entries = [
            DetectionEntry(distance=d, source=s, next_hop=via)
            for s, (d, via) in state["known"].items()
            if d <= self.h
        ]
        entries.sort(key=lambda e: e.key())
        return entries[: self.sigma]


# ----------------------------------------------------------------------
# virtual subdivided graphs
# ----------------------------------------------------------------------
def expand_with_edge_lengths(graph: WeightedGraph, edge_length: LengthFn,
                             cap: int) -> Tuple[WeightedGraph, Set[Hashable]]:
    """Materialise the virtual graph ``G_i``: replace each edge by a unit path.

    Each edge of length ``L`` (per ``edge_length``) becomes a path of
    ``min(L, cap)`` unit edges through fresh virtual nodes.  ``cap`` should be
    one more than the detection horizon: a capped edge then contributes a
    distance larger than the horizon, so capping never creates spurious
    in-horizon paths while keeping the expansion size bounded.

    Returns the expanded graph and the set of original ("real") nodes.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    expanded = WeightedGraph()
    real_nodes = set(graph.nodes())
    for node in graph.nodes():
        expanded.add_node(node)
    for u, v, w in graph.edges():
        length = min(max(1, int(edge_length(u, v, w))), cap)
        if length == 1:
            expanded.add_edge(u, v, 1)
            continue
        prev = u
        for idx in range(1, length):
            virt = ("virt", repr(u), repr(v), idx)
            expanded.add_edge(prev, virt, 1)
            prev = virt
        expanded.add_edge(prev, v, 1)
    return expanded, real_nodes


def _map_next_hop(graph: WeightedGraph, node: Hashable,
                  next_hop: Optional[Hashable]) -> Optional[Hashable]:
    """Map a next hop in the expanded graph back to a real neighbour.

    If the next hop is a virtual node ``("virt", repr(u), repr(v), idx)``,
    the real next hop from ``node`` is the endpoint of that subdivided edge
    other than ``node``.

    Raises :class:`ValueError` when the virtual node cannot be mapped back to
    a real neighbour of ``node`` — that means the simulation produced a next
    hop inconsistent with the original topology (e.g. a corrupted virtual
    node name), which previously degraded silently into a ``None`` next hop.
    """
    if not (isinstance(next_hop, tuple) and len(next_hop) == 4
            and next_hop[0] == "virt"):
        return next_hop
    _, u_repr, v_repr, _ = next_hop
    target_repr = u_repr if repr(node) == v_repr else v_repr
    for nbr in graph.neighbors(node):
        if repr(nbr) == target_repr:
            return nbr
    raise ValueError(
        f"cannot map virtual next hop {next_hop!r} back to a real neighbour "
        f"of {node!r}: no neighbour has repr {target_repr!r}")


def run_source_detection_simulation(graph: WeightedGraph, sources: Set[Hashable],
                                    h: int, sigma: int,
                                    edge_length: Optional[LengthFn] = None,
                                    message_cap: bool = True,
                                    ) -> SourceDetectionResult:
    """Run the faithful CONGEST source-detection algorithm.

    With ``edge_length`` given, the algorithm runs on the virtual subdivided
    graph (capped at ``h + 1``); next hops and metrics are mapped back to the
    original nodes.  Broadcast counts of virtual relay nodes are attributed
    to the original edge's endpoint closer to the source side; since the
    paper's Lemma 3.4 bounds broadcasts of *original* nodes, the metrics
    expose only those.
    """
    if edge_length is None:
        run_graph, real_nodes = graph, set(graph.nodes())
    else:
        run_graph, real_nodes = expand_with_edge_lengths(graph, edge_length, h + 1)

    algorithm = LenzenPelegSourceDetection(sources, h, sigma, message_cap=message_cap)
    network = CongestNetwork(run_graph, algorithm)
    metrics = network.run(max_rounds=h + sigma)
    outputs = network.outputs()

    lists: Dict[Hashable, List[DetectionEntry]] = {}
    for node in graph.nodes():
        entries = []
        for entry in outputs[node]:
            mapped = _map_next_hop(graph, node, entry.next_hop)
            entries.append(DetectionEntry(entry.distance, entry.source, mapped))
        lists[node] = entries

    # Restrict broadcast accounting to real nodes.
    metrics.broadcasts_per_node = {
        node: cnt for node, cnt in metrics.broadcasts_per_node.items()
        if node in real_nodes
    }
    return SourceDetectionResult(lists=lists, h=h, sigma=sigma, metrics=metrics)


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
#: Named detection engines.  Both produce identical ``(distance, source)``
#: lists; they differ in cost model and metrics (see the module docstring).
DETECTION_ENGINES: Dict[str, Callable[..., SourceDetectionResult]] = {
    "batched": detect_sources_batched,
    "simulate": run_source_detection_simulation,
}


def detect_sources(graph: WeightedGraph, sources: Set[Hashable], h: int,
                   sigma: int, edge_length: Optional[LengthFn] = None,
                   engine: str = "batched", **engine_kwargs,
                   ) -> SourceDetectionResult:
    """Solve ``(S, h, sigma)``-detection with the named engine.

    ``engine`` selects from :data:`DETECTION_ENGINES` (``"batched"`` by
    default — the fast engine; ``"simulate"`` replays the CONGEST rounds).
    Extra keyword arguments are forwarded to the engine; only ``"simulate"``
    accepts any (``message_cap``).
    """
    try:
        fn = DETECTION_ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown detection engine {engine!r}; "
            f"available: {sorted(DETECTION_ENGINES)}") from None
    return fn(graph, sources, h, sigma, edge_length=edge_length, **engine_kwargs)
