"""Reproducible query-workload generators for serving benchmarks.

A routing service is only as interesting as the traffic it faces.  Real
query streams are not uniform: a few endpoints are very hot (Zipf's law) and
many queries are local (users talk to nearby services).  This module
generates ``(source, target)`` query streams with those shapes, all
deterministic given a seed, so benchmarks and tests exercise the cache and
batching layers under realistic skew:

* :func:`uniform_workload` — every ordered pair equally likely (the
  cache-hostile baseline);
* :func:`zipf_workload` — endpoint popularity follows a Zipf distribution
  with exponent ``skew``; the same few pairs dominate the stream;
* :func:`locality_workload` — sources are uniform but targets are drawn
  from the source's hop-neighbourhood with probability ``bias``;
* :func:`bursty_workload` — temporally correlated traffic: burst phases
  (a pair suddenly dominates for a stretch of queries) and diurnal drift
  (the popular endpoints rotate cyclically over the stream) on top of a
  Zipf base skew — the stream that ages entries out of a result cache.

Every generator is registered by name in the workload registry
(:data:`~repro.serving.registry.WORKLOADS`); :func:`make_workload`
dispatches through it, so ``repro-serve --workload <name>`` and
:class:`~repro.serving.config.WorkloadConfig` pick up custom registered
shapes automatically.

Only the Python standard library is used (explicit Zipf weights sampled via
``bisect`` over the cumulative distribution — no numpy/scipy dependency).
"""

from __future__ import annotations

import bisect
import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs.distances import bfs_hop_distances
from ..graphs.weighted_graph import WeightedGraph
from .registry import WORKLOADS, get_workload, register_workload

__all__ = [
    "QueryWorkload",
    "uniform_workload",
    "zipf_workload",
    "locality_workload",
    "bursty_workload",
    "WORKLOAD_NAMES",
    "workload_names",
    "make_workload",
    "stable_node_hash",
]


@dataclass
class QueryWorkload:
    """A named stream of ``(source, target)`` queries plus its parameters.

    Most workloads are an unshaped stream: the driver chunks ``pairs`` by
    its own batch size and issues every batch with one query kind.
    Replayed traces carry their *recorded* shape instead: when
    ``batch_sizes`` (and optionally per-batch ``batch_kinds``) are set,
    :meth:`iter_batches` yields exactly those batches, so a recorded
    session replays batch-for-batch rather than being re-chunked.
    """

    name: str
    pairs: List[Tuple[Hashable, Hashable]]
    params: Dict[str, object] = field(default_factory=dict)
    #: Recorded batch shaping (trace replay); ``None`` = driver chooses.
    batch_sizes: Optional[List[int]] = None
    #: Per-batch query kinds, parallel to ``batch_sizes``.
    batch_kinds: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.batch_sizes is not None:
            if sum(self.batch_sizes) != len(self.pairs):
                raise ValueError(
                    f"batch_sizes sum to {sum(self.batch_sizes)} but the "
                    f"workload holds {len(self.pairs)} pairs")
            if (self.batch_kinds is not None
                    and len(self.batch_kinds) != len(self.batch_sizes)):
                raise ValueError(
                    f"{len(self.batch_kinds)} batch_kinds for "
                    f"{len(self.batch_sizes)} batches")
        elif self.batch_kinds is not None:
            raise ValueError("batch_kinds requires batch_sizes")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def iter_batches(self, default_batch_size: int, default_kind: str):
        """Yield ``(kind, pairs)`` batches, honouring any recorded shape."""
        if self.batch_sizes is None:
            for start in range(0, len(self.pairs), default_batch_size):
                yield default_kind, self.pairs[start:start + default_batch_size]
            return
        kinds = self.batch_kinds or [default_kind] * len(self.batch_sizes)
        cursor = 0
        for size, kind in zip(self.batch_sizes, kinds):
            yield kind, self.pairs[cursor:cursor + size]
            cursor += size

    def distinct_pairs(self) -> int:
        return len(set(self.pairs))

    def skew_summary(self) -> Dict[str, float]:
        """How repetitive the stream is (drives expected cache hit rates)."""
        total = len(self.pairs)
        distinct = self.distinct_pairs()
        counts: Dict[Tuple[Hashable, Hashable], int] = {}
        for pair in self.pairs:
            counts[pair] = counts.get(pair, 0) + 1
        top = max(counts.values(), default=0)
        return {
            "queries": total,
            "distinct_pairs": distinct,
            "repeat_rate": 1.0 - distinct / total if total else 0.0,
            "hottest_pair_share": top / total if total else 0.0,
        }


def _other_than(node: Hashable, nodes: Sequence[Hashable],
                rng: random.Random) -> Hashable:
    """A uniform node different from ``node`` (assumes ``len(nodes) >= 2``)."""
    while True:
        candidate = nodes[rng.randrange(len(nodes))]
        if candidate != node:
            return candidate


def uniform_workload(nodes: Sequence[Hashable], num_queries: int,
                     seed: int = 0) -> QueryWorkload:
    """``num_queries`` ordered pairs drawn uniformly (source != target)."""
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("uniform_workload needs at least 2 nodes")
    rng = random.Random(seed)
    pairs = []
    for _ in range(num_queries):
        s = nodes[rng.randrange(len(nodes))]
        pairs.append((s, _other_than(s, nodes, rng)))
    return QueryWorkload(name="uniform", pairs=pairs,
                         params={"seed": seed, "nodes": len(nodes)})


def zipf_workload(nodes: Sequence[Hashable], num_queries: int,
                  skew: float = 1.2, seed: int = 0) -> QueryWorkload:
    """Endpoint popularity follows ``P(rank r) ∝ 1 / r^skew``.

    Sources and targets get *independent* popularity rankings (a hot content
    server is not necessarily a hot client), both derived from the seed, so
    the hottest (source, target) pairs repeat many times — the regime where
    a result cache pays off.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("zipf_workload needs at least 2 nodes")
    if skew <= 0:
        raise ValueError("skew must be positive")
    rng = random.Random(seed)
    source_ranking = list(nodes)
    rng.shuffle(source_ranking)
    target_ranking = list(nodes)
    rng.shuffle(target_ranking)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(nodes))]
    sources = rng.choices(source_ranking, weights=weights, k=num_queries)
    targets = rng.choices(target_ranking, weights=weights, k=num_queries)
    pairs = []
    for s, t in zip(sources, targets):
        # Collisions concentrate on the hottest ranks, so the replacement must
        # keep the Zipf shape: redraw from the target weights (conditioned on
        # t != s), never uniformly — a uniform fallback would dilute the skew
        # exactly where the stream is supposed to be most repetitive.
        while t == s:
            t = rng.choices(target_ranking, weights=weights, k=1)[0]
        pairs.append((s, t))
    return QueryWorkload(name="zipf", pairs=pairs,
                         params={"seed": seed, "skew": skew, "nodes": len(nodes)})


def locality_workload(graph: WeightedGraph, num_queries: int,
                      hop_radius: int = 2, bias: float = 0.8,
                      seed: int = 0) -> QueryWorkload:
    """Sources uniform; targets near the source with probability ``bias``.

    "Near" means within ``hop_radius`` hops (BFS balls are computed lazily
    and cached per source).  With probability ``1 - bias`` — or when the
    ball contains no other node — the target is uniform instead.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise ValueError("locality_workload needs at least 2 nodes")
    if not 0.0 <= bias <= 1.0:
        raise ValueError("bias must be in [0, 1]")
    if hop_radius < 1:
        raise ValueError("hop_radius must be >= 1")
    rng = random.Random(seed)
    balls: Dict[Hashable, List[Hashable]] = {}
    pairs = []
    for _ in range(num_queries):
        s = nodes[rng.randrange(len(nodes))]
        t: Optional[Hashable] = None
        if rng.random() < bias:
            ball = balls.get(s)
            if ball is None:
                hop = bfs_hop_distances(graph, s)
                ball = [v for v, d in hop.items() if 0 < d <= hop_radius]
                balls[s] = ball
            if ball:
                t = ball[rng.randrange(len(ball))]
        if t is None:
            t = _other_than(s, nodes, rng)
        pairs.append((s, t))
    return QueryWorkload(name="locality", pairs=pairs,
                         params={"seed": seed, "hop_radius": hop_radius,
                                 "bias": bias, "nodes": len(nodes)})


def _zipf_sampler(num_ranks: int, skew: float, rng: random.Random
                  ) -> Callable[[], int]:
    """An ``O(log n)``-per-draw sampler of Zipf ranks ``0..num_ranks-1``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(num_ranks)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]

    def draw() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    return draw


def bursty_workload(nodes: Sequence[Hashable], num_queries: int,
                    skew: float = 1.2, burst_rate: float = 0.02,
                    burst_length: int = 40, burst_intensity: float = 0.8,
                    drift_period: int = 500, seed: int = 0) -> QueryWorkload:
    """Temporally correlated traffic: bursts and diurnal drift over Zipf.

    The base stream draws endpoints Zipf-distributed (exponent ``skew``)
    like :func:`zipf_workload`, with two temporal effects layered on top:

    * **Diurnal drift** — the popularity *rankings* rotate cyclically, one
      full rotation every ``drift_period`` queries, so which endpoints are
      hot changes gradually and comes back around (think day/night traffic
      moving across regions).  A cache tuned to a static hot set decays as
      the hot set walks away from it.
    * **Bursts** — after any organically drawn query, with probability
      ``burst_rate``, that query's pair becomes a *burst pair*: for the
      next ``burst_length`` queries each query repeats the burst pair with
      probability ``burst_intensity`` (otherwise it is drawn organically).
      A burst is a pair whose hit count explodes now, whatever its
      long-run rank — recency, which an LRU tracks, not frequency.

    Deterministic given the seed, like every generator in this module.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError("bursty_workload needs at least 2 nodes")
    if skew <= 0:
        raise ValueError("skew must be positive")
    if not 0.0 <= burst_rate <= 1.0:
        raise ValueError("burst_rate must be in [0, 1]")
    if burst_length < 1:
        raise ValueError("burst_length must be >= 1")
    if not 0.0 <= burst_intensity <= 1.0:
        raise ValueError("burst_intensity must be in [0, 1]")
    if drift_period < 1:
        raise ValueError("drift_period must be >= 1")
    rng = random.Random(seed)
    n = len(nodes)
    source_ranking = list(nodes)
    rng.shuffle(source_ranking)
    target_ranking = list(nodes)
    rng.shuffle(target_ranking)
    draw_rank = _zipf_sampler(n, skew, rng)

    pairs: List[Tuple[Hashable, Hashable]] = []
    burst_pair: Optional[Tuple[Hashable, Hashable]] = None
    burst_remaining = 0
    for index in range(num_queries):
        # Diurnal phase: rotate both rankings by the same cyclic offset, so
        # rank r maps to position (r + offset) % n.  One full cycle per
        # drift_period queries.
        offset = ((index % drift_period) * n) // drift_period
        if burst_remaining > 0:
            burst_remaining -= 1
            if rng.random() < burst_intensity:
                pairs.append(burst_pair)
                continue
        s = source_ranking[(draw_rank() + offset) % n]
        t = target_ranking[(draw_rank() + offset) % n]
        while t == s:
            # Redraw from the Zipf weights (conditioned on t != s), exactly
            # as zipf_workload does — a uniform fallback would dilute the
            # skew on the hottest ranks.
            t = target_ranking[(draw_rank() + offset) % n]
        pair = (s, t)
        pairs.append(pair)
        if burst_remaining == 0 and rng.random() < burst_rate:
            burst_pair = pair
            burst_remaining = burst_length
    return QueryWorkload(name="bursty", pairs=pairs,
                         params={"seed": seed, "skew": skew,
                                 "burst_rate": burst_rate,
                                 "burst_length": burst_length,
                                 "burst_intensity": burst_intensity,
                                 "drift_period": drift_period,
                                 "nodes": len(nodes)})


# ----------------------------------------------------------------------
# workload registry
# ----------------------------------------------------------------------
register_workload(
    "uniform",
    lambda graph, num_queries, seed=0, **params:
        uniform_workload(graph.nodes(), num_queries, seed=seed, **params))
register_workload(
    "zipf",
    lambda graph, num_queries, seed=0, **params:
        zipf_workload(graph.nodes(), num_queries, seed=seed, **params))
register_workload(
    "locality",
    lambda graph, num_queries, seed=0, **params:
        locality_workload(graph, num_queries, seed=seed, **params))
register_workload(
    "bursty",
    lambda graph, num_queries, seed=0, **params:
        bursty_workload(graph.nodes(), num_queries, seed=seed, **params))


@register_workload("trace")
def _trace_workload(graph: WeightedGraph, num_queries: int, seed: int = 0,
                    trace_path: Optional[str] = None) -> QueryWorkload:
    """Replay a recorded serving session (``repro-serve --trace-out``).

    The trace fully determines the stream — pairs, kinds, and batch
    boundaries — so ``num_queries`` and ``seed`` are intentionally
    ignored (the recorded session *is* the workload).  Every recorded
    node must exist in the graph being served, otherwise the trace
    belongs to a different graph and replay would be meaningless.
    """
    if not trace_path:
        raise ValueError("the trace workload requires trace_path= "
                         "(repro-serve --trace-path FILE)")
    # Call-time import keeps repro.obs a dependency leaf of this package.
    from ..obs.trace import load_trace

    trace = load_trace(trace_path)
    known = set(graph.nodes())
    for s, t in trace.pairs():
        if s not in known or t not in known:
            raise ValueError(
                f"trace {trace_path!r} references node(s) {(s, t)!r} "
                f"absent from the served graph — recorded against a "
                f"different graph?")
    return trace.to_workload()


def workload_names() -> Tuple[str, ...]:
    """Currently registered workload names (includes custom registrations)."""
    return WORKLOADS.names()


#: The built-in *generator* shapes, snapshotted at import time: every name
#: here produces ``num_queries`` pairs from a seed alone.  The ``trace``
#: workload is registered but deliberately excluded — it replays a
#: recorded session (requires ``trace_path=``), so generator contracts
#: (determinism from seed, length == num_queries) don't apply to it.  Use
#: :func:`workload_names` for the full registry, including shapes
#: registered later.
WORKLOAD_NAMES = tuple(name for name in workload_names()
                       if name != "trace")


def stable_node_hash(node: Hashable) -> int:
    """Deterministic per-node hash (processes and runs agree).

    This is the shard-ownership function shared by the ``hash_source``
    partitioner and per-shard sub-artifact slicing
    (:func:`~repro.serving.artifacts.write_shard_artifacts`): both must
    assign a node to the same shard, or a worker would be handed queries
    whose source rows its artifact slice does not hold.
    """
    return zlib.crc32(repr(node).encode("utf-8"))


def make_workload(name: str, graph: WeightedGraph, num_queries: int,
                  seed: int = 0, **params) -> QueryWorkload:
    """Dispatch by shape name through the workload registry.

    Custom shapes added with
    :func:`~repro.serving.registry.register_workload` are picked up here
    (and therefore by ``repro-serve --workload`` and
    :class:`~repro.serving.config.WorkloadConfig`) without any other wiring.
    """
    return get_workload(name)(graph, num_queries, seed=seed, **params)
