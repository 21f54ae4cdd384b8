"""Reproducible query-workload generators for serving benchmarks.

A routing service is only as interesting as the traffic it faces.  Real
query streams are not uniform: a few endpoints are very hot (Zipf's law).
This module generates ``(source, target)`` query streams with and without
that skew, both deterministic given a seed, so benchmarks and tests exercise
the cache and batching layers under realistic skew:

* :func:`uniform_workload` — every ordered pair equally likely (the
  cache-hostile baseline);
* :func:`zipf_workload` — endpoint popularity follows a Zipf distribution
  with exponent ``skew``; the same few pairs dominate the stream.

Every generator has a name in :data:`WORKLOADS`; :func:`make_workload`
dispatches through it for ``repro-serve --workload <name>`` and
:class:`~repro.serving.config.WorkloadConfig`.

Only the Python standard library is used (explicit Zipf weights sampled
with :meth:`random.Random.choices` — no third-party dependency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from ..graphs.weighted_graph import WeightedGraph

__all__ = [
    "QueryWorkload",
    "uniform_workload",
    "zipf_workload",
    "workload_names",
    "make_workload",
    "WORKLOADS",
]


@dataclass
class QueryWorkload:
    """A named stream of ``(source, target)`` queries plus its parameters.

    The stream is unshaped: the driver chunks ``pairs`` by its own batch
    size and issues every batch with one query kind.
    """

    name: str
    pairs: List[Tuple[Hashable, Hashable]]
    params: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

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


# ----------------------------------------------------------------------
# workloads by name
# ----------------------------------------------------------------------
#: Workload name -> ``factory(graph, num_queries, seed=0, **params)``.
WORKLOADS: Dict[str, Callable[..., QueryWorkload]] = {
    "uniform": lambda graph, num_queries, seed=0, **params:
        uniform_workload(graph.nodes(), num_queries, seed=seed, **params),
    "zipf": lambda graph, num_queries, seed=0, **params:
        zipf_workload(graph.nodes(), num_queries, seed=seed, **params),
}


def workload_names() -> Tuple[str, ...]:
    """Every workload name, sorted."""
    return tuple(sorted(WORKLOADS))


def make_workload(name: str, graph: WeightedGraph, num_queries: int,
                  seed: int = 0, **params) -> QueryWorkload:
    """Dispatch by shape name through :data:`WORKLOADS`; unknown names
    raise with the available ones."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; available: "
                         f"{', '.join(workload_names())}")
    return WORKLOADS[name](graph, num_queries, seed=seed, **params)
