"""Route tracing and stretch evaluation for routing / distance schemes.

A scheme (Theorem 4.5 or the compact hierarchy of Section 4.3) exposes

* ``label_of(node)``            — the label the RTC problem assigns,
* ``route(source, target)``     — a :class:`~repro.routing.tables.RouteTrace`,
* ``distance(source, target)``  — the distance estimate ``dist_v(lambda(w))``.

This module audits such schemes against ground truth: delivery rate, route
stretch (the paper's performance measure for RTC), distance-estimate stretch
(for the distance-approximation problem), and size statistics for labels and
tables.  Benchmarks E4–E6 and E8 are built on these audits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..graphs.distances import all_pairs_weighted_distances, path_weight
from ..graphs.weighted_graph import WeightedGraph
from .tables import RouteTrace

__all__ = [
    "StretchReport",
    "sample_pairs",
    "evaluate_routing",
    "evaluate_distance_estimates",
    "validate_route",
]


@dataclass
class StretchReport:
    """Aggregated routing-quality statistics over a set of pairs."""

    pairs: int = 0
    delivered: int = 0
    max_stretch: float = 0.0
    mean_stretch: float = 0.0
    p95_stretch: float = 0.0
    #: Delivered routes heavier than the table estimate they were selected
    #: on (a route through pivot ``p`` must realise ``wd'(v,p) + wd'(p,w)``).
    over_estimate: int = 0
    failures: List[Tuple[Hashable, Hashable]] = field(default_factory=list)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.pairs if self.pairs else 1.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "pairs": self.pairs,
            "delivered": self.delivered,
            "delivery_rate": self.delivery_rate,
            "max_stretch": self.max_stretch,
            "mean_stretch": self.mean_stretch,
            "p95_stretch": self.p95_stretch,
            "over_estimate": self.over_estimate,
        }


def sample_pairs(nodes: Sequence[Hashable], count: Optional[int] = None,
                 rng: Optional[random.Random] = None
                 ) -> List[Tuple[Hashable, Hashable]]:
    """All ordered pairs, or a random sample of ``count`` of them."""
    nodes = list(nodes)
    all_pairs = [(u, v) for u, v in itertools.permutations(nodes, 2)]
    if count is None or count >= len(all_pairs):
        return all_pairs
    rng = rng if rng is not None else random.Random(0)
    return rng.sample(all_pairs, count)


def validate_route(graph: WeightedGraph, trace: RouteTrace) -> bool:
    """Check that a delivered trace is a real path in ``graph`` from its
    source to its target, with no consecutive repeat, weighing exactly
    ``trace.weight`` (graph weights are ints, so the sums are exact)."""
    if not trace.delivered:
        return False
    path = trace.path
    if not path or path[0] != trace.source or path[-1] != trace.target:
        return False
    for u, v in zip(path, path[1:]):
        if u == v or not graph.has_edge(u, v):
            return False
    return path_weight(graph, path) == trace.weight


def evaluate_routing(scheme, graph: WeightedGraph,
                     pairs: Optional[Iterable[Tuple[Hashable, Hashable]]] = None,
                     exact: Optional[Dict[Hashable, Dict[Hashable, float]]] = None,
                     ) -> StretchReport:
    """Trace routes for the given pairs and aggregate stretch statistics."""
    exact = exact if exact is not None else all_pairs_weighted_distances(graph)
    pair_list = list(pairs) if pairs is not None else sample_pairs(graph.nodes())
    report = StretchReport(pairs=len(pair_list))
    stretches: List[float] = []
    for u, v in pair_list:
        trace = scheme.route(u, v)
        if not trace.delivered or not validate_route(graph, trace):
            report.failures.append((u, v))
            continue
        report.delivered += 1
        if (trace.estimate is not None
                and trace.weight > trace.estimate * (1 + 1e-9)):
            report.over_estimate += 1
        d = exact[u][v]
        stretches.append(trace.weight / d if d > 0 else 1.0)
    if stretches:
        stretches.sort()
        report.max_stretch = stretches[-1]
        report.mean_stretch = sum(stretches) / len(stretches)
        report.p95_stretch = stretches[min(len(stretches) - 1,
                                           int(0.95 * len(stretches)))]
    return report


def evaluate_distance_estimates(scheme, graph: WeightedGraph,
                                pairs: Optional[Iterable[Tuple[Hashable, Hashable]]] = None,
                                exact: Optional[Dict[Hashable, Dict[Hashable, float]]] = None,
                                ) -> StretchReport:
    """Audit ``scheme.distance`` estimates: must never undershoot, stretch aggregated."""
    exact = exact if exact is not None else all_pairs_weighted_distances(graph)
    pair_list = list(pairs) if pairs is not None else sample_pairs(graph.nodes())
    report = StretchReport(pairs=len(pair_list))
    stretches: List[float] = []
    for u, v in pair_list:
        est = scheme.distance(u, v)
        d = exact[u][v]
        if est is None or est == float("inf") or est < d - 1e-6:
            report.failures.append((u, v))
            continue
        report.delivered += 1
        stretches.append(est / d if d > 0 else 1.0)
    if stretches:
        stretches.sort()
        report.max_stretch = stretches[-1]
        report.mean_stretch = sum(stretches) / len(stretches)
        report.p95_stretch = stretches[min(len(stretches) - 1,
                                           int(0.95 * len(stretches)))]
    return report
