"""Deterministic ``(1+eps)``-approximate APSP — Theorem 4.1.

Instantiating partial distance estimation with ``S = V`` and
``h = sigma = n`` yields, for every pair ``(v, w)``, an estimate
``wd'(v, w) <= (1+eps) * wd(v, w)`` (every pair has a minimum-hop shortest
path of fewer than ``n`` hops), deterministically, in ``O(n log n / eps^2)``
rounds.  This improves the previously best known algorithm [14] by
derandomizing it and saving a ``Theta(log n)`` factor.

The module wraps :func:`repro.core.pde.solve_pde` with the Theorem 4.1
parameters and adds stretch auditing utilities used by tests and by the
APSP benchmark (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..congest.metrics import CongestMetrics
from ..graphs.distances import all_pairs_weighted_distances
from ..graphs.weighted_graph import WeightedGraph
from .pde import PDEResult, solve_pde

__all__ = ["APSPResult", "approximate_apsp", "stretch_statistics"]


@dataclass
class APSPResult:
    """All-pairs distance estimates produced by the Theorem 4.1 algorithm.

    ``estimates``/``next_hops`` *are* ``pde``'s tables (half the footprint of
    copies: each ``n x n`` table is held once), so treat them as read-only.
    """

    epsilon: float
    estimates: Dict[Hashable, Dict[Hashable, float]]
    next_hops: Dict[Hashable, Dict[Hashable, Optional[Hashable]]]
    metrics: CongestMetrics = field(default_factory=CongestMetrics)
    pde: Optional[PDEResult] = None

    def estimate(self, u: Hashable, v: Hashable) -> float:
        if u == v:
            return 0.0
        return self.estimates.get(u, {}).get(v, float("inf"))

    def next_hop(self, u: Hashable, v: Hashable) -> Optional[Hashable]:
        return self.next_hops.get(u, {}).get(v)

    def stretch_audit(self, graph: WeightedGraph,
                      exact: Optional[Dict[Hashable, Dict[Hashable, float]]] = None
                      ) -> Dict[str, float]:
        """Compare the estimates against exact distances.

        Returns max/mean stretch and the number of missing or infeasible
        (below-exact) entries; a correct run has zero of both and max stretch
        at most ``1 + eps`` (up to floating-point slack).
        """
        exact = exact if exact is not None else all_pairs_weighted_distances(graph)
        return stretch_statistics(self.estimates, exact)


def approximate_apsp(graph: WeightedGraph, epsilon: float,
                     engine: str = "batched") -> APSPResult:
    """Theorem 4.1: deterministic ``(1+eps)``-approximate APSP.

    Runs ``(1+eps)``-approximate ``(V, n, n)``-estimation.  Every node ends up
    with an estimate for every other node, because every pair is connected by
    a minimum-hop shortest path of at most ``n - 1 < n`` hops.
    """
    n = graph.num_nodes
    if n < 2:
        raise ValueError("APSP needs at least two nodes")
    pde = solve_pde(graph, graph.nodes(), h=n, sigma=n, epsilon=epsilon,
                    engine=engine, store_levels=False)
    return APSPResult(epsilon=epsilon, estimates=pde.estimates,
                      next_hops=pde.next_hops, metrics=pde.metrics, pde=pde)


def stretch_statistics(estimates: Dict[Hashable, Dict[Hashable, float]],
                       exact: Dict[Hashable, Dict[Hashable, float]]
                       ) -> Dict[str, float]:
    """Stretch statistics of a distance-estimate table against ground truth."""
    stretches: List[float] = []
    missing = 0
    infeasible = 0
    for u, row in exact.items():
        for v, d in row.items():
            if u == v:
                continue
            est = estimates.get(u, {}).get(v)
            if est is None or est == float("inf"):
                missing += 1
                continue
            if est < d - 1e-9:
                infeasible += 1
                continue
            stretches.append(est / d if d > 0 else 1.0)
    if not stretches:
        return {"max_stretch": float("inf"), "mean_stretch": float("inf"),
                "pairs": 0, "missing": missing, "infeasible": infeasible}
    return {
        "max_stretch": max(stretches),
        "mean_stretch": sum(stretches) / len(stretches),
        "pairs": len(stretches),
        "missing": missing,
        "infeasible": infeasible,
    }
