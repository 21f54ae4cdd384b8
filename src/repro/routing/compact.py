"""Top-level compact-routing API — Corollary 4.14.

Corollary 4.14 combines the construction variants of Section 4.3: given
``k``, it picks the truncation level ``l0`` (as a function of the hop
diameter ``D``) so that tables of ``O~(n^{1/k})`` words and labels of
``O(k log n)`` bits with stretch ``4k - 3 + o(1)`` are computed in
``O~(min{(Dn)^{1/2} n^{1/k}, n^{2/3+2/(3k)}} + D)`` rounds.

:func:`build_compact_routing` exposes exactly this choice: ``mode="auto"``
computes ``D`` and picks ``l0`` per the proof of Corollary 4.14, while the
explicit modes give direct access to Theorem 4.8 (``"spd"``) and
Theorem 4.13 (``"truncated"``) and to the plain Lemma 4.7 construction
(``"budget"``).
"""

from __future__ import annotations

import math
from typing import Optional

from ..graphs.distances import hop_diameter
from ..graphs.weighted_graph import WeightedGraph
from .tz_hierarchy import CompactRoutingHierarchy

__all__ = ["choose_truncation_level", "build_compact_routing"]


def choose_truncation_level(n: int, k: int, diameter: int) -> int:
    """The ``l0`` of Corollary 4.14: the integer closest to
    ``k (log D / log n + 1) / 2``, clamped to ``[k/2 + 1, k - 1]``."""
    if n < 2 or k < 2:
        return max(1, k - 1)
    raw = k * (math.log(max(2, diameter)) / math.log(n) + 1.0) / 2.0
    l0 = int(round(raw))
    lower = int(math.floor(k / 2.0)) + 1
    upper = k - 1
    return max(min(l0, upper), min(lower, upper))


def build_compact_routing(graph: WeightedGraph, k: int, epsilon: float = 0.25,
                          seed: int = 0, mode: str = "auto",
                          l0: Optional[int] = None, budget_constant: float = 2.0,
                          engine: str = "batched", build_workers: int = 1,
                          registry=None) -> CompactRoutingHierarchy:
    """Build compact routing tables per Corollary 4.14.

    ``mode="auto"`` measures the hop diameter ``D`` and uses the truncated
    construction with the corollary's ``l0`` when ``k >= 3`` (for ``k = 2``
    the corollary's minimum is attained by the non-truncated construction).

    ``build_workers > 1`` runs the per-level PDE instances' level stream on
    a process pool (:mod:`repro.core.build_runner`); the result is identical
    to the one-worker build.  ``registry`` receives build-stage
    telemetry spans when given.
    """
    if mode == "auto":
        if k >= 3:
            diameter = hop_diameter(graph)
            level = l0 if l0 is not None else choose_truncation_level(
                graph.num_nodes, k, diameter)
            hierarchy = CompactRoutingHierarchy.build(
                graph, k, epsilon=epsilon, seed=seed, mode="truncated", l0=level,
                budget_constant=budget_constant, engine=engine,
                build_workers=build_workers, registry=registry)
            hierarchy.build_params.update(requested_mode="auto",
                                          auto_hop_diameter=diameter)
        else:
            hierarchy = CompactRoutingHierarchy.build(
                graph, k, epsilon=epsilon, seed=seed, mode="budget",
                budget_constant=budget_constant, engine=engine,
                build_workers=build_workers, registry=registry)
            hierarchy.build_params["requested_mode"] = "auto"
        return hierarchy
    return CompactRoutingHierarchy.build(
        graph, k, epsilon=epsilon, seed=seed, mode=mode, l0=l0,
        budget_constant=budget_constant, engine=engine,
        build_workers=build_workers, registry=registry)
