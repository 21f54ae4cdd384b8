"""Theoretical bounds of the paper, as evaluable functions.

The benchmark scripts and :mod:`repro.analysis.experiments` compare measured
quantities against the paper's asymptotic bounds.  Since the bounds hide constants and polylogarithmic
factors, each function returns the *leading expression* (with unit constants)
so that benchmark output can report "measured / bound" ratios whose shape —
flat in the varied parameter — is the reproduction criterion.
"""

from __future__ import annotations

import math
from typing import Dict

__all__ = [
    "log2n",
    "pde_round_bound",
    "pde_broadcast_bound",
    "source_detection_round_bound",
    "exact_detection_round_bound",
    "apsp_round_bound",
    "bellman_ford_round_bound",
    "link_state_round_bound",
    "nanongkai_round_bound",
    "relabeling_round_bound",
    "relabeling_stretch_bound",
    "compact_round_bound",
    "compact_stretch_bound",
    "compact_table_bound",
    "label_bits_bound",
    "figure1_congestion_bound",
]


def log2n(n: int) -> float:
    """``log2 n`` clamped below at 1 (the paper's logs hide constants anyway)."""
    return max(1.0, math.log2(max(2, n)))


def source_detection_round_bound(h: int, sigma: int) -> float:
    """Unweighted ``(S, h, sigma)``-detection: ``h + sigma`` rounds ([10])."""
    return h + sigma


def exact_detection_round_bound(h: int, sigma: int) -> float:
    """Exact weighted detection under h-hop distances: ``sigma * h`` rounds."""
    return sigma * h


def pde_round_bound(h: int, sigma: int, epsilon: float, n: int, diameter: int = 0
                    ) -> float:
    """Corollary 3.5: ``O((h + sigma)/eps^2 * log n + D)`` rounds."""
    return (h + sigma) / (epsilon ** 2) * log2n(n) + diameter


def pde_broadcast_bound(sigma: int, epsilon: float, n: int) -> float:
    """Corollary 3.5 / Lemma 3.4: ``O(sigma^2 / eps * log n)`` broadcasts per node."""
    return (sigma ** 2) / epsilon * log2n(n)


def apsp_round_bound(n: int, epsilon: float) -> float:
    """Theorem 4.1: ``O(n log n / eps^2)`` rounds."""
    return n * log2n(n) / (epsilon ** 2)


def bellman_ford_round_bound(n: int) -> float:
    """Distance-vector APSP worst case: ``Theta(n^2)`` rounds."""
    return float(n * n)


def link_state_round_bound(m: int, diameter: int) -> float:
    """Topology flooding: ``Theta(m) + D`` rounds."""
    return float(m + diameter)


def nanongkai_round_bound(n: int, epsilon: float) -> float:
    """Randomized baseline [14]: ``O(n log^2 n / eps^2)`` rounds w.h.p."""
    return n * (log2n(n) ** 2) / (epsilon ** 2)


def relabeling_round_bound(n: int, k: int, diameter: int) -> float:
    """Theorem 4.5: ``O~(n^{1/2 + 1/(4k)} + D)`` rounds."""
    return n ** (0.5 + 1.0 / (4.0 * k)) * log2n(n) + diameter


def relabeling_stretch_bound(k: int) -> float:
    """Theorem 4.5: stretch ``6k - 1 + o(1)``."""
    return 6.0 * k - 1.0


def compact_round_bound(n: int, k: int, diameter: int) -> float:
    """Corollary 4.14: ``O~(min{(Dn)^{1/2} n^{1/k}, n^{2/3+2/(3k)}} + D)``."""
    first = math.sqrt(max(1, diameter) * n) * n ** (1.0 / k)
    second = n ** (2.0 / 3.0 + 2.0 / (3.0 * k))
    return min(first, second) * log2n(n) + diameter


def compact_stretch_bound(k: int) -> float:
    """Theorems 4.8 / 4.13: stretch ``4k - 3 + o(1)``."""
    return 4.0 * k - 3.0


def compact_table_bound(n: int, k: int) -> float:
    """Table size ``O~(n^{1/k})`` words."""
    return n ** (1.0 / k) * log2n(n)


def label_bits_bound(n: int, k: int = 1) -> float:
    """Label sizes: ``O(log n)`` bits (Theorem 4.5) or ``O(k log n)`` (Section 4.3)."""
    return k * log2n(n)


def figure1_congestion_bound(h: int, sigma: int) -> float:
    """Figure 1: ``h * sigma`` values must cross the bottleneck edge."""
    return float(h * sigma)


def bound_table(n: int, m: int, k: int, epsilon: float, diameter: int
                ) -> Dict[str, float]:
    """All bounds evaluated at one parameter point (used in reports)."""
    return {
        "apsp_rounds": apsp_round_bound(n, epsilon),
        "bellman_ford_rounds": bellman_ford_round_bound(n),
        "link_state_rounds": link_state_round_bound(m, diameter),
        "nanongkai_rounds": nanongkai_round_bound(n, epsilon),
        "relabeling_rounds": relabeling_round_bound(n, k, diameter),
        "relabeling_stretch": relabeling_stretch_bound(k),
        "compact_rounds": compact_round_bound(n, k, diameter),
        "compact_stretch": compact_stretch_bound(k),
        "compact_table_words": compact_table_bound(n, k),
    }
