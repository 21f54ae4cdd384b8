"""Experiment runners shared by the benchmark harness, examples and tests.

Each ``run_*`` function executes one experiment on a given workload and
returns flat dict records, ready to be rendered by
:mod:`repro.analysis.reporting` and compared against the bounds in
:mod:`repro.analysis.complexity`.  The experiments are numbered E1–E8 in
the section headers below: E1 Figure 1's congestion lower bound, E2 APSP
against the baselines (Thm 4.1), E3/E7 PDE scaling and the epsilon sweep
(Cor. 3.5, Lemma 3.4), E4 routing with relabeling (Thm 4.5), E5 compact
routing (Thms 4.8/4.13, Cor. 4.14), E6 the prior-work ablation and E8
exact vs approximate Thorup–Zwick.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..baselines import (
    bellman_ford_apsp,
    compare_long_range_schemes,
    link_state_apsp,
    nanongkai_apsp,
)
from ..core.apsp import approximate_apsp, stretch_statistics
from ..core.detection_exact import run_exact_detection_simulation
from ..core.pde import solve_pde
from ..core.source_detection import lemma34_message_cap
from ..graphs.distances import all_pairs_weighted_distances, hop_diameter
from ..graphs.lower_bound import build_figure1_graph
from ..graphs.weighted_graph import WeightedGraph
from ..routing.compact import build_compact_routing
from ..routing.relabeling_scheme import RelabelingRoutingScheme
from ..routing.skeleton import (
    default_sampling_probability,
    exact_skeleton_graph,
    sample_skeleton,
)
from ..routing.stretch import evaluate_distance_estimates, sample_pairs
from ..routing.tz_exact import ExactThorupZwickOracle
from ..routing.tz_hierarchy import CompactRoutingHierarchy
from . import complexity

__all__ = [
    "run_apsp_comparison",
    "run_pde_scaling",
    "run_figure1_congestion",
    "run_relabeling_experiment",
    "run_compact_experiment",
    "run_prior_work_ablation",
    "run_epsilon_sweep",
    "run_tz_comparison",
]


# ----------------------------------------------------------------------
# E2 — APSP comparison (Theorem 4.1 vs baselines)
# ----------------------------------------------------------------------
def run_apsp_comparison(graph: WeightedGraph, epsilon: float = 0.25, seed: int = 0,
                        include_bellman_ford: bool = True,
                        engine: str = "batched") -> List[Dict]:
    """Rounds and stretch of the Theorem 4.1 algorithm against the baselines."""
    n = graph.num_nodes
    m = graph.num_edges
    diameter = hop_diameter(graph)
    exact = all_pairs_weighted_distances(graph)
    records: List[Dict] = []

    ours = approximate_apsp(graph, epsilon=epsilon, engine=engine)
    stats = stretch_statistics(ours.estimates, exact)
    records.append({
        "algorithm": "pde_apsp (Thm 4.1)",
        "deterministic": True,
        "rounds": ours.metrics.rounds,
        "round_bound": complexity.apsp_round_bound(n, epsilon),
        "max_stretch": stats["max_stretch"],
        "mean_stretch": stats["mean_stretch"],
        "missing": stats["missing"],
    })

    rand = nanongkai_apsp(graph, epsilon=epsilon, seed=seed)
    rand_stats = stretch_statistics(rand.estimates, exact)
    records.append({
        "algorithm": "nanongkai14 (randomized)",
        "deterministic": False,
        "rounds": rand.metrics.rounds,
        "round_bound": complexity.nanongkai_round_bound(n, epsilon),
        "max_stretch": rand_stats["max_stretch"],
        "mean_stretch": rand_stats["mean_stretch"],
        "missing": rand_stats["missing"],
    })

    if include_bellman_ford:
        bf = bellman_ford_apsp(graph, simulate=True)
        bf_stats = stretch_statistics(bf.distances, exact)
        records.append({
            "algorithm": "bellman_ford (exact)",
            "deterministic": True,
            "rounds": bf.metrics.rounds,
            "round_bound": complexity.bellman_ford_round_bound(n),
            "max_stretch": bf_stats["max_stretch"],
            "mean_stretch": bf_stats["mean_stretch"],
            "missing": bf_stats["missing"],
        })

    ls = link_state_apsp(graph)
    ls_stats = stretch_statistics(ls.distances, exact)
    records.append({
        "algorithm": "link_state (exact)",
        "deterministic": True,
        "rounds": ls.metrics.rounds,
        "round_bound": complexity.link_state_round_bound(m, diameter),
        "max_stretch": ls_stats["max_stretch"],
        "mean_stretch": ls_stats["mean_stretch"],
        "missing": ls_stats["missing"],
    })
    return records


# ----------------------------------------------------------------------
# E3 / E7 — PDE scaling and epsilon sweep (Corollary 3.5, Lemma 3.4)
# ----------------------------------------------------------------------
def run_pde_scaling(graph: WeightedGraph, num_sources: int, h: int, sigma: int,
                    epsilon: float, seed: int = 0, engine: str = "simulate") -> Dict:
    """Measured rounds / broadcasts of one PDE instance against the bounds."""
    rng = random.Random(seed)
    nodes = graph.nodes()
    sources = rng.sample(nodes, min(num_sources, len(nodes)))
    pde = solve_pde(graph, sources, h=h, sigma=sigma, epsilon=epsilon, engine=engine)
    n = graph.num_nodes
    return {
        "n": n,
        "sources": len(sources),
        "h": h,
        "sigma": sigma,
        "epsilon": epsilon,
        "levels": pde.rounding.num_levels,
        "rounds": pde.metrics.rounds,
        "round_bound": complexity.pde_round_bound(h, sigma, epsilon, n),
        "max_broadcasts": pde.metrics.max_broadcasts(),
        "broadcast_bound": complexity.pde_broadcast_bound(sigma, epsilon, n),
        "per_level_cap": lemma34_message_cap(sigma),
        "measured": pde.metrics.measured,
    }


def run_epsilon_sweep(graph: WeightedGraph, epsilons: Sequence[float],
                      h: Optional[int] = None, sigma: Optional[int] = None,
                      seed: int = 0, engine: str = "batched") -> List[Dict]:
    """Accuracy/cost trade-off of PDE as epsilon varies (Theorem 3.3)."""
    n = graph.num_nodes
    h = h if h is not None else n
    sigma = sigma if sigma is not None else n
    exact = all_pairs_weighted_distances(graph)
    records = []
    for eps in epsilons:
        pde = solve_pde(graph, graph.nodes(), h=h, sigma=sigma, epsilon=eps,
                        engine=engine, store_levels=False)
        stats = stretch_statistics(pde.estimates, exact)
        records.append({
            "epsilon": eps,
            "levels": pde.rounding.num_levels,
            "rounds_bound": complexity.pde_round_bound(h, sigma, eps, n),
            "max_stretch": stats["max_stretch"],
            "mean_stretch": stats["mean_stretch"],
            "guarantee": 1.0 + eps,
            "within_guarantee": stats["max_stretch"] <= 1.0 + eps + 1e-9,
        })
    return records


# ----------------------------------------------------------------------
# E1 — Figure 1 congestion lower bound
# ----------------------------------------------------------------------
def run_figure1_congestion(h: int, sigma: int, epsilon: float = 0.5,
                           max_rounds: Optional[int] = None) -> Dict:
    """Messages over the Figure 1 bottleneck: exact detection vs PDE."""
    instance = build_figure1_graph(h, sigma)
    graph = instance.graph
    sources = instance.source_set
    budget = instance.detection_hop_budget
    u1, vh = instance.bottleneck

    exact = run_exact_detection_simulation(graph, sources, budget, sigma,
                                           max_rounds=max_rounds)
    pde = solve_pde(graph, sources, h=budget, sigma=sigma, epsilon=epsilon,
                    engine="simulate")
    return {
        "h": h,
        "sigma": sigma,
        "nodes": graph.num_nodes,
        "paper_bound_values": instance.required_values_over_bottleneck(),
        "exact_bottleneck_messages": exact.metrics.edge_traffic(u1, vh),
        "exact_rounds": exact.metrics.rounds,
        "exact_round_bound": complexity.exact_detection_round_bound(budget, sigma),
        "pde_bottleneck_messages": pde.metrics.edge_traffic(u1, vh),
        "pde_rounds": pde.metrics.rounds,
        "pde_max_broadcasts": pde.metrics.max_broadcasts(),
        "pde_broadcast_bound": complexity.pde_broadcast_bound(sigma, epsilon,
                                                              graph.num_nodes),
    }


# ----------------------------------------------------------------------
# E4 — Theorem 4.5 routing with relabeling
# ----------------------------------------------------------------------
def run_relabeling_experiment(graph: WeightedGraph, k: int, epsilon: float = 0.25,
                              seed: int = 0, budget_constant: float = 2.0,
                              pair_sample: Optional[int] = None,
                              engine: str = "batched") -> Dict:
    """Build the Theorem 4.5 scheme and audit stretch, label size and rounds.

    ``long_range_fraction`` is the share of audited pairs routed on the
    skeleton path; at ``0`` the audit never leaves the short-range trees.
    """
    scheme = RelabelingRoutingScheme.build(graph, k=k, epsilon=epsilon, seed=seed,
                                           budget_constant=budget_constant,
                                           engine=engine)
    pairs = sample_pairs(graph.nodes(), pair_sample, random.Random(seed))
    audit = scheme.audit(pairs=pairs)
    dist_audit = evaluate_distance_estimates(scheme, graph, pairs=pairs)
    report = scheme.build_report()
    n = graph.num_nodes
    diameter = hop_diameter(graph)
    return {
        "n": n,
        "k": k,
        "stretch_bound": complexity.relabeling_stretch_bound(k),
        "max_route_stretch": audit["max_stretch"],
        "mean_route_stretch": audit["mean_stretch"],
        "max_distance_stretch": dist_audit.max_stretch,
        "delivery_rate": audit["delivery_rate"],
        "rounds": report.rounds,
        "round_bound": complexity.relabeling_round_bound(n, k, diameter),
        "label_bits": report.label_bits_max,
        "label_bits_bound": complexity.label_bits_bound(n),
        "skeleton_size": report.skeleton_size,
        "long_range_fraction": scheme.long_range_fraction(pairs),
    }


# ----------------------------------------------------------------------
# E5 — compact routing (Theorems 4.8/4.13, Corollary 4.14)
# ----------------------------------------------------------------------
def run_compact_experiment(graph: WeightedGraph, k: int, mode: str = "auto",
                           l0: Optional[int] = None, epsilon: float = 0.25,
                           seed: int = 0, pair_sample: Optional[int] = None,
                           engine: str = "batched") -> Dict:
    """Build the compact hierarchy and audit stretch / table size / rounds."""
    hierarchy = build_compact_routing(graph, k=k, epsilon=epsilon, seed=seed,
                                      mode=mode, l0=l0, engine=engine)
    pairs = sample_pairs(graph.nodes(), pair_sample, random.Random(seed))
    audit = hierarchy.audit(pairs=pairs)
    report = hierarchy.build_report()
    n = graph.num_nodes
    diameter = hop_diameter(graph)
    return {
        "n": n,
        "k": k,
        "mode": report.mode,
        "l0": report.l0,
        "stretch_bound": complexity.compact_stretch_bound(k),
        "max_route_stretch": audit["max_stretch"],
        "mean_route_stretch": audit["mean_stretch"],
        "delivery_rate": audit["delivery_rate"],
        "rounds": report.rounds,
        "round_bound": complexity.compact_round_bound(n, k, diameter),
        "max_table_words": report.max_table_words,
        "table_bound_words": complexity.compact_table_bound(n, k),
        "max_label_bits": report.max_label_bits,
        "label_bits_bound": complexity.label_bits_bound(n, k),
        "max_bunch_size": report.max_bunch_size,
    }


# ----------------------------------------------------------------------
# E6 — ablation against the prior-work long-range design
# ----------------------------------------------------------------------
def run_prior_work_ablation(graph: WeightedGraph, k: int, seed: int = 0,
                            skeleton_probability: Optional[float] = None,
                            hop_budget: Optional[int] = None,
                            method: str = "baswana_sen") -> Dict:
    """Long-range stretch of the new design vs. the prior-work design [15]."""
    n = graph.num_nodes
    rng = random.Random(seed)
    p = (skeleton_probability if skeleton_probability is not None
         else default_sampling_probability(n, k))
    skeleton = sample_skeleton(graph.nodes(), p, rng)
    h = hop_budget if hop_budget is not None else n
    skeleton_graph = exact_skeleton_graph(graph, skeleton, h)
    comparison = compare_long_range_schemes(skeleton_graph, k, seed=seed, method=method)
    record = comparison.as_dict()
    record.update({
        "n": n,
        "new_stretch_bound": 2 * k - 1,
        "prior_stretch_bound": (2 * k - 1) ** 2,
    })
    return record


# ----------------------------------------------------------------------
# E8 — exact vs approximate Thorup–Zwick hierarchy
# ----------------------------------------------------------------------
def run_tz_comparison(graph: WeightedGraph, k: int, epsilon: float = 0.25,
                      seed: int = 0, pair_sample: Optional[int] = None,
                      engine: str = "batched") -> Dict:
    """Compare the exact TZ oracle with the PDE-based approximate hierarchy."""
    exact_oracle = ExactThorupZwickOracle(graph, k=k, seed=seed)
    hierarchy = CompactRoutingHierarchy.build(graph, k=k, epsilon=epsilon,
                                              seed=seed, mode="budget",
                                              engine=engine)
    exact_dists = all_pairs_weighted_distances(graph)
    pairs = sample_pairs(graph.nodes(), pair_sample, random.Random(seed))

    def max_mean(values: Iterable[float]):
        values = list(values)
        return (max(values), sum(values) / len(values)) if values else (1.0, 1.0)

    exact_stretches = []
    hierarchy_stretches = []
    for u, v in pairs:
        d = exact_dists[u][v]
        if d <= 0:
            continue
        exact_stretches.append(exact_oracle.hierarchy_query(u, v)[0] / d)
        hierarchy_stretches.append(hierarchy.distance(u, v) / d)
    exact_max, exact_mean = max_mean(exact_stretches)
    approx_max, approx_mean = max_mean(hierarchy_stretches)
    return {
        "n": graph.num_nodes,
        "k": k,
        "epsilon": epsilon,
        "stretch_bound": complexity.compact_stretch_bound(k),
        "exact_max_stretch": exact_max,
        "exact_mean_stretch": exact_mean,
        "approx_max_stretch": approx_max,
        "approx_mean_stretch": approx_mean,
        "exact_max_bunch": exact_oracle.max_bunch_size(),
        "approx_max_bunch": hierarchy.max_bunch_size(),
    }
