"""Experiment runners shared by the benchmark harness, examples and tests.

Each ``run_*`` function executes one experiment from the index in DESIGN.md
(E1–E8) on a given workload and returns flat dict records, ready to be
rendered by :mod:`repro.analysis.reporting` and compared against the bounds
in :mod:`repro.analysis.complexity`.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

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
from ..serving import (
    BuildConfig,
    CacheConfig,
    ServingConfig,
    ShardedRoutingService,
    WorkloadConfig,
    make_workload,
    open_service,
)
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
    "run_serving_experiment",
    "run_sharded_experiment",
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
        "fallback_edges": report.fallback_edges,
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
        "fallback_edges": report.fallback_edges,
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


# ----------------------------------------------------------------------
# E9 — serving scenario: cached query streams against a built hierarchy
# ----------------------------------------------------------------------
def run_serving_experiment(graph: WeightedGraph, k: int = 3,
                           workload: str = "zipf", num_queries: int = 500,
                           epsilon: float = 0.25, seed: int = 0,
                           cache_size: int = 4096, batch_size: int = 64,
                           engine: str = "batched") -> Dict:
    """Serve a query workload cold and warm; report throughput and hit rates.

    The serving unit of work is a *query stream*, not a single construction:
    the record contrasts the first (cold-cache) pass over the workload with
    a second (warm) pass, which is the steady state a long-running service
    converges to on a skewed stream.  Serves through the v2 surface: one
    :class:`~repro.serving.config.ServingConfig` describes the session and
    :func:`~repro.serving.backend.open_service` opens the backend.
    """
    import time

    config = ServingConfig(
        build=BuildConfig(k=k, epsilon=epsilon, seed=seed, engine=engine),
        cache=CacheConfig(capacity=cache_size),
        workload=WorkloadConfig(name=workload, num_queries=num_queries),
        batch_size=batch_size)
    service = open_service(config, graph=graph)
    stream = make_workload(workload, graph, num_queries,
                           seed=config.workload_seed())

    def timed_pass() -> float:
        start = time.perf_counter()
        for lo in range(0, len(stream.pairs), batch_size):
            service.route_batch(stream.pairs[lo:lo + batch_size])
        return time.perf_counter() - start

    cold_seconds = timed_pass()
    warm_seconds = timed_pass()
    record = {
        "n": graph.num_nodes,
        "k": k,
        "workload": workload,
        "queries": len(stream),
        "distinct_pairs": stream.distinct_pairs(),
        "batch_size": batch_size,
        "build_seconds": service.stats.build_seconds,
        "cold_qps": len(stream) / cold_seconds if cold_seconds > 0 else float("inf"),
        "warm_qps": len(stream) / warm_seconds if warm_seconds > 0 else float("inf"),
        "cache_hit_rate": service.stats.cache_hit_rate,
    }
    record["warm_speedup"] = (record["warm_qps"] / record["cold_qps"]
                              if record["cold_qps"] > 0 else float("inf"))
    service.close()
    return record


# ----------------------------------------------------------------------
# E10 — sharded serving: one stream scattered across worker processes
# ----------------------------------------------------------------------
def run_sharded_experiment(graph: WeightedGraph, k: int = 3,
                           workload: str = "uniform", num_queries: int = 400,
                           epsilon: float = 0.25, seed: int = 0,
                           worker_counts: Sequence[int] = (1, 2),
                           partitioner: str = "round_robin",
                           cache_size: int = 4096, batch_size: int = 128,
                           engine: str = "batched",
                           artifact_path: Optional[str] = None) -> Dict:
    """Scale the same query stream across worker-process counts.

    Builds the artifact once (in a temporary directory unless
    ``artifact_path`` points somewhere durable), answers the stream with a
    single-process reference service, then replays it through a
    :class:`~repro.serving.sharded.ShardedRoutingService` at each worker
    count, reporting per-count throughput and merged cache hit rates.  Each
    scaling entry records ``identical_to_single_process`` — whether the
    sharded answers were list-for-list identical to the reference — so a
    consumer must check that flag before trusting the throughput numbers
    (the shard tests assert it holds; the experiment reports rather than
    raises so a regression still yields an inspectable record).
    """
    import os
    import tempfile
    import time

    tmp_dir: Optional[tempfile.TemporaryDirectory] = None
    if artifact_path is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-shard-exp-")
        artifact_path = os.path.join(tmp_dir.name, "hierarchy.artifact")
    try:
        base_config = ServingConfig(
            artifact_path=artifact_path,
            build=BuildConfig(k=k, epsilon=epsilon, seed=seed, engine=engine),
            cache=CacheConfig(capacity=cache_size),
            workload=WorkloadConfig(name=workload, num_queries=num_queries),
            batch_size=batch_size, partitioner=partitioner)
        parent = open_service(base_config, graph=graph)
        stream = make_workload(workload, graph, num_queries, seed=seed)
        chunks = [stream.pairs[lo:lo + batch_size]
                  for lo in range(0, len(stream.pairs), batch_size)]
        reference = [trace for chunk in chunks
                     for trace in parent.route_batch(chunk)]

        record: Dict = {
            "n": graph.num_nodes,
            "k": k,
            "workload": workload,
            "queries": len(stream),
            "distinct_pairs": stream.distinct_pairs(),
            "partitioner": partitioner,
            "batch_size": batch_size,
            "cache_size": cache_size,
            "build_seconds": parent.stats.build_seconds,
            "scaling": [],
        }
        for workers in worker_counts:
            # The scaling loop deliberately pins the sharded front-end even
            # at one worker (the IPC overhead belongs in the curve), so it
            # constructs ShardedRoutingService directly instead of letting
            # open_service pick the local backend for workers == 1.
            with ShardedRoutingService(
                    artifact_path, num_workers=workers,
                    partitioner=partitioner,
                    cache_config=base_config.cache,
                    graph=graph) as sharded:
                start = time.perf_counter()
                answers = [trace for chunk in chunks
                           for trace in sharded.route_batch(chunk)]
                elapsed = time.perf_counter() - start
                merged = sharded.merged_stats()
            identical = (
                [t.path for t in answers] == [t.path for t in reference]
                and [t.weight for t in answers] == [t.weight for t in reference])
            record["scaling"].append({
                "workers": workers,
                "qps": len(stream) / elapsed if elapsed > 0 else float("inf"),
                "cache_hit_rate": merged.cache_hit_rate,
                "identical_to_single_process": identical,
            })
        base = record["scaling"][0]["qps"]
        for entry in record["scaling"]:
            entry["speedup"] = entry["qps"] / base if base > 0 else float("inf")
        return record
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()
