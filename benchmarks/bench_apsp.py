"""E2 — Theorem 4.1: deterministic (1+eps)-APSP vs the baselines.

Regenerates the introduction's comparison table: rounds and stretch for the
PDE-based deterministic algorithm, the randomized rounding baseline [14],
distributed Bellman–Ford and link-state flooding, across graph families, plus
a scaling sweep in ``n``.
"""

import pytest

from repro import graphs
from repro.analysis import complexity, render_table, run_apsp_comparison
from repro.core import approximate_apsp


@pytest.mark.benchmark(group="apsp")
def test_apsp_comparison_across_families(benchmark, apsp_workloads):
    def run():
        rows = []
        for name, g in apsp_workloads.items():
            for record in run_apsp_comparison(g, epsilon=0.5):
                record = dict(record)
                record["graph"] = name
                rows.append(record)
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(render_table(rows, columns=[
        "graph", "algorithm", "deterministic", "rounds", "round_bound",
        "max_stretch", "mean_stretch",
    ], title="E2 — APSP comparison (Theorem 4.1 vs baselines)"))
    ours = [r for r in rows if "Thm 4.1" in r["algorithm"]]
    rand = [r for r in rows if "nanongkai" in r["algorithm"]]
    # Shape checks: our algorithm meets its stretch bound everywhere and is
    # cheaper (in accounted rounds) than the randomized baseline.
    assert all(r["max_stretch"] <= 1.5 + 1e-9 for r in ours)
    for o, r in zip(ours, rand):
        assert o["rounds"] < r["rounds"]


@pytest.mark.benchmark(group="apsp")
def test_apsp_round_scaling(benchmark, scaling_sizes):
    """Accounted rounds of Theorem 4.1 scale near-linearly in n (times log n)."""
    def run():
        rows = []
        for n in scaling_sizes:
            g = graphs.erdos_renyi_graph(n, 3.0 / n + 0.1,
                                         graphs.uniform_weights(1, 100), seed=n)
            result = approximate_apsp(g, epsilon=0.5)
            rows.append({
                "n": n,
                "rounds": result.metrics.rounds,
                "bound": complexity.apsp_round_bound(n, 0.5),
                "rounds/bound": result.metrics.rounds / complexity.apsp_round_bound(n, 0.5),
            })
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(render_table(rows, title="E2 — APSP round scaling vs O(n log n / eps^2)"))
    ratios = [r["rounds/bound"] for r in rows]
    # The measured/bound ratio must stay within a constant band (no blow-up).
    assert max(ratios) <= 10 * min(ratios)


@pytest.mark.benchmark(group="apsp")
def test_apsp_wallclock(benchmark, apsp_workloads):
    """Wall-clock of ``approximate_apsp`` on its default ``batched`` engine."""
    g = apsp_workloads["er_uniform_n24"]
    benchmark(approximate_apsp, g, 0.5)
