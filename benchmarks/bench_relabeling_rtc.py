"""E4 — Theorem 4.5: routing table construction with relabeling.

Regenerates the theorem's three claims: stretch at most ``6k - 1 + o(1)``,
labels of ``O(log n)`` bits, and round complexity governed by
``n^{1/2 + 1/(4k)} + D`` — swept over ``k`` and over graph families.

The detection budget constant is :data:`BUDGET_CONSTANT`: at the default
``2`` the budget covers these small graphs whole, every pair is
short-range and the skeleton path the bound is about never runs, so every
row asserts ``long_range_fraction > 0``.
"""

import pytest

from repro.analysis import render_table, run_relabeling_experiment

BUDGET_CONSTANT = 0.5


@pytest.mark.benchmark(group="relabeling")
def test_relabeling_k_sweep(benchmark, routing_workloads):
    g = routing_workloads["er_n32"]

    def run():
        return [dict(run_relabeling_experiment(
                    g, k=k, pair_sample=200, seed=k,
                    budget_constant=BUDGET_CONSTANT), k=k) for k in (1, 2, 3)]

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(render_table(rows, columns=[
        "k", "stretch_bound", "max_route_stretch", "mean_route_stretch",
        "max_distance_stretch", "delivery_rate", "rounds", "round_bound",
        "label_bits", "skeleton_size", "long_range_fraction",
    ], title="E4 — Theorem 4.5 routing with relabeling (vs k)"))
    for record in rows:
        assert record["long_range_fraction"] > 0
        assert record["delivery_rate"] == 1.0
        assert record["max_route_stretch"] <= record["stretch_bound"] + 1e-6
    # Label sizes do not grow with k (Theorem 4.5 labels are O(log n) bits).
    bits = [r["label_bits"] for r in rows]
    assert max(bits) <= 2 * min(bits)


@pytest.mark.benchmark(group="relabeling")
def test_relabeling_graph_families(benchmark, routing_workloads):
    def run():
        rows = []
        for name, g in routing_workloads.items():
            record = dict(run_relabeling_experiment(
                g, k=2, pair_sample=200, seed=7,
                budget_constant=BUDGET_CONSTANT))
            record["graph"] = name
            rows.append(record)
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(render_table(rows, columns=[
        "graph", "n", "max_route_stretch", "stretch_bound", "delivery_rate",
        "rounds", "label_bits", "skeleton_size", "long_range_fraction",
    ], title="E4 — Theorem 4.5 across graph families (k=2)"))
    for record in rows:
        assert record["long_range_fraction"] > 0
        assert record["delivery_rate"] == 1.0
        assert record["max_route_stretch"] <= record["stretch_bound"] + 1e-6
