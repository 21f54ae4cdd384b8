"""Shared workloads and reporting helpers for the benchmark harness.

Each paper ``bench_*`` module reproduces one experiment of the E1–E8 index
in :mod:`repro.analysis.experiments` (E1 Figure 1 congestion, E2 APSP, E3/E7
PDE scaling and the epsilon sweep, E4 relabeling, E5 compact routing, E6 the
prior-work ablation, E8 exact vs approximate Thorup–Zwick).  Benchmarks print
the regenerated "table rows" (via ``repro.analysis.reporting``) in addition
to the pytest-benchmark timings; run a module by path with ``-s`` (e.g.
``pytest benchmarks/bench_apsp.py -s``) to see them.

Graph sizes are deliberately moderate: the CONGEST simulator is a pure-Python
round-by-round engine and the goal is the *shape* of the paper's claims
(who wins, how quantities scale), not absolute wall-clock numbers.
"""

import pytest

from repro import graphs


@pytest.fixture(scope="session")
def apsp_workloads():
    """Graph families for the APSP comparison (E2)."""
    return {
        "er_uniform_n24": graphs.erdos_renyi_graph(
            24, 0.2, graphs.uniform_weights(1, 100), seed=1),
        "er_mixed_n24": graphs.erdos_renyi_graph(
            24, 0.2, graphs.mixed_scale_weights(1, 5000, 0.3), seed=2),
        "grid_4x6": graphs.grid_graph(4, 6, graphs.uniform_weights(1, 50), seed=3),
        "ba_n24": graphs.barabasi_albert_graph(
            24, 2, graphs.heavy_tailed_weights(10 ** 4), seed=4),
    }


@pytest.fixture(scope="session")
def routing_workloads():
    """Graph families for the routing experiments (E4, E5, E6, E8)."""
    return {
        "er_n32": graphs.erdos_renyi_graph(
            32, 0.15, graphs.uniform_weights(1, 80), seed=11),
        "geometric_n30": graphs.random_geometric_graph(30, 0.35, None, seed=12),
        "tree_n30": graphs.random_tree(30, graphs.uniform_weights(1, 60), seed=13),
    }


@pytest.fixture(scope="session")
def scaling_sizes():
    """Node counts for scaling sweeps."""
    return [12, 18, 24, 30]
