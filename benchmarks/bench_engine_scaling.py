"""Engine scaling — the batched multi-source detection engine as ``n`` grows.

The ``"batched"`` engine runs a single sigma-truncated multi-source
bucket-queue search per rounding level (``O(sigma * m)`` queue operations,
independent of ``|S|``).  This benchmark times one full `solve_pde` call at
``|S| = ceil(sqrt(n) * ln n)`` sources — the regime of the paper's routing
hierarchies.  Correctness is not checked here: the tier-1 tests compare
``batched`` with the per-source reference in ``tests/helpers.py``
(``test_detection_core.py::test_matches_logical_on_engine_matrix``,
``test_engine_batched.py::test_matches_logical_randomized``).

Run as a script to produce the JSON artifact consumed by CI:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \
        --sizes 300 1000 3000 --out BENCH_engine_scaling.json

Each size is timed ``--repeats`` times: ``batched_seconds`` is the median and
``batched_samples`` the sorted samples, so the spread is on record.  The
pytest entry point (``pytest benchmarks/bench_engine_scaling.py``) runs a
small smoke configuration.
"""

import argparse
import math
import statistics
import time

import pytest

from repro import graphs
from repro.core import solve_pde
from repro.obs.experiment import record_benchmark_run


def make_workload(n: int, seed: int = 0):
    """ER graph with average degree ~6 and moderate weights, plus |S|, h, sigma."""
    p = min(1.0, 6.0 / max(1, n - 1))
    graph = graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 32), seed=seed)
    log_n = math.log(max(2, n))
    num_sources = min(n, int(math.ceil(math.sqrt(n) * log_n)))
    sources = graph.nodes()[:num_sources]
    h = 4
    sigma = max(1, int(math.ceil(2 * log_n)))
    return graph, sources, h, sigma


def run_engine_timing(n: int, seed: int = 0, epsilon: float = 0.5,
                      repeats: int = 1) -> dict:
    """Time solve_pde on the batched engine for one workload."""
    graph, sources, h, sigma = make_workload(n, seed=seed)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        batched = solve_pde(graph, sources, h=h, sigma=sigma, epsilon=epsilon,
                            engine="batched", store_levels=False)
        samples.append(round(time.perf_counter() - start, 4))
    return {
        "n": n,
        "m": graph.num_edges,
        "sources": len(sources),
        "h": h,
        "sigma": sigma,
        "epsilon": epsilon,
        "levels": batched.rounding.num_levels,
        "batched_seconds": round(statistics.median(samples), 4),
        "batched_samples": sorted(samples),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="engine")
def test_engine_scaling_smoke(benchmark):
    record = benchmark.pedantic(lambda: run_engine_timing(300),
                                iterations=1, rounds=1)
    print()
    print(f"n={record['n']} |S|={record['sources']} sigma={record['sigma']} "
          f"levels={record['levels']}: batched {record['batched_seconds']}s")
    assert record["levels"] > 1 and record["batched_seconds"] > 0


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[300, 1000, 3000])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed batched solves per size (median kept)")
    parser.add_argument("--out", default="BENCH_engine_scaling.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_engine_scaling/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    records = []
    for n in args.sizes:
        record = run_engine_timing(n, seed=args.seed, epsilon=args.epsilon,
                                   repeats=args.repeats)
        records.append(record)
        print(f"n={n:>5} |S|={record['sources']:>4} sigma={record['sigma']:>3} "
              f"levels={record['levels']:>2}  "
              f"batched={record['batched_seconds']:>8}s")

    payload = {
        "benchmark": "engine_scaling",
        "description": "solve_pde on the batched engine",
        "workload": "ER avg-degree-6, weights 1..32, |S|=ceil(sqrt(n) ln n)",
        "records": records,
    }
    record_benchmark_run(
        "bench_engine_scaling", payload,
        {"sizes": args.sizes, "seed": args.seed, "epsilon": args.epsilon,
         "repeats": args.repeats},
        out_path=args.out, run_dir=args.run_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
