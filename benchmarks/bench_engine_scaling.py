"""Engine scaling — the batched multi-source detection engine vs per-source.

The per-source ``"logical"`` engine runs ``|S|`` pruned Dijkstras per
rounding level (``O(|S| * (m + n log n))``); the ``"batched"`` engine runs a
single sigma-truncated multi-source bucket-queue search (``O(sigma * m)``
queue operations), so its advantage grows with ``|S| / sigma``.  This
benchmark measures one full `solve_pde` call per engine at
``|S| = ceil(sqrt(n) * ln n)`` sources — the regime of the paper's routing
hierarchies — and verifies the outputs are identical.

Run as a script to produce the JSON artifact consumed by CI:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \
        --sizes 300 1000 3000 --out BENCH_engine_scaling.json

By default the per-source engine is skipped above ``--logical-cutoff`` nodes
(it takes minutes at n=3000); pass a larger cutoff to measure it everywhere.
The batched engine is timed ``--repeats`` times: ``batched_seconds`` is the
median and ``batched_samples`` the sorted samples, so the spread is on
record (the per-source engine, minutes at scale, is timed once).
The pytest entry point (``pytest benchmarks/bench_engine_scaling.py``) runs a
small smoke configuration and asserts the speedup.
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


def _lists_identical(a, b, nodes):
    for v in nodes:
        pa = [(e.estimate, e.source) for e in a.lists[v]]
        pb = [(e.estimate, e.source) for e in b.lists[v]]
        if pa != pb:
            return False
    return True


def run_engine_comparison(n: int, seed: int = 0, epsilon: float = 0.5,
                          include_logical: bool = True,
                          repeats: int = 1) -> dict:
    """Time solve_pde per engine on one workload; verify output identity."""
    graph, sources, h, sigma = make_workload(n, seed=seed)
    record = {
        "n": n,
        "m": graph.num_edges,
        "sources": len(sources),
        "h": h,
        "sigma": sigma,
        "epsilon": epsilon,
        "levels": None,
        "batched_seconds": None,
        "batched_samples": None,
        "logical_seconds": None,
        "speedup": None,
        "lists_identical": None,
    }

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        batched = solve_pde(graph, sources, h=h, sigma=sigma, epsilon=epsilon,
                            engine="batched", store_levels=False)
        samples.append(round(time.perf_counter() - start, 4))
    record["batched_samples"] = sorted(samples)
    record["batched_seconds"] = round(statistics.median(samples), 4)
    record["levels"] = batched.rounding.num_levels

    if include_logical:
        start = time.perf_counter()
        logical = solve_pde(graph, sources, h=h, sigma=sigma, epsilon=epsilon,
                            engine="logical", store_levels=False)
        record["logical_seconds"] = round(time.perf_counter() - start, 4)
        record["speedup"] = round(
            record["logical_seconds"] / max(record["batched_seconds"], 1e-9), 2)
        record["lists_identical"] = _lists_identical(logical, batched,
                                                     graph.nodes())
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="engine")
def test_engine_scaling_smoke(benchmark):
    record = benchmark.pedantic(lambda: run_engine_comparison(300),
                                iterations=1, rounds=1)
    print()
    print(f"n={record['n']} |S|={record['sources']} sigma={record['sigma']} "
          f"levels={record['levels']}: logical {record['logical_seconds']}s, "
          f"batched {record['batched_seconds']}s "
          f"({record['speedup']}x, identical={record['lists_identical']})")
    assert record["lists_identical"]
    # |S|/sigma ~ 8 at n=300; demand a conservative fraction of that margin
    # so the assertion stays robust on loaded CI machines.
    assert record["speedup"] >= 1.5


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[300, 1000, 3000])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--logical-cutoff", type=int, default=1000,
                        help="skip the per-source engine above this n")
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
        include_logical = n <= args.logical_cutoff
        record = run_engine_comparison(n, seed=args.seed, epsilon=args.epsilon,
                                       include_logical=include_logical,
                                       repeats=args.repeats)
        records.append(record)
        speedup = (f"{record['speedup']}x speedup"
                   if record["speedup"] is not None else "logical skipped")
        print(f"n={n:>5} |S|={record['sources']:>4} sigma={record['sigma']:>3} "
              f"levels={record['levels']:>2}  "
              f"batched={record['batched_seconds']:>8}s  "
              f"logical={record['logical_seconds'] or '-':>8}  {speedup}")

    payload = {
        "benchmark": "engine_scaling",
        "description": "solve_pde batched vs per-source logical engine",
        "workload": "ER avg-degree-6, weights 1..32, |S|=ceil(sqrt(n) ln n)",
        "records": records,
    }
    record_benchmark_run(
        "bench_engine_scaling", payload,
        {"sizes": args.sizes, "seed": args.seed, "epsilon": args.epsilon,
         "logical_cutoff": args.logical_cutoff, "repeats": args.repeats},
        out_path=args.out, run_dir=args.run_dir)

    mismatches = [r for r in records if r["lists_identical"] is False]
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
