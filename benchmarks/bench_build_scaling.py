"""Build scaling — hierarchy construction wall clock vs build-worker count.

Hierarchy construction is dominated by the per-level ``solve_pde`` source
detections, and those are embarrassingly parallel: each rounding level's
sigma-truncated detection depends only on the graph, the level's sources
and its integer edge lengths — never on another level's output.
``build_workers > 1`` runs the same task list on a spawn-based process pool
(:mod:`repro.core.build_runner`) and folds it in the same order, so the
parallel build must be **checksum-identical** to the one-worker one: the
saved artifact's ``payload_sha256`` is compared across every worker count
and any mismatch fails the benchmark unconditionally.

The wall-clock speedup, by contrast, is physics: a process pool cannot beat
one core on a one-core host (spawn/pickle overhead makes it *slower*
there).  The speedup gate is therefore enforced only when ``os.cpu_count()``
covers the largest worker count; the measured ratio and the host's
``cpu_count`` are always recorded so runs from different hosts compare
honestly (same convention as ``BENCH_shard_scaling.json``).

Run as a script to produce the JSON artifact consumed by CI (the flat JSON
is derived from a ``repro-experiment``-layout run directory):

    PYTHONPATH=src python benchmarks/bench_build_scaling.py \\
        --n 1500 --workers 1 4 --out BENCH_build_scaling.json

``--graph SPEC`` swaps the ER workload for any ``repro.serving`` graph spec
(``powerlaw:n=20000``, ``road:rows=50,cols=50``, ...) — how the large
non-ER build records are produced, typically with ``--workers 1``.

The pytest entry point runs a 2-worker smoke configuration and asserts
checksum identity only.
"""

import argparse
import os
import tempfile
import time

import pytest

from repro import graphs
from repro.obs.experiment import record_benchmark_run
from repro.routing.compact import build_compact_routing
from repro.serving import parse_graph_spec
from repro.serving.artifacts import artifact_info, save_hierarchy


def make_build_graph(n: int, seed: int = 0):
    """ER graph, average degree ~6, weights 1..64.

    The wide weight range matters: ``imax = ceil(log_{1+eps}(wmax))`` sets
    the rounding-level count, i.e. the number of independent detection
    tasks the pool can spread.  Weights 1..64 at ``epsilon=0.25`` give ~19
    levels per PDE instance — enough slack to keep 4 workers busy.
    """
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 64),
                                    seed=seed)


def run_build_scaling(n: int, worker_counts=(1, 4), seed: int = 0,
                      k: int = 3, epsilon: float = 0.25, mode: str = "auto",
                      engine: str = "batched", graph_spec: str = None) -> dict:
    """Build the same hierarchy once per worker count; record wall clock
    and the saved artifact's payload checksum.

    The ``workers == 1`` entry is the plain sequential path (no pool, no
    spawn cost) — exactly what every build ran before parallel builds
    existed — so the speedups are end-to-end, pool overhead included.
    """
    graph = parse_graph_spec(graph_spec) if graph_spec \
        else make_build_graph(n, seed=seed)
    record = {
        "graph": graph_spec or "er",
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "k": k,
        "epsilon": epsilon,
        "mode": mode,
        "engine": engine,
        "cpu_count": os.cpu_count(),
        "scaling": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-build-bench-") as tmp:
        for workers in worker_counts:
            start = time.perf_counter()
            hierarchy = build_compact_routing(
                graph, k, epsilon=epsilon, seed=seed, mode=mode,
                engine=engine, build_workers=workers)
            build_seconds = time.perf_counter() - start
            path = os.path.join(tmp, f"hierarchy-{workers}.artifact")
            save_hierarchy(hierarchy, path)
            record["scaling"].append({
                "build_workers": workers,
                "build_seconds": round(build_seconds, 4),
                "payload_sha256": artifact_info(path).payload_sha256,
            })
    base = record["scaling"][0]["build_seconds"]
    for entry in record["scaling"]:
        entry["speedup"] = round(base / entry["build_seconds"], 2) \
            if entry["build_seconds"] > 0 else float("inf")
    checksums = {entry["payload_sha256"] for entry in record["scaling"]}
    record["checksum_identical"] = len(checksums) == 1
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="build")
def test_build_scaling_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_build_scaling(120, worker_counts=(1, 2)),
        iterations=1, rounds=1)
    print()
    for entry in record["scaling"]:
        print(f"build_workers={entry['build_workers']}: "
              f"{entry['build_seconds']}s  (speedup {entry['speedup']}x)  "
              f"sha256 {entry['payload_sha256'][:12]}")
    # The hard invariant at any scale: the parallel build writes the same
    # bytes (header aside) as the sequential one.
    assert record["checksum_identical"] is True
    # No wall-clock floor at smoke scale: tiny builds are spawn-dominated
    # and CI runners may have one core; the full run gates --min-speedup.


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1500)
    parser.add_argument("--graph", default=None, metavar="SPEC",
                        help="build this graph spec instead of the ER "
                             "workload (--n is then ignored)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--mode", default="auto")
    parser.add_argument("--engine", default="batched")
    parser.add_argument("--min-speedup", type=float, default=1.8,
                        help="exit non-zero unless the largest worker count "
                             "reaches this wall-clock speedup over 1 worker "
                             "— enforced only when cpu_count covers the "
                             "largest worker count (a pool cannot beat one "
                             "core on a one-core host); the measured ratio "
                             "is recorded either way")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI: n=120, workers 1 2, "
                             "identity gate only (no speedup floor)")
    parser.add_argument("--out", default="BENCH_build_scaling.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_build_scaling/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 120)
        args.workers = [1, 2]
        args.min_speedup = None

    record = run_build_scaling(args.n, worker_counts=tuple(args.workers),
                               seed=args.seed, k=args.k,
                               epsilon=args.epsilon, mode=args.mode,
                               engine=args.engine, graph_spec=args.graph)
    print(f"graph={record['graph']} n={record['n']} m={record['m']} "
          f"k={args.k} mode={args.mode} "
          f"engine={args.engine} cpus={record['cpu_count']}")
    for entry in record["scaling"]:
        print(f"  build_workers={entry['build_workers']}: "
              f"{entry['build_seconds']:>8}s  "
              f"(speedup {entry['speedup']}x)  "
              f"sha256 {entry['payload_sha256'][:12]}")
    print(f"checksum_identical={record['checksum_identical']}")

    largest = max(args.workers)
    gate_enforced = (args.min_speedup is not None and largest > 1
                     and (record["cpu_count"] or 1) >= largest)
    record["speedup_gate_enforced"] = gate_enforced

    payload = {
        "benchmark": "build_scaling",
        "description": "hierarchy construction wall clock vs build_workers: "
                       "the independent per-level PDE detections fan across "
                       "a spawn-based process pool with a deterministic "
                       "merge; the parallel artifact must be "
                       "payload-checksum-identical to the sequential one "
                       "(gated unconditionally), while the speedup gate "
                       "applies only when cpu_count covers the largest "
                       "worker count",
        "workload": "ER avg-degree-6, weights 1..64 (~19 rounding levels "
                    "at epsilon=0.25)",
        "records": [record],
    }
    record_benchmark_run(
        "bench_build_scaling", payload,
        {"n": args.n, "graph": args.graph, "workers": args.workers,
         "seed": args.seed,
         "k": args.k, "epsilon": args.epsilon, "mode": args.mode,
         "engine": args.engine, "min_speedup": args.min_speedup,
         "smoke": args.smoke},
        out_path=args.out, run_dir=args.run_dir)

    failed = False
    if not record["checksum_identical"]:
        print("FAIL: parallel build artifact differs from sequential")
        failed = True
    if gate_enforced:
        achieved = record["scaling"][-1]["speedup"]
        if achieved < args.min_speedup:
            print(f"FAIL: build speedup {achieved}x < "
                  f"required {args.min_speedup}x at "
                  f"{largest} workers ({record['cpu_count']} cpus)")
            failed = True
    elif args.min_speedup is not None and largest > 1:
        print(f"speedup gate skipped: {record['cpu_count']} cpu(s) < "
              f"{largest} workers (ratio recorded, not enforced)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
