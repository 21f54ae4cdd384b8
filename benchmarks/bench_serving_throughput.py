"""Serving throughput — cold vs warm cache, single vs batched, per workload.

The serving subsystem's claim is operational rather than asymptotic: once a
compact-routing hierarchy is built (Corollary 4.14's expensive phase), a
:class:`RoutingService` should sustain far higher query throughput on
realistic (skewed) traffic than naive one-at-a-time querying, because

* a batch answers each distinct pair once, however often it repeats, and
* the LRU result cache absorbs the repeats that Zipf streams are full of.

For each workload shape (uniform / zipf) this benchmark measures
route-query throughput in three configurations over the same query stream:

* ``cold_single``  — result cache disabled, one query at a time on a
  freshly opened backend (the naive baseline);
* ``cold_batch``   — result cache disabled, batched API (isolates the
  batching win);
* ``warm_batch``   — result cache enabled and pre-warmed with one pass
  (the steady state of a long-running service).

All three configurations are opened through the serving API v2 — a
``ServingConfig`` per configuration, ``open_service`` per backend — over one
shared artifact, so the benchmark exercises exactly the surface production
callers use.

Run as a script to produce a run directory in the ``repro-experiment``
layout (``config.json`` / ``metrics.json`` / ``environment.json``, so
``repro-experiment compare`` can gate one benchmark run against another)
plus the flat ``BENCH_serving_throughput.json`` CI artifact derived from
the run directory's ``metrics.json``:

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \\
        --sizes 120 500 --out BENCH_serving_throughput.json

The pytest entry point runs a small smoke configuration and asserts the
headline claim (warm batched >= 2x cold single on the Zipf workload).
"""

import argparse
import dataclasses
import json
import os
import tempfile
import time

import pytest

from repro import graphs
from repro.obs.experiment import load_run, write_run_directory
from repro.serving import (
    BuildConfig,
    CacheConfig,
    ServingConfig,
    make_workload,
    open_service,
)

WORKLOAD_SHAPES = ("uniform", "zipf")


def make_serving_graph(n: int, seed: int = 0):
    """ER graph with average degree ~6 and small weights (few rounding levels)."""
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 8), seed=seed)


def _timed_single(service, pairs) -> float:
    start = time.perf_counter()
    for s, t in pairs:
        service.route(s, t)
    return time.perf_counter() - start


def _timed_batched(service, pairs, batch_size: int) -> float:
    start = time.perf_counter()
    for lo in range(0, len(pairs), batch_size):
        service.route_batch(pairs[lo:lo + batch_size])
    return time.perf_counter() - start


def run_serving_benchmark(n: int, seed: int = 0, k: int = 3,
                          epsilon: float = 0.25, num_queries: int = 2000,
                          batch_size: int = 64, cache_size: int = 65536) -> dict:
    """Build one artifact, measure all shapes/configurations against it.

    Each configuration opens its own backend from the shared artifact, so
    every run starts with cold runtime caches by construction (a fresh load
    holds no query-time state).
    """
    graph = make_serving_graph(n, seed=seed)
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        artifact = os.path.join(tmp, "hierarchy.artifact")
        base = ServingConfig(
            artifact_path=artifact,
            build=BuildConfig(k=k, epsilon=epsilon, seed=seed),
            cache=CacheConfig(capacity=0),
            batch_size=batch_size)
        builder = open_service(base, graph=graph)
        build_seconds = builder.query_stats().build_seconds

        record = {
            "n": n,
            "m": graph.num_edges,
            "k": k,
            "epsilon": epsilon,
            "mode": builder.hierarchy.mode,
            "num_queries": num_queries,
            "batch_size": batch_size,
            "build_seconds": round(build_seconds, 4),
            "workloads": {},
        }
        builder.close()

        for shape in WORKLOAD_SHAPES:
            workload = make_workload(shape, graph, num_queries, seed=seed)
            pairs = workload.pairs

            # Cold single-query baseline: no result cache, fresh backend.
            with open_service(base) as cold:
                cold_single_seconds = _timed_single(cold, pairs)

            # Cold batched: still no result cache; batching/dedup only.
            with open_service(base) as cold_batched:
                cold_batch_seconds = _timed_batched(cold_batched, pairs,
                                                    batch_size)

            # Warm batched: result cache enabled, pre-warmed with one pass.
            warm_config = dataclasses.replace(
                base, cache=CacheConfig(capacity=cache_size))
            with open_service(warm_config) as warm:
                _timed_batched(warm, pairs, batch_size)  # warming (unmeasured)
                warm_batch_seconds = _timed_batched(warm, pairs, batch_size)

            qps = lambda seconds: (num_queries / seconds if seconds > 0
                                   else float("inf"))
            shape_record = {
                **workload.skew_summary(),
                "cold_single_qps": round(qps(cold_single_seconds), 1),
                "cold_batch_qps": round(qps(cold_batch_seconds), 1),
                "warm_batch_qps": round(qps(warm_batch_seconds), 1),
                "batch_speedup": round(cold_single_seconds /
                                       max(cold_batch_seconds, 1e-9), 2),
                "warm_speedup": round(cold_single_seconds /
                                      max(warm_batch_seconds, 1e-9), 2),
                "cache_hit_rate": round(warm.query_stats().cache_hit_rate, 4),
            }
            record["workloads"][shape] = shape_record
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="serving")
def test_serving_throughput_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_serving_benchmark(150, num_queries=800),
        iterations=1, rounds=1)
    print()
    for shape, stats in record["workloads"].items():
        print(f"{shape:>9}: cold-single {stats['cold_single_qps']:>9} q/s  "
              f"cold-batch {stats['cold_batch_qps']:>9} q/s  "
              f"warm-batch {stats['warm_batch_qps']:>9} q/s  "
              f"(warm speedup {stats['warm_speedup']}x, "
              f"hit rate {stats['cache_hit_rate']:.0%})")
    zipf = record["workloads"]["zipf"]
    # The headline serving claim, at a conservative smoke-scale margin.
    assert zipf["warm_speedup"] >= 2.0
    # Batching alone must never be slower than single queries by more than
    # measurement noise (it dedups within the batch).
    assert zipf["batch_speedup"] >= 0.8


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[120, 500])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default="BENCH_serving_throughput.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_serving_throughput/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    records = []
    for n in args.sizes:
        record = run_serving_benchmark(n, seed=args.seed, k=args.k,
                                       num_queries=args.queries,
                                       batch_size=args.batch_size)
        records.append(record)
        print(f"n={n:>5} build={record['build_seconds']}s")
        for shape, stats in record["workloads"].items():
            print(f"  {shape:>9}: cold-single {stats['cold_single_qps']:>10} q/s  "
                  f"cold-batch {stats['cold_batch_qps']:>10} q/s  "
                  f"warm-batch {stats['warm_batch_qps']:>10} q/s  "
                  f"warm-speedup {stats['warm_speedup']}x")

    payload = {
        "benchmark": "serving_throughput",
        "description": "RoutingService route-query throughput: cold vs warm "
                       "cache, single vs batched, per workload shape",
        "workload": "ER avg-degree-6, weights 1..8, k=3 hierarchy; "
                    "uniform/zipf query streams",
        "records": records,
    }
    run_dir = args.run_dir
    if run_dir is None:
        run_id = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) \
            + f"-{os.getpid()}"
        run_dir = os.path.join("runs", "bench_serving_throughput", run_id)
    write_run_directory(run_dir, payload, {
        "name": "bench_serving_throughput",
        "sizes": args.sizes,
        "seed": args.seed,
        "k": args.k,
        "queries": args.queries,
        "batch_size": args.batch_size,
    })
    print(f"wrote run directory {run_dir}")

    # The flat CI artifact is *derived* from the run directory — one
    # source of truth, two consumers.
    with open(args.out, "w") as fh:
        json.dump(load_run(run_dir)["metrics"], fh, indent=2)
    print(f"wrote {args.out}")

    # Exit non-zero if the headline claims fail at the largest size.
    largest = max(records, key=lambda r: r["n"])
    return 0 if largest["workloads"]["zipf"]["warm_speedup"] >= 2.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
