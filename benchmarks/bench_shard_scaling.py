"""Shard scaling — aggregate route-query throughput vs worker-process count.

``ShardedRoutingService`` scales serving along two independent axes:

* **CPU parallelism** — N worker processes route on N cores (no GIL);
* **aggregate cache capacity** — each worker owns an LRU of capacity C that
  only ever sees its partition of the key space, so N workers hold N*C
  results.  A stream whose distinct-pair set thrashes one bounded cache fits
  entirely in the sharded caches.

This benchmark pins down the second axis deliberately, because it holds on
*any* host (including single-core CI runners, where pure CPU scaling is
physically impossible): a cache-hostile **uniform** workload (~no repeats
within a pass, so skew contributes nothing) is replayed against a fixed
per-worker cache capacity chosen *below* the stream's distinct-pair count.
One worker evicts every entry before its reuse comes around (classic LRU
cycle thrash, ~0% steady-state hit rate); at four workers the partitioned
key space fits in the aggregate capacity and the steady state is ~100% hits.
The recorded speedup is real end-to-end wall clock through the multiprocess
scatter/gather path — IPC costs included — and on multi-core hosts the cold
(first-pass) numbers additionally scale with cores.  ``cpu_count`` is
recorded so the two effects can be told apart when comparing records.

Since the PR-8 transport refactor the front-end's scatter/gather is
**pipelined** (``submit_batch`` / ``wait_batch`` with per-worker in-flight
windows), and this benchmark records that axis too: the same warm stream
driven strictly sequentially (submit, wait, submit, ...) vs pipelined
(up to ``window`` batches in flight).  Small batches make the sequential
path round-trip-latency-bound — the submitter sleeps through every IPC
hop while the workers idle — which is precisely what the pipeline hides;
the effect needs no spare cores, so it also holds on 1-CPU runners.

Run as a script to produce the JSON artifact consumed by CI (the flat
JSON is derived from a ``repro-experiment``-layout run directory, so
every invocation is also a ``repro-experiment compare`` citizen):

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \\
        --n 500 --workers 1 2 4 --out BENCH_shard_scaling.json

The pytest entry point runs a 2-worker smoke configuration and asserts the
sharded answers are list-for-list identical to single-process serving.
"""

import argparse
import dataclasses
import os
import tempfile
import time
from collections import deque

import pytest

from repro import graphs
from repro.obs.experiment import record_benchmark_run
from repro.serving import (
    BuildConfig,
    CacheConfig,
    ServingConfig,
    ServingStats,
    ShardedRoutingService,
    open_service,
    uniform_workload,
)


def make_serving_graph(n: int, seed: int = 0):
    """ER graph with average degree ~6 and small weights (few rounding levels)."""
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 8), seed=seed)


def _timed_pass(service, chunks) -> float:
    start = time.perf_counter()
    for chunk in chunks:
        service.route_batch(chunk)
    return time.perf_counter() - start


def _timed_pipelined_pass(service, chunks, window: int) -> float:
    """Replay the stream keeping up to ``window`` batches in flight."""
    start = time.perf_counter()
    tickets = deque()
    for chunk in chunks:
        while len(tickets) >= window:
            service.wait_batch(tickets.popleft())
        tickets.append(service.submit_batch("route", chunk))
    while tickets:
        service.wait_batch(tickets.popleft())
    return time.perf_counter() - start


def run_pipeline_comparison(n: int, workers: int = 4, seed: int = 0,
                            k: int = 3, epsilon: float = 0.25,
                            num_queries: int = 6000, batch_size: int = 20,
                            window: int = 12, passes: int = 3) -> dict:
    """Pipelined vs sequential scatter/gather on one warm sharded front-end.

    Small batches + a warm cache put the sequential path in the regime
    where per-batch IPC round-trip latency dominates; the pipelined driver
    replays the *same* stream with up to ``window`` tickets in flight.
    Each driver runs ``passes`` times and keeps its best pass (steady
    state, minimal scheduler noise).  Answers are asserted identical
    between the two drivers — pipelining reorders work, never answers.
    """
    graph = make_serving_graph(n, seed=seed)
    workload = uniform_workload(graph.nodes(), num_queries, seed=seed)
    chunks = [workload.pairs[lo:lo + batch_size]
              for lo in range(0, len(workload.pairs), batch_size)]

    with tempfile.TemporaryDirectory(prefix="repro-pipe-bench-") as tmp:
        artifact = os.path.join(tmp, "hierarchy.artifact")
        open_service(ServingConfig(
            artifact_path=artifact,
            build=BuildConfig(k=k, epsilon=epsilon, seed=seed),
            cache=CacheConfig(capacity=0)), graph=graph)
        with ShardedRoutingService(
                artifact, num_workers=workers,
                cache_config=CacheConfig(capacity=2 * num_queries),
                pipeline_depth=window,
                graph=graph) as sharded:
            # One unmeasured pass warms every worker cache: both drivers
            # then replay an all-hit stream, so the comparison isolates
            # scatter/gather overhead rather than routing compute.
            _timed_pass(sharded, chunks)
            sequential = [trace for chunk in chunks
                          for trace in sharded.route_batch(chunk)]
            tickets = [sharded.submit_batch("route", chunk)
                       for chunk in chunks[:window]]
            pipelined = []
            for chunk in chunks[window:]:
                pipelined.extend(sharded.wait_batch(tickets.pop(0)))
                tickets.append(sharded.submit_batch("route", chunk))
            for ticket in tickets:
                pipelined.extend(sharded.wait_batch(ticket))
            identical = ([t.path for t in pipelined]
                         == [t.path for t in sequential])
            seq_seconds = min(_timed_pass(sharded, chunks)
                              for _ in range(passes))
            pipe_seconds = min(_timed_pipelined_pass(sharded, chunks, window)
                               for _ in range(passes))
    return {
        "n": n,
        "workers": workers,
        "num_queries": num_queries,
        "batch_size": batch_size,
        "batches": len(chunks),
        "window": window,
        "passes": passes,
        "cpu_count": os.cpu_count(),
        "sequential_qps": round(num_queries / seq_seconds, 1)
                          if seq_seconds > 0 else float("inf"),
        "pipelined_qps": round(num_queries / pipe_seconds, 1)
                         if pipe_seconds > 0 else float("inf"),
        "pipelined_speedup": round(seq_seconds / pipe_seconds, 2)
                             if pipe_seconds > 0 else float("inf"),
        "identical_answers": identical,
    }


def run_shard_scaling(n: int, worker_counts=(1, 2, 4), seed: int = 0,
                      k: int = 3, epsilon: float = 0.25,
                      num_queries: int = 2000, batch_size: int = 500,
                      per_worker_cache: int = 768,
                      check_identity: bool = True) -> dict:
    """Build one artifact, replay the same uniform stream per worker count.

    Each configuration gets one unmeasured warming pass (steady state of a
    long-running service) and one measured pass.  ``per_worker_cache`` stays
    fixed while workers vary — that is the point: capacity below the
    distinct-pair count makes a single worker thrash where the sharded
    aggregate fits.
    """
    graph = make_serving_graph(n, seed=seed)
    workload = uniform_workload(graph.nodes(), num_queries, seed=seed)
    chunks = [workload.pairs[lo:lo + batch_size]
              for lo in range(0, len(workload.pairs), batch_size)]

    with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as tmp:
        artifact = os.path.join(tmp, "hierarchy.artifact")
        base = ServingConfig(
            artifact_path=artifact,
            build=BuildConfig(k=k, epsilon=epsilon, seed=seed),
            cache=CacheConfig(capacity=per_worker_cache),
            batch_size=batch_size)
        start = time.perf_counter()
        parent = open_service(
            dataclasses.replace(base, cache=CacheConfig(capacity=0)),
            graph=graph)
        build_seconds = time.perf_counter() - start
        reference = None
        if check_identity:
            reference = [trace for chunk in chunks
                         for trace in parent.route_batch(chunk)]

        record = {
            "n": n,
            "m": graph.num_edges,
            "k": k,
            "epsilon": epsilon,
            "num_queries": num_queries,
            "distinct_pairs": workload.distinct_pairs(),
            "batch_size": batch_size,
            "per_worker_cache": per_worker_cache,
            "cpu_count": os.cpu_count(),
            "build_seconds": round(build_seconds, 4),
            "scaling": [],
        }
        for workers in worker_counts:
            # workers == 1 must stay on the sharded path (the IPC overhead
            # belongs in the scaling curve), so the loop opens the sharded
            # front-end directly rather than letting open_service pick the
            # local backend for a single worker.
            with ShardedRoutingService(artifact, num_workers=workers,
                                       cache_config=base.cache,
                                       graph=graph) as sharded:
                cold_seconds = _timed_pass(sharded, chunks)   # warming pass
                warm_mark = ServingStats.merge(sharded.worker_stats())
                steady_seconds = _timed_pass(sharded, chunks)
                steady_mark = ServingStats.merge(sharded.worker_stats())
                # Identity replay runs *after* the stats snapshots so it
                # cannot inflate the steady hit rate of this entry.
                if check_identity and workers == max(worker_counts):
                    answers = [trace for chunk in chunks
                               for trace in sharded.route_batch(chunk)]
                    identical = ([t.path for t in answers]
                                 == [t.path for t in reference])
                else:
                    identical = None
            # Hit rate of the measured pass alone, not the cumulative
            # lifetime rate (which would fold in the all-miss warming pass).
            hits = steady_mark.cache_hits - warm_mark.cache_hits
            misses = steady_mark.cache_misses - warm_mark.cache_misses
            entry = {
                "workers": workers,
                "cold_qps": round(num_queries / cold_seconds, 1)
                            if cold_seconds > 0 else float("inf"),
                "steady_qps": round(num_queries / steady_seconds, 1)
                              if steady_seconds > 0 else float("inf"),
                "steady_cache_hit_rate": round(hits / (hits + misses), 4)
                                         if hits + misses else 0.0,
                "aggregate_cache_capacity": workers * per_worker_cache,
            }
            if identical is not None:
                entry["identical_to_single_process"] = identical
            record["scaling"].append(entry)

        base = record["scaling"][0]["steady_qps"]
        for entry in record["scaling"]:
            entry["steady_speedup"] = round(entry["steady_qps"] / base, 2) \
                if base > 0 else float("inf")
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="sharding")
def test_shard_scaling_smoke(benchmark):
    # ~390 distinct pairs: one worker thrashes a 256-entry LRU, two workers'
    # partitions (~195 each) fit, so the aggregate-capacity effect shows.
    record = benchmark.pedantic(
        lambda: run_shard_scaling(80, worker_counts=(1, 2), num_queries=400,
                                  batch_size=100, per_worker_cache=256),
        iterations=1, rounds=1)
    print()
    for entry in record["scaling"]:
        print(f"workers={entry['workers']}: "
              f"cold {entry['cold_qps']:>10} q/s  "
              f"steady {entry['steady_qps']:>10} q/s  "
              f"(hit rate {entry['steady_cache_hit_rate']:.0%}, "
              f"speedup {entry['steady_speedup']}x)")
    # The hard invariant: sharding never changes an answer.
    assert record["scaling"][-1]["identical_to_single_process"] is True
    # Aggregate capacity grows with workers, so steady hit rate must too.
    hit_rates = [e["steady_cache_hit_rate"] for e in record["scaling"]]
    assert hit_rates[-1] > hit_rates[0]


@pytest.mark.benchmark(group="sharding")
def test_pipelined_scatter_gather_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_pipeline_comparison(80, workers=2, num_queries=800,
                                        batch_size=20, window=8, passes=2),
        iterations=1, rounds=1)
    print()
    print(f"sequential {record['sequential_qps']:>10} q/s  "
          f"pipelined {record['pipelined_qps']:>10} q/s  "
          f"({record['pipelined_speedup']}x, window {record['window']})")
    # Pipelining reorders work, never answers.
    assert record["identical_answers"] is True
    # No throughput floor at smoke scale (CI runners are noisy); the full
    # run gates on --min-pipeline-speedup instead.
    assert record["pipelined_qps"] > 0


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument("--cache", type=int, default=768,
                        help="per-worker LRU capacity (kept fixed across "
                             "worker counts)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero unless the largest worker count "
                             "reaches this steady-state speedup over 1 worker")
    parser.add_argument("--pipeline-workers", type=int, nargs="+",
                        default=[4],
                        help="worker count(s) for the pipelined-vs-"
                             "sequential comparison, one record each "
                             "(0 skips it)")
    parser.add_argument("--pipeline-queries", type=int, default=6000)
    parser.add_argument("--pipeline-batch-size", type=int, default=20,
                        help="small on purpose: the sequential driver must "
                             "be round-trip-latency-bound for the pipeline "
                             "to have anything to hide")
    parser.add_argument("--pipeline-window", type=int, default=12)
    parser.add_argument("--min-pipeline-speedup", type=float, default=None,
                        help="exit non-zero unless pipelined scatter/gather "
                             "beats sequential by this factor")
    parser.add_argument("--out", default="BENCH_shard_scaling.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_shard_scaling/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    record = run_shard_scaling(args.n, worker_counts=tuple(args.workers),
                               seed=args.seed, k=args.k,
                               num_queries=args.queries,
                               batch_size=args.batch_size,
                               per_worker_cache=args.cache)
    print(f"n={args.n} build={record['build_seconds']}s "
          f"distinct={record['distinct_pairs']} "
          f"per-worker-cache={record['per_worker_cache']} "
          f"cpus={record['cpu_count']}")
    for entry in record["scaling"]:
        print(f"  workers={entry['workers']}: "
              f"cold {entry['cold_qps']:>10} q/s  "
              f"steady {entry['steady_qps']:>10} q/s  "
              f"(hit rate {entry['steady_cache_hit_rate']:.0%}, "
              f"speedup {entry['steady_speedup']}x)")

    pipeline_records = []
    for pipeline_workers in args.pipeline_workers:
        if pipeline_workers <= 0:
            continue
        pipeline_record = run_pipeline_comparison(
            args.n, workers=pipeline_workers, seed=args.seed, k=args.k,
            num_queries=args.pipeline_queries,
            batch_size=args.pipeline_batch_size,
            window=args.pipeline_window)
        pipeline_records.append(pipeline_record)
        print(f"pipeline ({pipeline_record['workers']} workers, "
              f"batch {pipeline_record['batch_size']}, "
              f"window {pipeline_record['window']}): "
              f"sequential {pipeline_record['sequential_qps']:>10} q/s  "
              f"pipelined {pipeline_record['pipelined_qps']:>10} q/s  "
              f"speedup {pipeline_record['pipelined_speedup']}x  "
              f"identical={pipeline_record['identical_answers']}")

    payload = {
        "benchmark": "shard_scaling",
        "description": "ShardedRoutingService aggregate route-query "
                       "throughput vs worker-process count on a "
                       "cache-hostile uniform workload with fixed "
                       "per-worker LRU capacity; the steady-state speedup "
                       "comes from aggregate cache capacity (N workers hold "
                       "N*C results), plus CPU parallelism on multi-core "
                       "hosts (see cpu_count)",
        "workload": "ER avg-degree-6, weights 1..8, k=3 hierarchy; uniform "
                    "query stream replayed after one warming pass",
        "records": [record],
    }
    if pipeline_records:
        payload["pipeline"] = {
            "description": "pipelined vs sequential scatter/gather on one "
                           "warm sharded front-end: the same small-batch "
                           "stream driven submit/wait strictly in turn vs "
                           "with a bounded in-flight window; the speedup "
                           "is hidden IPC round-trip latency, so it holds "
                           "on single-core hosts (answers asserted "
                           "identical between drivers)",
            "records": pipeline_records,
        }
    record_benchmark_run(
        "bench_shard_scaling", payload,
        {"n": args.n, "workers": args.workers, "seed": args.seed,
         "k": args.k, "queries": args.queries,
         "batch_size": args.batch_size, "cache": args.cache,
         "pipeline_workers": args.pipeline_workers,
         "pipeline_queries": args.pipeline_queries,
         "pipeline_batch_size": args.pipeline_batch_size,
         "pipeline_window": args.pipeline_window},
        out_path=args.out, run_dir=args.run_dir)

    failed = False
    if args.min_speedup is not None:
        achieved = record["scaling"][-1]["steady_speedup"]
        if achieved < args.min_speedup:
            print(f"FAIL: steady speedup {achieved}x < "
                  f"required {args.min_speedup}x")
            failed = True
    if args.min_pipeline_speedup is not None:
        for pipeline_record in pipeline_records:
            achieved = pipeline_record["pipelined_speedup"]
            if not pipeline_record["identical_answers"]:
                print("FAIL: pipelined answers differ from sequential")
                failed = True
            if achieved < args.min_pipeline_speedup:
                print(f"FAIL: pipelined speedup {achieved}x at "
                      f"{pipeline_record['workers']} workers < "
                      f"required {args.min_pipeline_speedup}x")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
