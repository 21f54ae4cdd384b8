"""Artifact cold-load latency and time-to-first-answer: full vs sub-artifacts.

Artifacts store the query-hot tables as mmap-able fixed-width record
sections: loading parses the header, maps the file, and unpickles only the small eager sections
(graph, level sets, metrics); the pivot and bunch records page in as
queries touch them, shared across processes through the OS page cache.
Sub-artifacts go further for sharded serving: each worker maps a per-shard
slice holding only its own sources' bunch rows and reachable trees.

Per configuration this benchmark forks a fresh probe process per variant
(cold Python-level caches, honest RSS deltas) and records:

* ``load_seconds``  — artifact open/deserialise time;
* ``ttfa_seconds``  — time to first answer: load plus one cold query batch;
* ``rss_delta_kb``  — resident-set growth of load + first batch
  (``/proc/self/status`` VmRSS delta);
* ``artifact_bytes`` — table bytes the probe's artifact holds (for
  sub-artifacts, the per-worker slice).

Run as a script to produce the JSON artifact consumed by CI:

    PYTHONPATH=src python benchmarks/bench_artifact_load.py \\
        --n 500 --queries 512 --workers 4 --out BENCH_artifact_load.json

Every probe's answers are checked against the in-memory built hierarchy
served through the per-pair ``dict`` kernel — the load path must never
change an answer.  The pytest entry point runs a smoke configuration and
asserts that identity and the acceptance direction (sub-artifacts smaller
per worker).
"""

import argparse
import multiprocessing
import os
import tempfile
import time

import pytest

from repro import graphs
from repro.obs.experiment import record_benchmark_run
from repro.routing import build_compact_routing
from repro.serving import (
    CacheConfig,
    RoutingService,
    answer_batch,
    artifact_info,
    save_hierarchy,
    stable_node_hash,
    write_shard_artifacts,
    zipf_workload,
)


def make_serving_graph(n: int, seed: int = 0):
    """ER graph with average degree ~6 and small weights (few rounding levels)."""
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 8), seed=seed)


def _read_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _comparable(kind, answers):
    if kind == "route":
        return [(trace.path, trace.weight) for trace in answers]
    return answers


def _probe_worker(path, pairs, kind, queue) -> None:
    """Load ``path`` and answer one cold batch, reporting timings and RSS.

    Runs in a freshly forked process so Python-level caches are cold and the
    RSS delta is attributable to this load (the OS page cache stays warm
    across probes, which is the deployment-realistic case: co-located
    workers share the page-ins).
    """
    rss_before = _read_rss_kb()
    start = time.perf_counter()
    service = RoutingService.load(path, cache_config=CacheConfig(capacity=0))
    load_seconds = time.perf_counter() - start
    answers = answer_batch(service, kind, pairs)
    ttfa_seconds = time.perf_counter() - start
    rss_after = _read_rss_kb()
    answers = _comparable(kind, answers)
    queue.put({
        "load_seconds": load_seconds,
        "ttfa_seconds": ttfa_seconds,
        "rss_delta_kb": (rss_after - rss_before
                         if rss_before is not None and rss_after is not None
                         else None),
        "artifact_bytes": service.stats.artifact_bytes,
        "artifact_format": service.stats.extra.get("artifact_format"),
        "answers": answers,
    })


def _probe(path, pairs, kind="distance", timeout=300.0):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    process = ctx.Process(target=_probe_worker,
                          args=(path, list(pairs), kind, queue))
    process.start()
    try:
        # Bounded wait: a probe child that dies before reporting (load
        # error, OOM kill) must fail the benchmark, not hang it — CI runs
        # this job.
        result = queue.get(timeout=timeout)
    except Exception:
        process.join(timeout=5.0)
        raise RuntimeError(
            f"probe of {path!r} produced no result within {timeout}s "
            f"(exitcode {process.exitcode}); see the child's traceback "
            f"above") from None
    process.join()
    return result


def run_artifact_load(n: int, seed: int = 0, k: int = 3, queries: int = 512,
                      workers: int = 4, kind: str = "distance") -> dict:
    """Build once; probe cold load + first answers for every load path."""
    graph = make_serving_graph(n, seed=seed)
    workload = zipf_workload(graph.nodes(), queries, seed=seed)
    pairs = workload.pairs

    build_start = time.perf_counter()
    hierarchy = build_compact_routing(graph, k=k, seed=seed)
    build_seconds = time.perf_counter() - build_start

    # The identity reference: the built hierarchy, never persisted, served
    # through the per-pair dict kernel.
    built = RoutingService(hierarchy, cache_config=CacheConfig(capacity=0),
                           kernel="dict")
    expected_of = dict(zip(pairs, _comparable(
        kind, answer_batch(built, kind, pairs))))

    with tempfile.TemporaryDirectory(prefix="repro-artifact-bench-") as tmp:
        v2_path = os.path.join(tmp, "hierarchy.v2.artifact")
        save_hierarchy(hierarchy, v2_path)

        v2 = _probe(v2_path, pairs, kind)
        expected = [expected_of[pair] for pair in pairs]
        identical = v2.pop("answers") == expected

        sub_paths = write_shard_artifacts(v2_path, workers)
        per_worker = []
        sub_identical = True
        for shard, sub_path in enumerate(sub_paths):
            owned = [pair for pair in pairs
                     if stable_node_hash(pair[0]) % workers == shard]
            probe = _probe(sub_path, owned, kind)
            sub_identical = sub_identical and probe.pop("answers") == [
                expected_of[pair] for pair in owned]
            probe["shard"] = shard
            probe["owned_queries"] = len(owned)
            per_worker.append(probe)

        full_bytes = artifact_info(v2_path).payload_bytes
        mean_sub_bytes = (sum(p["artifact_bytes"] for p in per_worker)
                          / max(1, len(per_worker)))

    record = {
        "n": n,
        "m": graph.num_edges,
        "k": k,
        "queries": queries,
        "kind": kind,
        "workers": workers,
        "build_seconds": round(build_seconds, 4),
        "v2": {key: (round(value, 5) if isinstance(value, float) else value)
               for key, value in v2.items()},
        "identical_answers_v2": identical,
        "sub_artifacts": {
            "per_worker": [
                {key: (round(value, 5) if isinstance(value, float) else value)
                 for key, value in probe.items()}
                for probe in per_worker],
            "full_artifact_bytes": full_bytes,
            "mean_worker_bytes": round(mean_sub_bytes, 1),
            "bytes_reduction_vs_full": round(full_bytes / mean_sub_bytes, 2)
                if mean_sub_bytes else float("inf"),
            "identical_answers": sub_identical,
        },
    }
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="artifacts")
def test_artifact_load_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_artifact_load(100, queries=240, workers=2),
        iterations=1, rounds=1)
    print()
    print(f"v2 load {record['v2']['load_seconds']}s  "
          f"ttfa {record['v2']['ttfa_seconds']}s")
    print(f"sub-artifact bytes reduction "
          f"{record['sub_artifacts']['bytes_reduction_vs_full']}x")
    # The hard invariant: the load path never changes an answer.
    assert record["identical_answers_v2"] is True
    assert record["sub_artifacts"]["identical_answers"] is True
    # Directional acceptance at smoke scale (the full-scale threshold,
    # >= 2x bytes, is asserted by the CI run's JSON).
    assert record["sub_artifacts"]["bytes_reduction_vs_full"] > 1.5


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[500])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--kind", default="distance",
                        choices=["distance", "route"])
    parser.add_argument("--min-bytes-reduction", type=float, default=None,
                        help="exit non-zero unless sub-artifacts shrink mean "
                             "per-worker table bytes by this factor")
    parser.add_argument("--out", default="BENCH_artifact_load.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_artifact_load/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    records = []
    for n in args.n:
        record = run_artifact_load(n, seed=args.seed, k=args.k,
                                   queries=args.queries,
                                   workers=args.workers, kind=args.kind)
        records.append(record)
        print(f"n={n} build={record['build_seconds']}s "
              f"v2 bytes={record['v2']['artifact_bytes']}")
        print(f"  cold load : {record['v2']['load_seconds']}s  "
              f"ttfa {record['v2']['ttfa_seconds']}s  "
              f"identical={record['identical_answers_v2']}")
        sub = record["sub_artifacts"]
        print(f"  sub-artifacts ({record['workers']} workers): mean "
              f"{sub['mean_worker_bytes']} bytes/worker vs "
              f"{sub['full_artifact_bytes']} full "
              f"({sub['bytes_reduction_vs_full']}x smaller), "
              f"identical={sub['identical_answers']}")

    payload = {
        "benchmark": "artifact_load",
        "description": "Cold artifact load and time-to-first-answer for "
                       "the full artifact (mmap + lazy sections) vs its "
                       "per-shard sub-artifacts; each probe runs in a fresh "
                       "forked process and records load/TTFA wall clock, "
                       "VmRSS delta and the table bytes its artifact holds, "
                       "and its answers are checked against the in-memory "
                       "built hierarchy (dict kernel)",
        "workload": "ER avg-degree-6, weights 1..8, k=3 hierarchy; one cold "
                    "Zipf batch answered per probe",
        "records": records,
    }
    record_benchmark_run(
        "bench_artifact_load", payload,
        {"n": args.n, "seed": args.seed, "k": args.k,
         "queries": args.queries, "workers": args.workers,
         "kind": args.kind},
        out_path=args.out, run_dir=args.run_dir)

    final = records[-1]
    if args.min_bytes_reduction is not None \
            and final["sub_artifacts"]["bytes_reduction_vs_full"] \
            < args.min_bytes_reduction:
        print(f"FAIL: bytes reduction "
              f"{final['sub_artifacts']['bytes_reduction_vs_full']}x < "
              f"required {args.min_bytes_reduction}x")
        return 1
    if not (final["identical_answers_v2"]
            and final["sub_artifacts"]["identical_answers"]):
        print("FAIL: load paths disagreed on answers")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
