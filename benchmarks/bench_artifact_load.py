"""Artifact cold-load latency and time-to-first-answer.

Artifacts store the query-hot tables as fixed-width record sections:
loading parses the header, reads the file once, verifies every section,
decodes the pivot and bunch records into the build's dicts and unpickles
the rest (graph, level sets, destination trees, skeleton structures,
metrics), then closes the file.  Every loading process holds the whole
hierarchy for itself; a query reads nothing more from disk.

Per configuration this benchmark starts ``PROBES`` fresh interpreters
(``spawn``: cold Python-level caches, honest RSS deltas, and none of the
parent's heap — a child forked from the process holding the built hierarchy
loaded the n=500 artifact in 46–72 ms against 29–52 ms in a fresh
interpreter) and records the median over them, with their count:

* ``load_seconds``  — artifact open/deserialise time;
* ``ttfa_seconds``  — time to first answer: load plus one cold query batch;
* ``rss_delta_kb``  — resident-set growth of load + first batch
  (``/proc/self/status`` VmRSS delta);
* ``artifact_bytes`` — table bytes the probe's artifact holds;
* ``probes``        — how many probes the medians are over.

Run as a script to produce the JSON artifact consumed by CI:

    PYTHONPATH=src python benchmarks/bench_artifact_load.py \\
        --n 500 --queries 512 --out BENCH_artifact_load.json

Every probe's answers are checked against the in-memory built hierarchy
— the load path must never
change an answer (the script exits non-zero otherwise).  The pytest entry
point runs a smoke configuration and asserts that identity.
"""

import argparse
import multiprocessing
import os
import statistics
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
    save_hierarchy,
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

    Runs in a freshly spawned interpreter so Python-level caches are cold
    and the RSS delta is attributable to this load (the OS page cache stays
    warm across probes, which is the deployment-realistic case: co-located
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


#: Fresh-interpreter probes per configuration; the record keeps the median.
PROBES = 3

#: The probe measurements a record reports as the median over its probes.
MEDIAN_KEYS = ("load_seconds", "ttfa_seconds", "rss_delta_kb")


def _probe(path, pairs, kind="distance", timeout=300.0):
    ctx = multiprocessing.get_context("spawn")
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
                      kind: str = "distance") -> dict:
    """Build once; probe cold load + first answers of the saved artifact."""
    graph = make_serving_graph(n, seed=seed)
    workload = zipf_workload(graph.nodes(), queries, seed=seed)
    pairs = workload.pairs

    build_start = time.perf_counter()
    hierarchy = build_compact_routing(graph, k=k, seed=seed)
    build_seconds = time.perf_counter() - build_start

    # The identity reference: the built hierarchy, never persisted.
    built = RoutingService(hierarchy, cache_config=CacheConfig(capacity=0))
    expected_of = dict(zip(pairs, _comparable(
        kind, answer_batch(built, kind, pairs))))

    with tempfile.TemporaryDirectory(prefix="repro-artifact-bench-") as tmp:
        v2_path = os.path.join(tmp, "hierarchy.v2.artifact")
        save_hierarchy(hierarchy, v2_path)

        probes = [_probe(v2_path, pairs, kind) for _ in range(PROBES)]
        expected = [expected_of[pair] for pair in pairs]
        answers = [probe.pop("answers") for probe in probes]
        identical = all(got == expected for got in answers)

    v2 = dict(probes[0], probes=len(probes))
    for key in MEDIAN_KEYS:
        values = [probe[key] for probe in probes]
        v2[key] = None if None in values else statistics.median(values)

    record = {
        "n": n,
        "m": graph.num_edges,
        "k": k,
        "queries": queries,
        "kind": kind,
        "build_seconds": round(build_seconds, 4),
        "v2": {key: (round(value, 5) if isinstance(value, float) else value)
               for key, value in v2.items()},
        "identical_answers_v2": identical,
    }
    return record


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="artifacts")
def test_artifact_load_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_artifact_load(100, queries=240),
        iterations=1, rounds=1)
    print()
    print(f"v2 load {record['v2']['load_seconds']}s  "
          f"ttfa {record['v2']['ttfa_seconds']}s")
    # The hard invariant: the load path never changes an answer.
    assert record["identical_answers_v2"] is True


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[500])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--kind", default="distance",
                        choices=["distance", "route"])
    parser.add_argument("--out", default="BENCH_artifact_load.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_artifact_load/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    records = []
    for n in args.n:
        record = run_artifact_load(n, seed=args.seed, k=args.k,
                                   queries=args.queries, kind=args.kind)
        records.append(record)
        print(f"n={n} build={record['build_seconds']}s "
              f"v2 bytes={record['v2']['artifact_bytes']}")
        print(f"  cold load : {record['v2']['load_seconds']}s  "
              f"ttfa {record['v2']['ttfa_seconds']}s  "
              f"identical={record['identical_answers_v2']}")

    payload = {
        "benchmark": "artifact_load",
        "description": "Cold artifact load and time-to-first-answer "
                       "(every section decoded at load, file closed); each "
                       f"of {PROBES} probes runs in a freshly spawned "
                       "interpreter and records load/TTFA wall clock and "
                       "VmRSS delta (the record keeps their median and "
                       "count) and the table bytes its artifact holds, and "
                       "its answers are checked against the in-memory "
                       "built hierarchy",
        "workload": "ER avg-degree-6, weights 1..8, k=3 hierarchy; one cold "
                    "Zipf batch answered per probe",
        "records": records,
    }
    record_benchmark_run(
        "bench_artifact_load", payload,
        {"n": args.n, "seed": args.seed, "k": args.k,
         "queries": args.queries, "kind": args.kind},
        out_path=args.out, run_dir=args.run_dir)

    if not all(record["identical_answers_v2"] for record in records):
        print("FAIL: the loaded artifact disagreed with the built "
              "hierarchy on answers")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
