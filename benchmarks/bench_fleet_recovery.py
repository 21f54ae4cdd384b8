"""Fleet recovery — SIGKILL a worker mid-stream, answers stay identical.

The fleet supervisor (``ShardedRoutingService(fleet=...)``) turns
worker death from a service outage into a bounded latency blip:

* **liveness** — the front-end's collector sees a killed worker's result
  pipe reach EOF within one ``select`` round (the heartbeat only catches
  hung-but-alive workers), so the blip does not scale with the beat;
* **recovery** — queries the dead worker never answered are re-scattered to
  surviving siblings, and a replacement is respawned and warmed in the
  background, all behind an epoch-versioned routing table;
* **identity** — the contract under test: the answer stream of a run where
  a worker is SIGKILLed mid-stream is list-for-list identical (paths *and*
  weights) to single-process serving of the same stream.

This benchmark replays a **bursty** workload (temporally correlated bursts
over Zipf skew — the traffic shape where a blackout would be most visible)
through a fleet front-end, SIGKILLs one worker when a third of the stream
has been served, and records the per-batch latency series.  The series
shows the recovery spike: a handful of batches pay the detection +
re-scatter cost, then latency returns to baseline while the respawned
worker warms in the background.  ``recovery_spike_batches`` counts batches
slower than ``spike_factor`` x the pre-kill median — the headline number is
that it is small and the post-kill tail median is back near baseline.

Run as a script to produce the JSON artifact consumed by CI (the flat JSON
is derived from a ``repro-experiment``-layout run directory, so every
invocation is also a ``repro-experiment compare`` citizen):

    PYTHONPATH=src python benchmarks/bench_fleet_recovery.py \\
        --n 300 --workers 4 --queries 2400 --out BENCH_fleet_recovery.json

The gate (always on): answers identical to single-process serving AND at
least one death observed AND at least one respawn completed AND
``final_epoch == 1 + worker_deaths + respawns`` (start, deaths and rejoins
are the only things that publish a routing table) — otherwise exit 1.  The
pytest entry point runs a 3-worker smoke configuration with the same
assertions.
"""

import argparse
import os
import signal
import tempfile
import time

import pytest

from repro import graphs
from repro.obs.experiment import record_benchmark_run
from repro.serving import (
    BuildConfig,
    CacheConfig,
    FleetConfig,
    ServingConfig,
    ShardedRoutingService,
    bursty_workload,
    open_service,
)


def make_serving_graph(n: int, seed: int = 0):
    """ER graph with average degree ~6 and small weights (few rounding levels)."""
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 8), seed=seed)


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def _wait_for_respawn(sharded, deadline_seconds: float = 30.0) -> bool:
    """Poll until the supervisor reports a completed respawn (or give up)."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if sharded._fleet.respawns >= 1:
            return True
        time.sleep(0.05)
    return sharded._fleet.respawns >= 1


def run_fleet_recovery(n: int, workers: int = 4, seed: int = 0,
                       k: int = 3, epsilon: float = 0.25,
                       num_queries: int = 2400, batch_size: int = 30,
                       kill_at_fraction: float = 1.0 / 3.0,
                       kill_worker: int = 1,
                       heartbeat_interval: float = 0.1,
                       spike_factor: float = 5.0) -> dict:
    """Kill one of ``workers`` mid-stream; assert identity, time every batch.

    The reference answers come from a single-process :class:`RoutingService`
    over the *same* artifact, so the comparison pins down the whole fleet
    path: partitioning, death detection, retry re-scatter, epoch flips, and
    the respawned worker rejoining — none of it may change an answer.
    """
    graph = make_serving_graph(n, seed=seed)
    workload = bursty_workload(graph.nodes(), num_queries, seed=seed)
    chunks = [workload.pairs[lo:lo + batch_size]
              for lo in range(0, len(workload.pairs), batch_size)]
    kill_batch = max(1, int(len(chunks) * kill_at_fraction))

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        artifact = os.path.join(tmp, "hierarchy.artifact")
        parent = open_service(ServingConfig(
            artifact_path=artifact,
            build=BuildConfig(k=k, epsilon=epsilon, seed=seed),
            cache=CacheConfig(capacity=0)), graph=graph)
        reference = [trace for chunk in chunks
                     for trace in parent.route_batch(chunk)]

        fleet = FleetConfig(heartbeat_interval=heartbeat_interval,
                            respawn_limit=3)
        latencies = []
        answers = []
        with ShardedRoutingService(
                artifact, num_workers=workers, partitioner="hash_source",
                cache_config=CacheConfig(capacity=1024),
                graph=graph, fleet=fleet) as sharded:
            start = time.perf_counter()
            for index, chunk in enumerate(chunks):
                if index == kill_batch:
                    victim = sharded._workers[kill_worker].process
                    os.kill(victim.pid, signal.SIGKILL)
                batch_start = time.perf_counter()
                answers.extend(sharded.route_batch(chunk))
                latencies.append(time.perf_counter() - batch_start)
            total_seconds = time.perf_counter() - start
            respawned = _wait_for_respawn(sharded)
            status = sharded._fleet.status()
            merged = sharded.merged_stats()

    identical = ([(t.path, t.weight) for t in answers]
                 == [(t.path, t.weight) for t in reference])

    pre_kill = latencies[:kill_batch]
    post_kill = latencies[kill_batch:]
    baseline = _median(pre_kill)
    spike_threshold = spike_factor * baseline if baseline > 0 else float("inf")
    recovery_spike_batches = sum(1 for lat in post_kill
                                 if lat > spike_threshold)
    # Steady state after the blip: the last quarter of the stream, long
    # after detection + retry have finished.
    tail = post_kill[3 * len(post_kill) // 4:]

    return {
        "n": n,
        "m": graph.num_edges,
        "workers": workers,
        "num_queries": num_queries,
        "batch_size": batch_size,
        "batches": len(chunks),
        "kill_batch": kill_batch,
        "kill_worker": kill_worker,
        "heartbeat_interval": heartbeat_interval,
        "cpu_count": os.cpu_count(),
        "qps": round(num_queries / total_seconds, 1)
               if total_seconds > 0 else float("inf"),
        "identical_answers": identical,
        "worker_deaths": status["worker_deaths"],
        "respawns": status["respawns"],
        "respawn_completed": respawned,
        "final_epoch": status["epoch"],
        "baseline_batch_ms": round(1000 * baseline, 3),
        "max_post_kill_batch_ms": round(1000 * max(post_kill), 3)
                                  if post_kill else 0.0,
        "tail_batch_ms": round(1000 * _median(tail), 3),
        "spike_factor": spike_factor,
        "recovery_spike_batches": recovery_spike_batches,
        "cover_queries": merged.extra.get("cover_queries", 0),
        "latency_ms_series": [round(1000 * lat, 3) for lat in latencies],
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke scale)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fleet")
def test_fleet_recovery_smoke(benchmark):
    record = benchmark.pedantic(
        lambda: run_fleet_recovery(80, workers=3, num_queries=600,
                                   batch_size=20, heartbeat_interval=0.05),
        iterations=1, rounds=1)
    print()
    print(f"kill@batch {record['kill_batch']}/{record['batches']}: "
          f"deaths={record['worker_deaths']} respawns={record['respawns']} "
          f"epoch={record['final_epoch']} "
          f"baseline {record['baseline_batch_ms']}ms "
          f"worst post-kill {record['max_post_kill_batch_ms']}ms "
          f"tail {record['tail_batch_ms']}ms")
    # The hard invariants: a worker death never changes an answer, is
    # always observed, and the replacement always comes back.
    assert record["identical_answers"] is True
    assert record["worker_deaths"] >= 1
    assert record["respawn_completed"] is True
    assert record["final_epoch"] \
        == 1 + record["worker_deaths"] + record["respawns"]


# ----------------------------------------------------------------------
# CLI entry point (full scale, JSON artifact)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--queries", type=int, default=2400)
    parser.add_argument("--batch-size", type=int, default=30)
    parser.add_argument("--kill-worker", type=int, default=1)
    parser.add_argument("--heartbeat-interval", type=float, default=0.1)
    parser.add_argument("--out", default="BENCH_fleet_recovery.json")
    parser.add_argument("--run-dir", default=None,
                        help="run directory to write (repro-experiment "
                             "layout; default runs/bench_fleet_recovery/"
                             "<utc-timestamp>-<pid>)")
    args = parser.parse_args(argv)

    record = run_fleet_recovery(args.n, workers=args.workers, seed=args.seed,
                                k=args.k, num_queries=args.queries,
                                batch_size=args.batch_size,
                                kill_worker=args.kill_worker,
                                heartbeat_interval=args.heartbeat_interval)
    print(f"n={args.n} workers={args.workers} queries={args.queries} "
          f"batches={record['batches']} cpus={record['cpu_count']}")
    print(f"  kill worker {record['kill_worker']} at batch "
          f"{record['kill_batch']}: deaths={record['worker_deaths']} "
          f"respawns={record['respawns']} epoch={record['final_epoch']}")
    print(f"  identity={record['identical_answers']} "
          f"qps={record['qps']} "
          f"baseline {record['baseline_batch_ms']}ms/batch, "
          f"worst post-kill {record['max_post_kill_batch_ms']}ms, "
          f"tail {record['tail_batch_ms']}ms, "
          f"spike batches (> {record['spike_factor']}x baseline): "
          f"{record['recovery_spike_batches']}")

    payload = {
        "benchmark": "fleet_recovery",
        "description": "SIGKILL one of N fleet workers mid-stream under "
                       "bursty load: the front-end sees the death on the "
                       "worker's result pipe (EOF), re-scatters its pending "
                       "queries to survivors behind the supervisor's "
                       "epoch-versioned routing table, and the supervisor "
                       "respawns a replacement in the background; the "
                       "answer stream is asserted "
                       "list-for-list identical (paths and weights) to "
                       "single-process serving, and the per-batch latency "
                       "series bounds the recovery blip",
        "workload": "ER avg-degree-6, weights 1..8, k=3 hierarchy; bursty "
                    "(Zipf skew + temporal bursts + diurnal drift) stream",
        "records": [record],
    }
    record_benchmark_run(
        "bench_fleet_recovery", payload,
        {"n": args.n, "workers": args.workers, "seed": args.seed,
         "k": args.k, "queries": args.queries,
         "batch_size": args.batch_size, "kill_worker": args.kill_worker,
         "heartbeat_interval": args.heartbeat_interval},
        out_path=args.out, run_dir=args.run_dir)

    failed = False
    if not record["identical_answers"]:
        print("FAIL: fleet answers diverged from single-process serving")
        failed = True
    if record["worker_deaths"] < 1:
        print("FAIL: the killed worker's death was never observed")
        failed = True
    if not record["respawn_completed"]:
        print(f"FAIL: no respawn completed "
              f"(respawns={record['respawns']})")
        failed = True
    if record["final_epoch"] != 1 + record["worker_deaths"] \
            + record["respawns"]:
        print(f"FAIL: epoch {record['final_epoch']} != 1 + deaths "
              f"{record['worker_deaths']} + respawns {record['respawns']}: "
              f"something other than a death or a rejoin published a table")
        failed = True
    if failed:
        return 1
    print("gate ok: identical answers, death observed, respawn completed, "
          "epoch = 1 + deaths + respawns")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
