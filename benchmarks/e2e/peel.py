"""Query-side attribution from outside: peel the serving stack.

The same batch stream is replayed through each depth's public entry point —
loaded hierarchy, in-process service, in-process sharded front-end, remote
session — one outstanding batch at a time.  A depth's microseconds per pair
minus the depth below it is that layer's self time; the kernel's share is
its cold cost times the miss rate the service actually saw.  Counts come
from the public ``query_stats()``.  Layers that are not on a workload's
path are never called and report zero.  Per-pair times are at the reference
host speed (``hostclock``); the one-shot ``*.start_s`` / ``*.connect_s``
are wall seconds.
"""

from __future__ import annotations

import io
import statistics
import time
from typing import Callable, Dict, List

import repro.serving as serving
from repro.routing.tables import NodeInternTable
from repro.serving import wire

import measure
from workloads import DirectHierarchy, Serving

#: Measured passes per depth (after one warm pass); the median is reported.
PASSES = 3

QUERY_METRICS = (
    "routing.tz_hierarchy.route_us_per_pair",
    "routing.tz_hierarchy.distance_us_per_pair",
    "routing.tz_hierarchy.route_share",
    "routing.tables.intern_us_per_pair",
    "routing.tables.bunch_rows_decoded_per_pair",
    "routing.tables.groups_per_batch",
    "serving.service.route_us_per_pair",
    "serving.service.distance_us_per_pair",
    "serving.service.self_us_per_pair",
    "serving.cache.hit_rate",
    "serving.cache.evictions",
    "serving.sharded.route_us_per_pair",
    "serving.sharded.self_us_per_pair",
    "serving.sharded.worker_imbalance",
    "serving.sharded.start_s",
    "serving.sharded.calls",
    "serving.wire.encode_us_per_pair",
    "serving.wire.decode_us_per_pair",
    "serving.wire.query_bytes_per_pair",
    "serving.wire.answer_bytes_per_pair",
    "serving.wire.calls",
    "serving.session.roundtrip_self_us_per_pair",
    "serving.session.client_cpu_us_per_pair",
    "serving.session.calls",
    "serving.server.connect_s",
    "serving.server.calls",
)


class _Peeler:
    def __init__(self, run) -> None:
        self.run = run
        self.batches = run.batches
        self.pairs = len(run.stream)
        self.clock = run.clock

    def us_per_pair(self, call: Callable[[List], List], kind: str) -> float:
        """Median microseconds per pair over ``PASSES`` closed-loop passes
        (one warm pass first); every answer is verified."""
        samples = []
        for index in range(PASSES + 1):
            start = time.perf_counter()
            seconds, _, answers = measure.closed_loop_pass(
                call, self.batches, self.clock)
            seconds *= self.clock.speed(start, time.perf_counter())
            self.run.verify(kind, answers)
            if index:
                samples.append(seconds * 1e6 / self.pairs)
        return statistics.median(samples)

    def both(self, backend) -> Dict[str, float]:
        return {"route": self.us_per_pair(backend.route_batch, "route"),
                "distance": self.us_per_pair(backend.distance_batch,
                                             "distance")}


def _cache_counts(stats) -> Dict[str, float]:
    kernel = stats.extra.get("kernel_stats") or {}
    return {"hits": stats.cache_hits, "misses": stats.cache_misses,
            "kernel_batches": kernel.get("batches", 0),
            "groups": kernel.get("groups", 0),
            "rows": kernel.get("bunch_rows_decoded", 0)}


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def _wire_costs(peeler: _Peeler) -> Dict[str, float]:
    """Codec cost and frame sizes of the real route messages of one pass."""
    encode = decode = 0.0
    query_bytes = answer_bytes = 0
    began = time.perf_counter()
    for index, batch in enumerate(peeler.batches):
        answers = peeler.run.expected["route"][index]
        start = time.perf_counter()
        query = wire.encode_frame({"type": "query", "id": index,
                                   "kind": "route",
                                   "pairs": wire.pack_pairs(batch)})
        reply = wire.encode_frame({
            "type": "answers", "id": index, "kind": "route",
            "values": wire.encode_answers("route", answers)})
        encode += time.perf_counter() - start
        start = time.perf_counter()
        wire.unpack_pairs(wire.read_frame(io.BytesIO(query))["pairs"])
        decoded = wire.decode_answers(
            "route", wire.read_frame(io.BytesIO(reply))["values"])
        ended = time.perf_counter()
        decode += ended - start
        peeler.clock.tick(ended)
        peeler.run.attempted += len(batch)
        peeler.run.failed += decoded != answers
        query_bytes += len(query)
        answer_bytes += len(reply)
    pairs = peeler.pairs
    speed = peeler.clock.speed(began, time.perf_counter())
    return {"serving.wire.encode_us_per_pair": encode * speed * 1e6 / pairs,
            "serving.wire.decode_us_per_pair": decode * speed * 1e6 / pairs,
            "serving.wire.query_bytes_per_pair": query_bytes / pairs,
            "serving.wire.answer_bytes_per_pair": answer_bytes / pairs}


def peel(run, product) -> Dict[str, float]:
    """Every query-side per-layer metric for one workload."""
    with run.clock.timer_paused():      # the passes tick it between batches
        return _peel(run, product)


def _peel(run, product) -> Dict[str, float]:
    spec = run.spec
    metrics: Dict[str, float] = {name: 0.0 for name in QUERY_METRICS}
    metrics["trace.attributed_share"] = 0.0
    if spec.product != "hierarchy":
        return metrics      # APSP tables: no serving layer is on the path
    peeler = _Peeler(run)
    pairs, batches = peeler.pairs, len(peeler.batches)

    # depth 0: the loaded hierarchy and its resolved kernel, no result cache
    loaded, _ = serving.load_hierarchy(product.path)
    direct = DirectHierarchy(loaded)
    kernel = peeler.both(direct)
    metrics["routing.tz_hierarchy.route_us_per_pair"] = kernel["route"]
    metrics["routing.tz_hierarchy.distance_us_per_pair"] = kernel["distance"]
    columnar = loaded.query_kernel(direct.kernel)
    if columnar is not None:
        # Both kinds, every pass: nothing is cached at this depth.
        metrics["routing.tables.bunch_rows_decoded_per_pair"] = \
            columnar.stats["bunch_rows_decoded"] / columnar.stats["pairs"]
        metrics["routing.tables.groups_per_batch"] = \
            columnar.stats["groups"] / columnar.stats["batches"]
    reader = serving.ArtifactV2Reader(product.path)
    try:
        intern = NodeInternTable.decode(reader.section_bytes("nodes"))
        start, seconds = time.perf_counter(), 0.0
        for batch in peeler.batches:
            began = time.perf_counter()
            intern.indices_of(s for s, _ in batch)
            intern.indices_of(t for _, t in batch)
            ended = time.perf_counter()
            seconds += ended - began
            run.clock.tick(ended)
        metrics["routing.tables.intern_us_per_pair"] = \
            seconds * run.clock.speed(start, ended) * 1e6 / pairs
    finally:
        reader.close()
    parts = [kernel["route"]]
    total = kernel["route"]

    if spec.serve in ("local", "remote"):
        # depth 1: the in-process service with the workload's result cache
        service = serving.open_service(serving.ServingConfig(
            artifact_path=product.path, workers=1, kernel="auto",
            cache=serving.CacheConfig(capacity=spec.cache)))
        with service:
            peeler.both(service)          # fill the cache as the real run does
            before = _cache_counts(service.query_stats())
            served = {"route": peeler.us_per_pair(service.route_batch,
                                                  "route")}
            seen = _delta(_cache_counts(service.query_stats()), before)
            served["distance"] = peeler.us_per_pair(service.distance_batch,
                                                    "distance")
            evictions = (service.route_cache.evictions
                         + service.distance_cache.evictions)
        probes = seen["hits"] + seen["misses"]
        miss_rate = seen["misses"] / probes if probes else 0.0
        kernel_share = kernel["route"] * miss_rate
        metrics.update({
            "serving.service.route_us_per_pair": served["route"],
            "serving.service.distance_us_per_pair": served["distance"],
            "serving.service.self_us_per_pair":
                served["route"] - kernel_share,
            "serving.cache.hit_rate": 1.0 - miss_rate if probes else 0.0,
            "serving.cache.evictions": evictions,
            "routing.tables.bunch_rows_decoded_per_pair":
                seen["rows"] / ((PASSES + 1) * pairs),
            "routing.tables.groups_per_batch":
                (seen["groups"] / seen["kernel_batches"]
                 if seen["kernel_batches"] else 0.0),
        })
        parts = [kernel_share, served["route"] - kernel_share]
        total = served["route"]

    if spec.serve == "remote":
        # depth 2: the sharded front-end, in-process
        sharded = serving.open_service(serving.ServingConfig(
            artifact_path=product.path, workers=2, kernel="auto",
            cache=serving.CacheConfig(capacity=spec.cache)))
        try:
            start = time.perf_counter()
            sharded.start()
            metrics["serving.sharded.start_s"] = time.perf_counter() - start
            scattered = peeler.us_per_pair(sharded.route_batch, "route")
            loads = [stats.queries for stats in sharded.worker_stats()]
        finally:
            sharded.close()
        mean_load = sum(loads) / len(loads)
        metrics.update({
            "serving.sharded.route_us_per_pair": scattered,
            "serving.sharded.self_us_per_pair": scattered - total,
            "serving.sharded.worker_imbalance":
                max(loads) / mean_load - 1.0 if mean_load else 0.0,
            "serving.sharded.calls": PASSES * batches,
        })

        # depth 3: the real server over loopback
        remote = Serving(spec, product, run.src)
        try:
            session = remote.backend
            peeler.both(session)           # warm the workers' caches
            before = session.query_stats()
            round_trip = peeler.us_per_pair(session.route_batch, "route")
            after = session.query_stats()
            start, cpu = time.perf_counter(), time.process_time()
            measure.closed_loop_pass(session.route_batch, peeler.batches,
                                     run.clock)
            cpu = (time.process_time() - cpu
                   - run.clock.probing(start, time.perf_counter()))
        finally:
            remote.close()
        probes = (after.cache_hits + after.cache_misses
                  - before.cache_hits - before.cache_misses)
        codec = _wire_costs(peeler)
        wire_us = (codec["serving.wire.encode_us_per_pair"]
                   + codec["serving.wire.decode_us_per_pair"])
        metrics.update(codec)
        metrics.update({
            "serving.cache.hit_rate":
                ((after.cache_hits - before.cache_hits) / probes
                 if probes else 0.0),
            "serving.wire.calls": 2 * PASSES * batches,
            "serving.session.roundtrip_self_us_per_pair":
                round_trip - scattered - wire_us,
            "serving.session.client_cpu_us_per_pair":
                cpu * 1e6 / pairs,
            "serving.session.calls": PASSES * batches,
            "serving.server.connect_s": remote.connect_s,
            "serving.server.calls": PASSES * batches,
        })
        parts += [scattered - total, wire_us,
                  round_trip - scattered - wire_us]
        total = round_trip

    metrics["routing.tz_hierarchy.route_share"] = parts[0] / total
    metrics["trace.attributed_share"] = \
        sum(max(0.0, part) for part in parts) / total
    return metrics
