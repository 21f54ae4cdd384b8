"""One workload run: set-up, timed rounds, gate — untraced or traced.

The untraced run produces the end-to-end metrics; the traced run is a
second, separate run that installs the span wrappers, peels the serving
stack and produces the per-layer metrics.  Every timing is reported at the
reference host speed (see ``hostclock``); the wall-clock readings are kept
beside it in the record file.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import repro.core as core

import measure
import peel
import spans
import workloads
from hostclock import HostClock

#: Stop starting new rounds after this long, whatever ``--seconds`` says,
#: so a slow host still finishes inside the driver's per-run limit.
HARD_CAP_S = 100.0

#: Rounds every run measures at least, however short ``--seconds`` is.
MIN_ROUNDS = 9

TIMED = ("build_s", "route_qps", "distance_qps", "batch_p50_ms",
         "batch_p99_ms")


class Run:
    """Inputs, counters and the gate of one workload run."""

    def __init__(self, spec: workloads.Spec, seed: int, smoke: bool,
                 src: str, workdir: str, clock: HostClock) -> None:
        self.spec = spec
        self.seed = seed
        self.smoke = smoke
        self.src = src
        self.workdir = workdir
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.over_recorded_bound = 0
        self.sha256: Optional[str] = None

    def prepare(self, recorder: Optional[spans.SpanRecorder] = None) -> None:
        """Seeded inputs plus the harness's exact-distance oracle."""
        if recorder is None:
            self.graph = workloads.make_graph(self.spec, self.seed, self.smoke)
        else:
            with recorder.span("graphs.generate"):
                self.graph = workloads.make_graph(self.spec, self.seed,
                                                  self.smoke)
        self.exact = workloads.exact_distances(self.graph)
        self.stream = workloads.make_stream(self.spec, self.graph.nodes(),
                                            self.seed, self.smoke)
        self.batches = measure.batches_of(self.stream, self.spec.batch)
        self.distinct = list(dict.fromkeys(self.stream))

    def build(self) -> Tuple[Any, float, float]:
        """The timed build operation: ``(product, wall seconds less the
        host probes inside it, host speed meanwhile)``."""
        start = time.perf_counter()
        product = workloads.build_product(self.spec, self.graph, self.workdir)
        end = time.perf_counter()
        return (product, end - start - self.clock.probing(start, end),
                self.clock.speed(start, end))

    def gate(self, product) -> float:
        """Reference answers for the stream, checked against the oracle and
        kept as what every later answer must equal.

        Returns the mean route stretch.  A rebuilt artifact must also
        reproduce the first build's payload checksum.
        """
        reference = product.reference(self.distinct)
        checked, failed, over, mean_stretch = product.check(reference,
                                                            self.exact)
        self.attempted += 1 + checked
        self.failed += failed
        self.over_recorded_bound = over
        if self.sha256 is None:
            self.sha256 = product.sha256
        elif product.sha256 != self.sha256:
            self.failed += 1
        self.expected = {kind: measure.batch_answers(self.batches, answers)
                         for kind, answers in reference.items()}
        return mean_stretch

    def verify(self, kind: str, answers: List[List]) -> None:
        self.attempted += len(self.stream)
        self.failed += measure.count_mismatches(self.expected[kind], answers)

    def fail_pass(self) -> None:
        """A pass raised or timed out: its operations count as failed and
        measuring stops (the session behind it is gone)."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += len(self.stream)
        self.failed += len(self.stream)


class Samples:
    """One sample per pass (throughput) or per round (build, latency
    percentiles); every metric is the median of its samples."""

    def __init__(self) -> None:
        self.reference: Dict[str, List[float]] = {n: [] for n in TIMED}
        self.wall: Dict[str, List[float]] = {n: [] for n in TIMED}
        self.rounds = 0

    def add(self, name: str, wall: float, speed: float,
            is_rate: bool = False) -> None:
        """``speed`` is the host's during the sample: a time stretches by
        it, a rate shrinks by it."""
        self.wall[name].append(wall)
        self.reference[name].append(wall / speed if is_rate else wall * speed)


def _query_round(run: Run, serving: workloads.Serving,
                 samples: Optional[Samples]) -> None:
    """One round's query phases (``samples=None``: the untimed warm pass).

    A backend with ``submit``/``gather`` is driven with its window full for
    throughput and with one batch outstanding for latency; an in-process
    backend is closed-loop either way, so its route passes give both.  The
    round's latencies are folded into one p50 and one p99, so a slow host
    period spoils one round's sample instead of leaking into a pooled tail.
    """
    spec, backend, clock = run.spec, serving.backend, run.clock
    pairs = len(run.stream)
    warm = samples is None
    seconds: Dict[str, List[float]] = {"route": [], "distance": []}
    latencies: List[float] = []
    with clock.timer_paused():
        start = time.perf_counter()
        for kind, passes in (("route", spec.route_passes),
                             ("distance", spec.distance_passes)):
            call = getattr(backend, f"{kind}_batch")
            for _ in range(1 if warm else passes):
                if serving.pipelined:
                    elapsed, answers = measure.pipelined_pass(
                        backend, kind, run.batches, clock)
                else:
                    elapsed, batch_s, answers = measure.closed_loop_pass(
                        call, run.batches, clock)
                    if kind == "route":
                        latencies.extend(batch_s)
                seconds[kind].append(elapsed)
                run.verify(kind, answers)
        for _ in range(0 if warm else spec.latency_passes):
            _, batch_s, answers = measure.closed_loop_pass(
                backend.route_batch, run.batches, clock)
            latencies.extend(batch_s)
            run.verify("route", answers)
        speed = clock.speed(start, time.perf_counter())
    if warm:
        return
    for kind in ("route", "distance"):
        for elapsed in seconds[kind]:
            samples.add(f"{kind}_qps", pairs / elapsed, speed, is_rate=True)
    samples.add("batch_p50_ms", measure.percentile(latencies, 0.50) * 1e3,
                speed)
    samples.add("batch_p99_ms", measure.percentile(latencies, 0.99) * 1e3,
                speed)
    samples.rounds += 1


def _build_and_serve(run: Run, samples: Samples
                     ) -> Tuple[workloads.Serving, float]:
    """The timed build, its gate, and the warmed backend the queries go
    to: ``(serving, mean route stretch)``."""
    product, build_s, speed = run.build()
    samples.add("build_s", build_s, speed)
    mean_stretch = run.gate(product)
    serving = workloads.Serving(run.spec, product, run.src)
    try:
        _query_round(run, serving, None)
    except BaseException:
        serving.close()
        raise
    return serving, mean_stretch


def run_end_to_end(run: Run, seconds: float, started: float
                   ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The untraced run: ``(metric values, per-metric detail)``."""
    spec = run.spec
    samples = Samples()
    run.prepare()
    serving = None
    mean_stretch = 0.0
    try:
        if spec.rounds_per_build:
            # Untimed warm pass: the whole operation once on the tiny twin.
            workloads.build_product(
                spec, workloads.make_graph(spec, run.seed, smoke=True),
                run.workdir)
        else:
            serving, mean_stretch = _build_and_serve(run, samples)
        measuring = time.perf_counter()
        setup_s = run.clock.reference_seconds(started, measuring)

        while True:
            try:
                if (spec.rounds_per_build
                        and samples.rounds % spec.rounds_per_build == 0):
                    if serving is not None:
                        serving.close()
                        serving = None
                    serving, mean_stretch = _build_and_serve(run, samples)
                _query_round(run, serving, samples)
            except Exception:
                run.fail_pass()
                break
            elapsed = time.perf_counter() - measuring
            if elapsed >= HARD_CAP_S or (samples.rounds >= MIN_ROUNDS
                                         and elapsed >= seconds):
                break
    finally:
        if serving is not None:
            serving.close()

    detail = {name: dict(measure.summarize(samples.reference[name]),
                         wall=measure.summarize(samples.wall[name])["value"])
              for name in TIMED}
    detail.update({
        "setup_s": {"value": setup_s, "wall": measuring - started, "n": 1},
        "mean_stretch": {"value": mean_stretch, "n": len(run.distinct),
                         "pairs_over_recorded_bound": run.over_recorded_bound},
        "peak_rss_mb": {"value": measure.peak_rss_mb(), "n": 1},
    })
    counts = {"rounds": samples.rounds,
              "pairs_per_pass": len(run.stream),
              "batches_per_pass": len(run.batches),
              "latency_batches_per_round":
                  (spec.latency_passes or spec.route_passes)
                  * len(run.batches),
              "host_probes": len(run.clock.stamps),
              "samples": {name: entry["n"] for name, entry in detail.items()}}
    return ({name: entry["value"] for name, entry in detail.items()},
            {"detail": detail, "counts": counts})


def run_traced(run: Run, trace_path: str
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The traced run: every per-layer metric of one workload."""
    spec = run.spec
    recorder = spans.SpanRecorder()
    run.prepare(recorder)
    _, untraced_s, untraced_speed = run.build()
    recorder.install()
    try:
        with recorder.span(spans.ROOT):
            product, traced_s, traced_speed = run.build()
    finally:
        recorder.uninstall()
    untraced_s *= untraced_speed
    traced_s *= traced_speed
    run.gate(product)

    metrics = spans.build_layer_metrics(recorder, run.clock)
    metrics["core.weight_rounding.levels"] = core.RoundingScheme(
        epsilon=workloads.EPSILON,
        max_weight=run.graph.max_weight()).num_levels
    metrics["serving.artifacts.bytes"] = product.artifact_bytes
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    try:
        metrics.update(peel.peel(run, product))
    except Exception:
        run.fail_pass()
        for name in peel.QUERY_METRICS + ("trace.attributed_share",):
            metrics.setdefault(name, 0.0)
    if spec.rounds_per_build:
        # The operation of a build workload is the build itself.
        metrics["trace.attributed_share"] = \
            metrics["trace.build_attributed_share"]
    metrics["host.calib_loop_s"] = measure.summarize(
        run.clock.durations)["value"]
    metrics["host.calib_spread"] = measure.spread(run.clock.second_speeds())
    recorder.write_jsonl(trace_path)
    counts = {"spans": len(recorder.spans), "peel_passes": peel.PASSES,
              "pairs_per_pass": len(run.stream),
              "batches_per_pass": len(run.batches),
              "host_probes": len(run.clock.stamps)}
    return metrics, {"counts": counts}
