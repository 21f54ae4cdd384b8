"""Telemetry core: histograms, registries, and cross-worker merges."""

import math
import pickle
import random

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    make_registry,
    merge_exports,
)
from repro.serving.cache import ServingStats


class TestHistogram:
    def test_empty_quantiles_are_nan(self):
        hist = Histogram()
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.quantile(0.99))
        assert math.isnan(hist.mean)
        payload = hist.to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None

    def test_single_sample_every_quantile_is_that_sample(self):
        hist = Histogram()
        hist.observe(0.0123)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(0.0123)
        assert hist.mean == pytest.approx(0.0123)

    def test_overflow_samples_clamp_to_observed_max(self):
        hist = Histogram(lo=1e-6, hi=1.0)
        hist.observe(0.5)
        hist.observe(200.0)   # far above hi -> overflow bucket
        hist.observe(300.0)
        assert hist.quantile(0.99) == pytest.approx(300.0)
        assert hist.max == pytest.approx(300.0)
        assert hist.count == 3

    def test_underflow_samples_clamp_to_observed_min(self):
        hist = Histogram(lo=1e-3, hi=1.0)
        hist.observe(1e-9)
        assert hist.quantile(0.5) == pytest.approx(1e-9)

    def test_quantile_accuracy_within_bucket_resolution(self):
        hist = Histogram()
        rng = random.Random(7)
        values = [rng.uniform(0.001, 0.1) for _ in range(5000)]
        for value in values:
            hist.observe(value)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = values[min(len(values) - 1,
                               max(0, math.ceil(q * len(values)) - 1))]
            estimate = hist.quantile(q)
            # bucket geometry: 4 buckets per doubling => at most ~19%
            # relative error; assert a slightly looser envelope
            assert estimate == pytest.approx(exact, rel=0.25)

    def test_merge_is_commutative_and_associative(self):
        rng = random.Random(11)
        samples = [[rng.expovariate(50.0) for _ in range(200)]
                   for _ in range(3)]

        def build(chunk):
            hist = Histogram()
            for value in chunk:
                hist.observe(value)
            return hist

        a_b = build(samples[0]).merge(build(samples[1]))
        b_a = build(samples[1]).merge(build(samples[0]))
        assert a_b.to_dict() == b_a.to_dict()

        left = build(samples[0]).merge(build(samples[1])) \
            .merge(build(samples[2]))
        right = build(samples[0]).merge(
            build(samples[1]).merge(build(samples[2])))
        assert left.to_dict() == right.to_dict()

        # vs. one histogram that saw every sample: identical up to float
        # summation order in the running total
        everything = build(samples[0] + samples[1] + samples[2]).to_dict()
        combined = left.to_dict()
        assert combined.pop("total") == pytest.approx(
            everything.pop("total"))
        assert combined == everything

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(lo=1e-3))

    def test_dict_round_trip(self):
        hist = Histogram()
        for value in (0.001, 0.004, 0.2, 50.0):
            hist.observe(value)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.quantile(0.99) == hist.quantile(0.99)

    def test_pickle_round_trip(self):
        hist = Histogram()
        for value in (0.002, 0.03, 0.03, 1.5):
            hist.observe(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.to_dict() == hist.to_dict()
        clone.observe(0.01)  # rebuilt bounds must still work
        assert clone.count == hist.count + 1


class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(4)
        registry.histogram("lat").observe(0.01)
        export = registry.export()
        assert export["hits"]["value"] == 3
        assert export["depth"]["value"] == 4
        assert export["lat"]["count"] == 1

    def test_name_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_span_observes_elapsed_time(self):
        ticks = iter([10.0, 10.25])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.span("stage"):
            pass
        export = registry.export()
        assert export["stage"]["count"] == 1
        assert registry.histogram("stage").quantile(0.5) \
            == pytest.approx(0.25)

    def test_registry_pickles(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(0.1)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.export() == registry.export()
        with clone.span("s"):
            pass  # restored clock must work

    def test_null_registry_is_free_and_inert(self):
        assert isinstance(make_registry(False), NullRegistry)
        assert isinstance(make_registry(True), MetricsRegistry)
        assert make_registry(False) is NULL_REGISTRY
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("y").set(3)
        with NULL_REGISTRY.span("z"):
            pass
        assert NULL_REGISTRY.export() == {}


class TestMergeExports:
    def test_counters_sum_gauges_max_histograms_merge(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("hits").inc(3)
        r2.counter("hits").inc(4)
        r1.gauge("depth").set(2)
        r2.gauge("depth").set(9)
        r1.histogram("lat").observe(0.01)
        r2.histogram("lat").observe(0.04)
        r2.counter("only_r2").inc()
        merged = merge_exports([r1.export(), r2.export()])
        assert merged["hits"]["value"] == 7
        assert merged["depth"]["value"] == 9
        assert merged["lat"]["count"] == 2
        assert merged["only_r2"]["value"] == 1

    def test_merge_matches_single_registry_totals(self):
        """N per-worker registries merged == one registry that saw it all."""
        rng = random.Random(3)
        single = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(4)]
        for i in range(400):
            worker = workers[i % 4]
            value = rng.expovariate(100.0)
            single.counter("batches").inc()
            worker.counter("batches").inc()
            single.histogram("lat").observe(value)
            worker.histogram("lat").observe(value)
        merged = merge_exports([w.export() for w in workers])
        expected = single.export()
        assert merged["lat"].pop("total") == pytest.approx(
            expected["lat"].pop("total"))
        assert merged == expected

    def test_type_conflicts_raise(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("x").inc()
        r2.histogram("x").observe(0.5)
        with pytest.raises(ValueError):
            merge_exports([r1.export(), r2.export()])

    def test_merge_is_order_insensitive(self):
        r1, r2, r3 = (MetricsRegistry() for _ in range(3))
        for registry, values in ((r1, (0.01, 0.2)), (r2, (0.5,)),
                                 (r3, (0.003, 0.003, 7.0))):
            for value in values:
                registry.histogram("lat").observe(value)
                registry.counter("n").inc()
        exports = [r1.export(), r2.export(), r3.export()]
        forward = merge_exports(exports)
        backward = merge_exports(exports[::-1])
        assert forward == backward


class TestServingStatsTelemetry:
    def test_merge_folds_telemetry_additively(self):
        registries = []
        for count in (2, 5):
            registry = MetricsRegistry()
            for i in range(count):
                registry.counter("probes").inc()
                registry.histogram("lat").observe(0.01 * (i + 1))
            registries.append(registry)
        stats = [ServingStats(queries=10,
                              extra={"telemetry": r.export()})
                 for r in registries]
        merged = ServingStats.merge(stats)
        assert merged.queries == 20
        telemetry = merged.extra["telemetry"]
        assert telemetry["probes"]["value"] == 7
        assert telemetry["lat"]["count"] == 7

    def test_merge_without_telemetry_has_no_telemetry_key(self):
        merged = ServingStats.merge([ServingStats(queries=1),
                                     ServingStats(queries=2)])
        assert "telemetry" not in merged.extra
