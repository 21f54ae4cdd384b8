"""Columnar batch-query kernel: identity, fallback, stats, cache bounds.

The kernel's contract is strict: whatever the probing strategy, answers are
list-for-list identical to the per-pair dict path — across workload shapes,
input orderings, duplicate pairs, backing stores, and deployment shapes
(local and sharded).  These tests pin that contract, plus the satellites
that ride along: the bounded pivot-row LRU and the numpy-optional twin
paths.
"""

import dataclasses
import os

import pytest

from repro import graphs
from repro.routing import tables as tables_module
from repro.routing.tz_hierarchy import _PivotRowCache
from repro.serving import (
    BuildConfig,
    CacheConfig,
    QUERY_KERNELS,
    ServingConfig,
    make_workload,
    open_service,
    resolve_query_kernel,
)

WORKLOAD_SHAPES = ("uniform", "zipf", "locality", "bursty")


@pytest.fixture(scope="module")
def kernel_graph():
    return graphs.erdos_renyi_graph(70, 0.1, graphs.uniform_weights(1, 20),
                                    seed=5)


@pytest.fixture(scope="module")
def artifact_path(kernel_graph, tmp_path_factory):
    """One format-2 artifact every test serves from."""
    path = str(tmp_path_factory.mktemp("kernel") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path,
                           build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0))
    open_service(config, graph=kernel_graph).close()
    return path


def open_with(artifact_path, kernel, **overrides):
    config = ServingConfig(artifact_path=artifact_path,
                           build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0),
                           kernel=kernel)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return open_service(config)


class TestKernelIdentity:
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_distance_batch_matches_dict_path(self, artifact_path,
                                              kernel_graph, shape):
        pairs = make_workload(shape, kernel_graph, 400, seed=9).pairs
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert baseline.query_stats().extra["kernel_active"] == "dict"
            assert columnar.query_stats().extra["kernel_active"] == "columnar"
            assert (baseline.distance_batch(pairs)
                    == columnar.distance_batch(pairs))

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_route_batch_matches_dict_path(self, artifact_path,
                                           kernel_graph, shape):
        pairs = make_workload(shape, kernel_graph, 150, seed=3).pairs
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert (baseline.route_batch(pairs)
                    == columnar.route_batch(pairs))

    def test_unsorted_duplicate_and_equal_pairs(self, artifact_path,
                                                kernel_graph):
        nodes = kernel_graph.nodes()
        # Deliberately adversarial ordering: descending sources, duplicated
        # pairs scattered, self-pairs interleaved.
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                 for i in range(200)]
        pairs = sorted(pairs, key=repr, reverse=True)
        pairs += pairs[::4] + [(nodes[0], nodes[0]), (nodes[5], nodes[5])]
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert (baseline.distance_batch(pairs)
                    == columnar.distance_batch(pairs))
            assert baseline.route_batch(pairs) == columnar.route_batch(pairs)

    def test_self_pairs_are_zero_and_delivered(self, artifact_path,
                                               kernel_graph):
        nodes = kernel_graph.nodes()[:10]
        pairs = [(v, v) for v in nodes]
        with open_with(artifact_path, "columnar") as service:
            assert service.distance_batch(pairs) == [0.0] * len(pairs)
            for trace in service.route_batch(pairs):
                assert trace.delivered and trace.path == [trace.source]

    def test_unknown_node_raises_both_kernels(self, artifact_path,
                                              kernel_graph):
        pairs = [(kernel_graph.nodes()[0], "no-such-node")]
        for kernel in ("dict", "columnar"):
            with open_with(artifact_path, kernel) as service:
                with pytest.raises(ValueError, match="no-such-node"):
                    service.distance_batch(pairs)


class TestKernelSelection:
    def test_registry_names(self):
        assert set(QUERY_KERNELS.names()) >= {"dict", "columnar", "auto"}

    def test_auto_resolves_columnar_on_v2(self, artifact_path):
        with open_with(artifact_path, "auto") as service:
            assert service.query_stats().extra["kernel_active"] == "columnar"
            assert resolve_query_kernel("auto", service.hierarchy) \
                == "columnar"

    def test_unknown_kernel_rejected(self, artifact_path):
        with pytest.raises(ValueError, match="query kernel"):
            open_with(artifact_path, "vectorised")

    def test_hierarchy_rejects_unknown_selector(self, artifact_path):
        with open_with(artifact_path, "auto") as service:
            with pytest.raises(ValueError, match="unknown query kernel"):
                service.hierarchy.distance_batch([], kernel="nope")

    def test_in_memory_build_falls_back_to_dict(self, kernel_graph,
                                                artifact_path):
        config = ServingConfig(build=BuildConfig(k=3, seed=5),
                               cache=CacheConfig(capacity=0),
                               kernel="columnar")
        pairs = make_workload("zipf", kernel_graph, 200, seed=1).pairs
        with open_service(config, graph=kernel_graph) as built, \
                open_with(artifact_path, "columnar") as loaded:
            # Requesting columnar on a hierarchy without record tables
            # degrades gracefully, and answers stay identical.
            assert built.query_stats().extra["kernel_active"] == "dict"
            assert (built.distance_batch(pairs)
                    == loaded.distance_batch(pairs))


class TestKernelStats:
    def test_group_stats_and_madvise_reported(self, artifact_path,
                                              kernel_graph):
        pairs = make_workload("uniform", kernel_graph, 120, seed=2).pairs
        with open_with(artifact_path, "columnar") as service:
            service.distance_batch(pairs)
            extra = service.query_stats().extra
            stats = extra["kernel_stats"]
            assert stats["batches"] >= 1
            assert stats["pairs"] >= len(set(pairs))
            # Grouping by source can never exceed the pair count.
            assert 1 <= stats["groups"] <= stats["pairs"]
            assert stats["bunch_rows_decoded"] >= 1
            assert extra["kernel_requested"] == "columnar"
            # madvise hints are best-effort; when the platform applied them
            # the record sections are listed.
            if hasattr(os, "posix_fadvise"):  # any modern POSIX
                assert "madvise_sections" in extra


class TestShardedKernel:
    def test_sharded_columnar_matches_local_dict(self, artifact_path,
                                                 kernel_graph):
        pairs = make_workload("bursty", kernel_graph, 200, seed=4).pairs
        sharded_config = ServingConfig(artifact_path=artifact_path,
                                       build=BuildConfig(k=3, seed=5),
                                       cache=CacheConfig(capacity=0),
                                       workers=2, kernel="columnar")
        with open_with(artifact_path, "dict") as baseline, \
                open_service(sharded_config) as sharded:
            expected_distances = baseline.distance_batch(pairs)
            expected_routes = baseline.route_batch(pairs)
            assert sharded.distance_batch(pairs) == expected_distances
            assert sharded.route_batch(pairs) == expected_routes
            merged = sharded.query_stats()
            assert merged.extra["kernel_active"] == "columnar"
            # Additive merge: the per-worker kernel counters sum.
            assert merged.extra["kernel_stats"]["pairs"] >= len(set(pairs))


class TestPivotRowCacheBound:
    def test_lru_bound_and_evictions(self, artifact_path, kernel_graph):
        pairs = make_workload("uniform", kernel_graph, 300, seed=6).pairs
        with open_with(artifact_path, "dict") as service:
            hierarchy = service.hierarchy
            hierarchy._pivot_row_cache = _PivotRowCache(8)
            service.distance_batch(pairs)
            info = hierarchy.pivot_row_cache_info()
            assert info["capacity"] == 8
            assert info["size"] <= 8
            assert info["evictions"] > 0
            assert info["misses"] > 0
            assert service.query_stats().extra["pivot_row_cache"] == info


class TestNumpyOptional:
    def test_stdlib_twin_is_identical(self, artifact_path, kernel_graph,
                                      monkeypatch):
        """Force the stdlib struct/array path and re-check identity.

        CI additionally runs this whole file with ``REPRO_NO_NUMPY=1`` in
        an environment without numpy installed; this in-process variant
        keeps the twin-path contract covered on every run.
        """
        pairs = make_workload("zipf", kernel_graph, 250, seed=12).pairs
        with open_with(artifact_path, "columnar") as service:
            expected = service.distance_batch(pairs)
            expected_routes = service.route_batch(pairs[:80])
        monkeypatch.setattr(tables_module, "_np", None)
        with open_with(artifact_path, "columnar") as service:
            assert service.query_stats().extra["kernel_active"] == "columnar"
            assert service.distance_batch(pairs) == expected
            assert service.route_batch(pairs[:80]) == expected_routes

    def test_have_numpy_honours_env_gate(self):
        # The probe result is consistent with the environment the module
        # was imported into.
        if os.environ.get("REPRO_NO_NUMPY"):
            assert tables_module.HAVE_NUMPY is False
        else:
            try:
                import numpy  # noqa: F401
            except ImportError:
                assert tables_module.HAVE_NUMPY is False
            else:
                assert tables_module.HAVE_NUMPY is True
