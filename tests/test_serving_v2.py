"""Serving API v2: QueryBackend protocol, open_service, policies."""

import gc
import warnings

import pytest

from repro import graphs
from repro.serving import (
    BuildConfig,
    CacheConfig,
    ExplicitHotSet,
    OnlineHotSet,
    QueryBackend,
    Registry,
    RoutingService,
    ServingConfig,
    ServingStats,
    ShardedRoutingService,
    WORKLOAD_NAMES,
    WorkloadConfig,
    make_workload,
    open_service,
    register_workload,
)
from repro.serving.registry import WORKLOADS


@pytest.fixture(scope="module")
def v2_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def artifact_path(v2_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("v2") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path, build=BuildConfig(seed=4))
    open_service(config, graph=v2_graph)
    return path


@pytest.fixture(scope="module")
def v2_config(artifact_path):
    return ServingConfig(artifact_path=artifact_path,
                         build=BuildConfig(seed=4))


class TestQueryBackendProtocol:
    def test_local_backend_satisfies_protocol(self, v2_config):
        backend = open_service(v2_config)
        assert isinstance(backend, QueryBackend)
        assert isinstance(backend, RoutingService)

    def test_sharded_backend_satisfies_protocol(self, v2_config, v2_graph):
        import dataclasses

        config = dataclasses.replace(v2_config, workers=2)
        backend = open_service(config, graph=v2_graph)
        try:
            assert isinstance(backend, QueryBackend)
            assert isinstance(backend, ShardedRoutingService)
        finally:
            backend.close()

    def test_local_context_manager_and_close_idempotent(self, v2_config):
        with open_service(v2_config) as backend:
            nodes = backend.graph.nodes()
            assert backend.route_batch([(nodes[0], nodes[1])])
        backend.close()
        backend.close()

    def test_query_stats_is_the_uniform_accessor(self, v2_config, v2_graph):
        import dataclasses

        pairs = [(v2_graph.nodes()[0], v2_graph.nodes()[5])] * 4
        local = open_service(v2_config)
        local.distance_batch(pairs)
        assert local.query_stats().distance_queries == 4
        with open_service(dataclasses.replace(v2_config, workers=2),
                          graph=v2_graph) as sharded:
            sharded.distance_batch(pairs)
            assert sharded.query_stats().distance_queries == 4


class TestOpenServiceIdentity:
    """Acceptance: every ``open_service`` backend answers identically to a
    directly constructed service."""

    @pytest.mark.parametrize("shape", WORKLOAD_NAMES)
    def test_local_backend_matches_v1_service(self, v2_graph, v2_config,
                                              shape):
        workload = make_workload(shape, v2_graph, 150, seed=9)
        v1 = RoutingService.build(v2_graph, k=3, seed=4)     # direct path
        v2 = open_service(v2_config)
        v1_routes = v1.route_batch(workload.pairs)
        v2_routes = v2.route_batch(workload.pairs)
        assert [t.path for t in v2_routes] == [t.path for t in v1_routes]
        assert [t.weight for t in v2_routes] == [t.weight for t in v1_routes]
        assert (v2.distance_batch(workload.pairs)
                == v1.distance_batch(workload.pairs))

    @pytest.mark.parametrize("shape", WORKLOAD_NAMES)
    def test_sharded_backend_matches_v1_sharded(self, v2_graph, v2_config,
                                                artifact_path, shape):
        import dataclasses

        workload = make_workload(shape, v2_graph, 120, seed=5)
        v1 = ShardedRoutingService(artifact_path, num_workers=2,
                                   graph=v2_graph)           # direct path
        with v1:
            v1_routes = v1.route_batch(workload.pairs)
            v1_dists = v1.distance_batch(workload.pairs)
        config = dataclasses.replace(v2_config, workers=2)
        with open_service(config, graph=v2_graph) as v2:
            v2_routes = v2.route_batch(workload.pairs)
            v2_dists = v2.distance_batch(workload.pairs)
        assert [t.path for t in v2_routes] == [t.path for t in v1_routes]
        assert v2_dists == v1_dists

    def test_identity_holds_with_all_policies_on(self, v2_graph, v2_config):
        """Hot-set promotion and pair-hash partitioning change where repeats
        are answered, never what the answer is."""
        import dataclasses

        workload = make_workload("bursty", v2_graph, 200, seed=3)
        reference = open_service(v2_config).route_batch(workload.pairs)
        config = dataclasses.replace(
            v2_config, workers=2, partitioner="hash_pair",
            cache=CacheConfig(capacity=64, hot_set="online",
                              hot_threshold=2, hot_capacity=16))
        with open_service(config, graph=v2_graph) as fancy:
            answers = []
            for lo in range(0, len(workload.pairs), 50):
                answers.extend(fancy.route_batch(workload.pairs[lo:lo + 50]))
        assert [t.path for t in answers] == [t.path for t in reference]
        assert [t.weight for t in answers] == [t.weight for t in reference]


class TestResourceWarningOnImplicitTeardown:
    def test_del_of_running_service_warns(self, artifact_path):
        """Regression: __del__ of a still-running sharded service used to
        swallow everything silently; it must name the unclosed service."""
        service = ShardedRoutingService(artifact_path, num_workers=1).start()
        processes = [handle.process for handle in service._workers]
        with pytest.warns(ResourceWarning,
                          match="unclosed ShardedRoutingService"):
            del service
            gc.collect()
        for process in processes:
            process.join(timeout=10.0)
        assert not any(process.is_alive() for process in processes)

    def test_del_of_closed_service_is_silent(self, artifact_path):
        service = ShardedRoutingService(artifact_path, num_workers=1).start()
        service.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del service
            gc.collect()


class TestOnlineHotSet:
    def make_service(self, graph, threshold=2, capacity=16):
        return RoutingService.build(
            graph, k=2, seed=1,
            cache_config=CacheConfig(capacity=256, hot_set="online",
                                     hot_threshold=threshold,
                                     hot_capacity=capacity))

    def test_promotes_after_threshold_hits(self, v2_graph):
        service = self.make_service(v2_graph, threshold=2)
        u, v = v2_graph.nodes()[0], v2_graph.nodes()[7]
        expected = service.hierarchy.route(u, v)
        service.route(u, v)                    # miss
        service.route(u, v)                    # LRU hit 1
        assert (u, v) not in service._hot_routes
        service.route(u, v)                    # LRU hit 2 -> promoted
        assert (u, v) in service._hot_routes
        assert (u, v) not in service.route_cache   # pinned copy evicted
        assert service.stats.extra["hot_promotions"] == 1
        before = service.stats.hot_hits
        trace = service.route(u, v)            # answered from the hot store
        assert service.stats.hot_hits == before + 1
        assert trace.path == expected.path and trace.weight == expected.weight

    def test_promotes_distances_independently(self, v2_graph):
        service = self.make_service(v2_graph, threshold=2)
        u, v = v2_graph.nodes()[1], v2_graph.nodes()[8]
        for _ in range(3):
            service.distance_batch([(u, v)])
        assert (u, v) in service._hot_distances
        assert (u, v) not in service._hot_routes

    def test_capacity_bounds_promotions(self, v2_graph):
        service = self.make_service(v2_graph, threshold=1, capacity=1)
        nodes = v2_graph.nodes()
        pairs = [(nodes[0], nodes[5]), (nodes[1], nodes[6]),
                 (nodes[2], nodes[7])]
        for _ in range(3):
            for pair in pairs:
                service.route(*pair)
        assert len(service._hot_routes) == 1
        assert service.stats.extra["hot_promotions"] == 1

    def test_zero_capacity_never_promotes(self, v2_graph):
        service = self.make_service(v2_graph, threshold=1, capacity=0)
        u, v = v2_graph.nodes()[0], v2_graph.nodes()[9]
        for _ in range(5):
            service.route(u, v)
        assert not service._hot_routes
        assert "hot_promotions" not in service.stats.extra

    def test_promotion_telemetry_survives_stats_merge(self):
        """Regression: per-worker hot-set extras used to be dropped by
        ServingStats.merge because workers disagree on the counts; additive
        extras are summed instead."""
        a = ServingStats(extra={"hot_promotions": 3,
                                "hot_pairs": {"route": 3, "distance": 1},
                                "worker_id": 0})
        b = ServingStats(extra={"hot_promotions": 5,
                                "hot_pairs": {"route": 5},
                                "worker_id": 1})
        merged = ServingStats.merge([a, b])
        assert merged.extra["hot_promotions"] == 8
        assert merged.extra["hot_pairs"] == {"route": 8, "distance": 1}
        assert "worker_id" not in merged.extra

    def test_promotion_pins_the_cached_value_without_recompute(self,
                                                               v2_graph):
        """Regression: promotion used to recompute the result from the
        hierarchy on the triggering cache hit; the cached value (identical
        by construction) must be pinned directly."""
        service = self.make_service(v2_graph, threshold=2)
        u, v = v2_graph.nodes()[2], v2_graph.nodes()[6]
        first = service.route(u, v)            # miss: computed and cached
        service.route(u, v)                    # hit 1
        service.route(u, v)                    # hit 2 -> promoted
        assert service._hot_routes[(u, v)] is first
        calls = []
        service.hierarchy.route = lambda *a, **k: calls.append(a)  # trip wire
        assert service.route(u, v) is first    # hot store answers
        assert not calls

    def test_explicit_policy_object_pins_on_install(self, v2_graph):
        service = RoutingService.build(v2_graph, k=2, seed=1)
        u, v = v2_graph.nodes()[3], v2_graph.nodes()[9]
        service.install_hot_set(ExplicitHotSet(pairs=[(u, v)], kind="both"))
        assert (u, v) in service._hot_routes
        assert (u, v) in service._hot_distances
        assert service.stats.extra["hot_set"] == "explicit"

    def test_replacing_policy_clears_stale_provenance(self, v2_graph):
        """Regression: replacing/detaching a policy used to leave the old
        policy's describe() keys dangling in stats.extra."""
        service = RoutingService.build(v2_graph, k=2, seed=1)
        u, v = v2_graph.nodes()[3], v2_graph.nodes()[9]
        service.install_hot_set(ExplicitHotSet(pairs=[(u, v)]))
        assert service.stats.extra["hot_set_pairs"] == 1
        service.install_hot_set(OnlineHotSet())
        assert service.stats.extra["hot_set"] == "online"
        assert "hot_set_pairs" not in service.stats.extra
        service.install_hot_set(None)
        assert "hot_set" not in service.stats.extra
        assert (u, v) in service._hot_routes   # pinned pairs stay pinned


class TestShardedConfigRejections:
    def test_explicit_hot_set_rejected_for_sharded(self, artifact_path):
        """Every worker would pin every pair of its own full copy."""
        with pytest.raises(ValueError, match="explicit hot sets"):
            ShardedRoutingService(
                artifact_path, num_workers=2,
                cache_config=CacheConfig(hot_set="explicit",
                                         hot_pairs=((0, 1),)))

    def test_unsaveable_sharded_build_rejected_before_building(
            self, v2_graph, tmp_path):
        """Regression: workers>1 + save_artifact=False with no artifact on
        disk used to pay the full build and then crash on the missing
        file."""
        import time

        config = ServingConfig(
            artifact_path=str(tmp_path / "never-written.artifact"),
            workers=2, save_artifact=False)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="save_artifact=False"):
            open_service(config, graph=v2_graph)
        assert time.perf_counter() - start < 1.0   # rejected pre-build


class TestRegistries:
    def test_duplicate_registration_rejected_unless_replace(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", lambda: 2)
        registry.register("a", lambda: 3, replace=True)
        assert registry.get("a")() == 3

    def test_unknown_lookup_lists_available(self):
        registry = Registry("widget")
        registry.register("only", lambda: 1)
        with pytest.raises(ValueError, match="unknown widget .*only"):
            registry.get("missing")

    def test_register_workload_extends_make_workload(self, v2_graph):
        name = "test-fixed-pair"

        @register_workload(name)
        def fixed_pair(graph, num_queries, seed=0, **params):
            nodes = graph.nodes()
            from repro.serving import QueryWorkload
            return QueryWorkload(name=name,
                                 pairs=[(nodes[0], nodes[1])] * num_queries)

        try:
            workload = make_workload(name, v2_graph, 7)
            assert len(workload) == 7 and workload.distinct_pairs() == 1
        finally:
            WORKLOADS._entries.pop(name)

    def test_decorator_returns_the_callable(self):
        registry = Registry("widget")

        @registry.register("fn")
        def fn():
            return 42

        assert fn() == 42 and registry.get("fn") is fn
