"""RoutingService: caching, batching, build-or-load, CLI, stretch round-trip."""

import pytest

from repro import graphs
from repro.routing import build_compact_routing, evaluate_routing, sample_pairs
from repro.serving import (
    BuildConfig,
    CacheConfig,
    LRUCache,
    RoutingService,
    ServingStats,
    build_or_load_service,
    zipf_workload,
)
from repro.serving.cli import main as serve_main, parse_graph_spec


@pytest.fixture(scope="module")
def service_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def built_service(service_graph):
    return RoutingService.build(service_graph, k=3, seed=4)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_counters_and_reset(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (1, 1)
        cache.reset()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


class TestSingleQueries:
    def test_matches_hierarchy_directly(self, service_graph, built_service):
        hierarchy = built_service.hierarchy
        pairs = sample_pairs(service_graph.nodes(), 60)
        for u, v in pairs:
            assert built_service.distance_estimate(u, v) == hierarchy.distance(u, v)
            svc_route = built_service.route(u, v)
            direct = hierarchy.route(u, v)
            assert svc_route.path == direct.path
            assert svc_route.weight == direct.weight

    def test_full_path_endpoints(self, service_graph, built_service):
        u, v = service_graph.nodes()[0], service_graph.nodes()[-1]
        path = built_service.full_path(u, v)
        assert path[0] == u and path[-1] == v

    def test_unknown_node_rejected(self, built_service):
        with pytest.raises(ValueError, match="unknown node"):
            built_service.route("nope", 0)
        with pytest.raises(ValueError, match="unknown node"):
            built_service.distance_estimate(0, "nope")

    def test_repeat_query_hits_cache(self, service_graph):
        service = RoutingService.build(service_graph, k=2, seed=1)
        u, v = service_graph.nodes()[1], service_graph.nodes()[5]
        first = service.route(u, v)
        again = service.route(u, v)
        assert again is first          # cached object, not a recomputation
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 1

    def test_cache_disabled_still_correct(self, service_graph, built_service):
        uncached = RoutingService(built_service.hierarchy,
                                  cache_config=CacheConfig(capacity=0))
        u, v = service_graph.nodes()[2], service_graph.nodes()[9]
        assert uncached.route(u, v).path == built_service.route(u, v).path
        assert uncached.stats.cache_hits == 0


class TestBatchedQueries:
    def test_batch_matches_single(self, service_graph, built_service):
        pairs = sample_pairs(service_graph.nodes(), 80)
        batched_routes = built_service.route_batch(pairs)
        batched_dists = built_service.distance_batch(pairs)
        for (u, v), trace, est in zip(pairs, batched_routes, batched_dists):
            assert trace.path == built_service.hierarchy.route(u, v).path
            assert est == built_service.hierarchy.distance(u, v)

    def test_duplicates_computed_once(self, service_graph):
        service = RoutingService.build(service_graph, k=2, seed=2)
        u, v = service_graph.nodes()[0], service_graph.nodes()[3]
        results = service.route_batch([(u, v)] * 10)
        assert len(results) == 10
        assert all(r is results[0] for r in results)
        assert service.stats.cache_misses == 1
        assert service.stats.batched_queries == 10

    def test_distance_duplicates_computed_once(self, service_graph):
        service = RoutingService.build(service_graph, k=2, seed=2)
        u, v = service_graph.nodes()[0], service_graph.nodes()[3]
        estimates = service.distance_batch([(u, v)] * 10)
        assert len(estimates) == 10 and len(set(estimates)) == 1
        assert service.stats.cache_misses == 1

    def test_stats_accounting(self, service_graph):
        service = RoutingService.build(service_graph, k=2, seed=3)
        pairs = sample_pairs(service_graph.nodes(), 20)
        service.route_batch(pairs)
        service.distance_batch(pairs)
        assert service.stats.queries == 40
        assert service.stats.route_queries == 20
        assert service.stats.distance_queries == 20
        assert service.stats.batches == 2


class TestBuildOrLoad:
    def test_builds_then_loads(self, service_graph, tmp_path):
        path = str(tmp_path / "service.artifact")
        first = build_or_load_service(path, graph=service_graph,
                                      build=BuildConfig(k=3, seed=4))
        assert first.stats.build_seconds is not None
        assert first.stats.artifact_bytes > 0

        second = build_or_load_service(path)
        assert second.stats.load_seconds is not None
        assert second.stats.build_seconds is None

        pairs = sample_pairs(service_graph.nodes(), 50)
        assert ([t.path for t in first.route_batch(pairs)]
                == [t.path for t in second.route_batch(pairs)])
        assert first.distance_batch(pairs) == second.distance_batch(pairs)

    def test_missing_artifact_without_graph_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no graph"):
            build_or_load_service(str(tmp_path / "absent.artifact"))

    def test_stale_artifact_params_rejected(self, service_graph, tmp_path):
        from repro.serving import ArtifactError

        path = str(tmp_path / "stale.artifact")
        k2 = BuildConfig(k=2, seed=4)
        build_or_load_service(path, graph=service_graph, build=k2)
        # Same parameters: loads fine.
        build_or_load_service(path, graph=service_graph, build=k2)
        # Different k with a build intent: refuse to serve stale answers.
        with pytest.raises(ArtifactError, match="different parameters"):
            build_or_load_service(path, graph=service_graph,
                                  build=BuildConfig(k=3, seed=4))
        # Pure load intent (no graph) accepts whatever is persisted.
        build_or_load_service(path, build=BuildConfig(k=3, seed=4))

    def test_artifact_of_another_engine_is_stale(self, service_graph,
                                                 tmp_path):
        """A service builds only with ``batched``: an artifact another
        engine built is refused under a build intent, loaded without one."""
        from repro.serving import ArtifactError

        path = str(tmp_path / "logical.artifact")
        RoutingService.build(service_graph, k=2, seed=4,
                             engine="logical").save(path)
        with pytest.raises(ArtifactError, match="engine='logical'"):
            build_or_load_service(path, graph=service_graph,
                                  build=BuildConfig(k=2, seed=4))
        build_or_load_service(path)

    def test_header_missing_requested_key_is_stale(self, service_graph,
                                                   tmp_path):
        """Regression: a requested parameter *absent* from the header (an
        artifact predating it) used to be silently skipped by the freshness
        check, so a mismatched artifact could be served as fresh."""
        import json

        from repro.serving import ArtifactError

        path = str(tmp_path / "pre-engine.artifact")
        RoutingService.build(service_graph, k=2, seed=4).save(path)
        # Simulate an artifact predating "engine": section offsets are
        # relative to the payload, so the header line can be rewritten.
        with open(path, "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline().decode("utf-8"))
            payload = fh.read()
        del header["metadata"]["engine"]
        with open(path, "wb") as fh:
            fh.write(magic + json.dumps(header, sort_keys=True)
                     .encode("utf-8") + b"\n" + payload)
        with pytest.raises(ArtifactError, match="engine"):
            build_or_load_service(path, graph=service_graph,
                                  build=BuildConfig(k=2, seed=4))
        # Without a build intent the artifact still loads as-is.
        build_or_load_service(path)

    def test_mode_mismatch_with_auto_request_is_stale(self, service_graph,
                                                      tmp_path):
        """An explicitly-built artifact is not served for an auto request
        (auto may choose a different truncation level) and vice versa."""
        from repro.serving import ArtifactError

        path = str(tmp_path / "explicit-mode.artifact")
        budget = BuildConfig(k=3, seed=4, mode="budget")
        build_or_load_service(path, graph=service_graph, build=budget)
        build_or_load_service(path, graph=service_graph,
                              build=budget)           # same request: fine
        with pytest.raises(ArtifactError, match="mode"):
            build_or_load_service(path, graph=service_graph,
                                  build=BuildConfig(k=3, seed=4, mode="auto"))


class TestStretchRoundTrip:
    @pytest.mark.parametrize("make_graph,k", [
        (lambda: graphs.erdos_renyi_graph(
            26, 0.18, graphs.uniform_weights(1, 60), seed=23), 3),
        (lambda: graphs.random_geometric_graph(24, 0.4, None, seed=31), 2),
    ])
    def test_served_stretch_no_worse_than_fresh_build(self, make_graph, k,
                                                      tmp_path):
        """Satellite criterion: routes served from a reloaded artifact have
        stretch bounded by what the freshly built hierarchy measured."""
        graph = make_graph()
        hierarchy = build_compact_routing(graph, k=k, seed=13)
        pairs = sample_pairs(graph.nodes())
        fresh_report = evaluate_routing(hierarchy, graph, pairs=pairs)
        assert fresh_report.delivery_rate == 1.0
        assert fresh_report.max_stretch <= hierarchy.theoretical_stretch_bound()

        path = str(tmp_path / "stretch.artifact")
        RoutingService(hierarchy).save(path)
        served = RoutingService.load(path)
        served_report = evaluate_routing(served, graph, pairs=pairs)
        assert served_report.delivery_rate == 1.0
        assert served_report.max_stretch <= fresh_report.max_stretch + 1e-9


class TestCli:
    def test_parse_graph_spec(self):
        graph = parse_graph_spec("er:n=30,p=0.2,seed=4,weights=uniform:1:9")
        assert graph.num_nodes == 30
        assert graph.max_weight() <= 9
        grid = parse_graph_spec("grid:rows=3,cols=4")
        assert grid.num_nodes == 12

    def test_parse_road_spec(self):
        road = parse_graph_spec(
            "road:rows=8,cols=8,highway_every=4,shortcut_fraction=0.1,seed=2")
        assert road.num_nodes == 64
        assert road.is_connected()
        # corridor row 0 rides at highway weight 1
        assert road.weight(0, 1) == 1
        from repro.graphs import road_grid_graph
        expected = road_grid_graph(8, 8, highway_every=4,
                                   shortcut_fraction=0.1, seed=2)
        assert sorted(road.edges()) == sorted(expected.edges())

    def test_parse_powerlaw_spec(self):
        spec = parse_graph_spec(
            "powerlaw:n=50,exponent=2.2,min_degree=2,seed=6")
        assert spec.num_nodes == 50
        assert spec.is_connected()
        from repro.graphs import powerlaw_graph
        expected = powerlaw_graph(50, exponent=2.2, min_degree=2, seed=6)
        assert sorted(spec.edges()) == sorted(expected.edges())

    def test_parse_fattree_spec(self):
        spec = parse_graph_spec("fattree:k=4,hosts=2")
        assert spec.is_connected()
        assert spec.weight("core0", "pod0-agg0") == 1
        from repro.graphs import fat_tree_graph
        expected = fat_tree_graph(k=4, hosts_per_edge=2)
        assert sorted(spec.edges()) == sorted(expected.edges())

    @pytest.mark.parametrize("bad_spec", [
        "mystery:n=10",            # unknown family
        "er:n=10",                 # missing p
        "er:n=10,p=0.5,extra=1",   # unused key
        "er:n,p=0.5",              # malformed item
        "road:rows=4,cols=4,weights=unit",  # road family owns its weights
        "fattree:k=4,weights=unit",   # fattree family owns its weights
        "fattree:k=3,hosts=2",        # odd k
        "powerlaw:n=30,exponent=0.5",  # non-normalisable tail
    ])
    def test_bad_graph_specs_rejected(self, bad_spec):
        with pytest.raises(ValueError):
            parse_graph_spec(bad_spec)

    def test_main_builds_artifact_and_serves(self, tmp_path, capsys):
        artifact = str(tmp_path / "cli.artifact")
        argv = ["--graph", "er:n=25,p=0.2,seed=2,weights=uniform:1:20",
                "--artifact", artifact, "--k", "2",
                "--workload", "zipf", "--queries", "200", "--batch-size", "25"]
        assert serve_main(argv) == 0
        assert "q/s" in capsys.readouterr().out
        # Second invocation loads the artifact instead of rebuilding.
        assert serve_main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        assert '"load_seconds"' in out and '"queries": 200' in out

    @pytest.mark.parametrize("bad_argv", [
        ["--workload", "uniform", "--skew", "1.5"],
        ["--workload", "locality", "--skew", "1.5"],
        ["--workload", "zipf", "--hop-radius", "2"],
        ["--workload", "uniform", "--bias", "0.5"],
    ])
    def test_inapplicable_workload_flags_rejected(self, tmp_path, bad_argv):
        """Regression: --skew used to be silently ignored off-zipf, and
        locality had no way to set hop_radius/bias at all."""
        argv = ["--graph", "grid:rows=4,cols=5", "--k", "2",
                "--queries", "50"] + bad_argv
        with pytest.raises(SystemExit):
            serve_main(argv)

    def test_locality_flags_are_forwarded(self, capsys):
        import json as json_module

        from repro.serving import locality_workload

        argv = ["--graph", "grid:rows=5,cols=6,seed=3", "--k", "2",
                "--seed", "3", "--workload", "locality", "--queries", "150",
                "--hop-radius", "1", "--bias", "1.0", "--json"]
        assert serve_main(argv) == 0
        record = json_module.loads(capsys.readouterr().out)
        expected = locality_workload(parse_graph_spec("grid:rows=5,cols=6,seed=3"),
                                     150, hop_radius=1, bias=1.0, seed=3)
        assert record["distinct_pairs"] == expected.distinct_pairs()
        assert (record["hottest_pair_share"]
                == expected.skew_summary()["hottest_pair_share"])

    def test_workers_flag_serves_sharded(self, tmp_path, capsys):
        artifact = str(tmp_path / "sharded-cli.artifact")
        argv = ["--graph", "er:n=25,p=0.2,seed=2,weights=uniform:1:20",
                "--artifact", artifact, "--k", "2", "--workload", "zipf",
                "--queries", "120", "--batch-size", "30",
                "--workers", "2", "--json"]
        assert serve_main(argv) == 0
        import json as json_module
        record = json_module.loads(capsys.readouterr().out)
        assert record["queries"] == 120
        assert record["delivered"] == 120
        assert record["extra"]["workers"] == 2
        assert "partitioner" not in record["extra"]

    def test_workers_require_artifact(self):
        with pytest.raises(SystemExit):
            serve_main(["--graph", "grid:rows=4,cols=4", "--workers", "2"])


class TestServingStats:
    def test_as_dict_and_describe(self):
        stats = ServingStats(queries=10, cache_hits=6, cache_misses=4,
                             build_seconds=1.5)
        record = stats.as_dict()
        assert record["cache_hit_rate"] == 0.6
        text = stats.describe()
        assert "hit rate" in text and "1.500s" in text

    def test_extras_cannot_shadow_core_counters(self):
        """Regression: an extra key like "queries" used to overwrite the
        real counter in the exported record; extras are namespaced now."""
        stats = ServingStats(queries=10, cache_hits=6, cache_misses=4)
        stats.extra["queries"] = "shadow-attempt"
        stats.extra["artifact_path"] = "/tmp/x.artifact"
        record = stats.as_dict()
        assert record["queries"] == 10
        assert record["extra"]["queries"] == "shadow-attempt"
        assert record["extra"]["artifact_path"] == "/tmp/x.artifact"

    def test_serving_a_zipf_stream_hits_cache(self, service_graph,
                                              built_service):
        service = RoutingService(built_service.hierarchy)
        workload = zipf_workload(service_graph.nodes(), 400, seed=8)
        service.route_batch(workload.pairs)
        service.route_batch(workload.pairs)
        # Within a batch duplicates dedup without touching the cache, so the
        # first pass misses once per distinct pair and the second pass hits
        # once per distinct pair.
        distinct = workload.distinct_pairs()
        assert service.stats.cache_misses == distinct
        assert service.stats.cache_hits == distinct
        assert service.stats.cache_hit_rate == 0.5
