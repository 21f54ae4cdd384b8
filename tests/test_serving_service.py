"""RoutingService: caching, batching, build-or-load, CLI, stretch round-trip."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro import graphs
from repro.routing import build_compact_routing, evaluate_routing, sample_pairs
from repro.serving import (
    BuildConfig,
    CacheConfig,
    LRUCache,
    RoutingService,
    ServingStats,
    WorkloadConfig,
    build_or_load_service,
    zipf_workload,
)
from repro.serving.cli import main as serve_main, parse_graph_spec


#: Sentinel for "the sequential model missed".
MISSING = object()


@pytest.fixture(scope="module")
def service_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def built_service(service_graph):
    return RoutingService.build(service_graph, k=3, seed=4)


class SequentialLRU:
    """The one-key-at-a-time LRU that a batch probe and fill must match: the
    ``get`` / ``put`` the service called once per pair before it went batch
    by batch."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.hits = self.misses = self.evictions = 0
        self._entries = OrderedDict()

    def get(self, key, default=None):
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def put(self, key, value):
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1


def _cache_state(cache):
    return (list(cache._entries.items()), cache.hits, cache.misses,
            cache.evictions)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.fill([("a", 1), ("b", 2)])
        cache.probe(["a"])      # refresh "a"; "b" becomes LRU
        cache.fill([("c", 3)])
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.fill([("a", 1)])
        assert cache.probe(["a"]) == ({}, ["a"])
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_counters_and_reset(self):
        cache = LRUCache(4)
        cache.fill([("k", "v")])
        assert cache.probe(["k", "absent"]) == ({"k": "v"}, ["absent"])
        assert (cache.hits, cache.misses) == (1, 1)
        cache.reset()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.sampled_from([0, 1, 2, 5]),
           steps=st.lists(st.tuples(
               st.booleans(),
               st.lists(st.integers(0, 6), max_size=8)), max_size=12))
    def test_batches_match_one_key_at_a_time(self, capacity, steps):
        """A probe (or a fill) of a batch — duplicates, hits and misses
        mixed — leaves the same entry order, values and counters as the
        sequential model, and reports each occurrence as it would."""
        cache, model = LRUCache(capacity), SequentialLRU(capacity)
        for index, (probing, keys) in enumerate(steps):
            if probing:
                found, missed = cache.probe(keys)
                expected = [model.get(key, MISSING) for key in keys]
                assert missed == [key for key, value in zip(keys, expected)
                                  if value is MISSING]
                assert found == {key: value for key, value
                                 in zip(keys, expected) if value is not MISSING}
            else:
                items = [(key, (index, key)) for key in keys]
                cache.fill(items)
                for key, value in items:
                    model.put(key, value)
            assert _cache_state(cache) == _cache_state(model)
            assert len(cache) <= capacity


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


    @pytest.mark.parametrize("kind", ["route", "distance"])
    @pytest.mark.parametrize("case", ["first", "mid-batch", "only-target",
                                      "self-pair"])
    def test_unknown_node_in_a_batch_changes_nothing(
            self, service_graph, built_service, kind, case):
        """The first unknown node in pair order is named, and the call
        leaves every counter and both caches as they were."""
        service = RoutingService(built_service.hierarchy,
                                 cache_config=CacheConfig(capacity=3))
        n = service_graph.nodes()
        warm = [(n[0], n[1]), (n[2], n[3]), (n[4], n[5]), (n[6], n[7])]
        service.route_batch(warm)
        service.distance_batch(warm)
        service.distance_estimate(n[2], n[3])
        ghost = "ghost"
        batch = {
            "first": [(ghost, n[0]), (n[2], n[3]), (n[1], "later")],
            "mid-batch": [(n[4], n[5]), (n[6], n[7]), (n[0], n[9]),
                          (ghost, n[1]), ("later", n[2])],
            "only-target": [(n[6], n[7]), (n[6], n[7]), (n[8], ghost),
                            (ghost, "later")],
            "self-pair": [(n[4], n[5]), (n[3], n[3]), (ghost, ghost)],
        }[case]

        def snapshot():
            return (service.stats.as_dict(),
                    [_cache_state(cache) for cache in
                     (service.route_cache, service.distance_cache)])

        before = snapshot()
        with pytest.raises(ValueError) as raised:
            getattr(service, f"{kind}_batch")(batch)
        assert str(raised.value) == f"unknown node {ghost!r}"
        assert snapshot() == before


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
        engine built is refused under a build intent, loaded without one.
        The header names the other engine through ``metadata`` (merged over
        the build parameters), which spares the slow ``simulate`` build."""
        from repro.serving import ArtifactError

        path = str(tmp_path / "simulate.artifact")
        RoutingService.build(service_graph, k=2, seed=4).save(
            path, metadata={"engine": "simulate"})
        with pytest.raises(ArtifactError, match="engine='simulate'"):
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

    def test_inapplicable_workload_flags_rejected(self):
        """Regression: --skew used to be silently ignored off-zipf."""
        argv = ["--graph", "grid:rows=4,cols=5", "--k", "2",
                "--queries", "50", "--workload", "uniform", "--skew", "1.5"]
        with pytest.raises(SystemExit):
            serve_main(argv)

    @pytest.mark.parametrize("workload", [
        WorkloadConfig(name="nope"),
        WorkloadConfig(name="uniform", params={"skew": 2.0}),
    ], ids=["unknown-name", "inapplicable-param"])
    def test_session_closes_backend_when_workload_fails(self, monkeypatch,
                                                        workload):
        """Regression: the backend was opened before the workload was
        made, so a workload that raised left it open (a live socket for
        ``--connect``)."""
        from repro.serving import ServingConfig, cli

        closes = []
        real_open = cli.open_service

        def spy(config):
            backend = real_open(config)
            real_close = backend.close

            def close():
                closes.append(config.workload.name)
                real_close()

            backend.close = close
            return backend

        monkeypatch.setattr(cli, "open_service", spy)
        config = ServingConfig(graph_spec="grid:rows=4,cols=4",
                               build=BuildConfig(k=2), workload=workload)
        with pytest.raises((ValueError, TypeError)):
            cli.run_serving_session(config)
        assert closes == [workload.name]

    def test_session_closes_backend_once_on_success(self, monkeypatch):
        from repro.serving import ServingConfig, cli

        closes = []
        real_open = cli.open_service

        def spy(config):
            backend = real_open(config)
            real_close = backend.close

            def close():
                closes.append(config.workload.name)
                real_close()

            backend.close = close
            return backend

        monkeypatch.setattr(cli, "open_service", spy)
        config = ServingConfig(graph_spec="grid:rows=4,cols=4",
                               build=BuildConfig(k=2),
                               workload=WorkloadConfig(num_queries=30))
        record, _, ok = cli.run_serving_session(config)
        assert ok and record["queries"] == 30
        assert closes == [config.workload.name]

    @pytest.mark.parametrize("queries, batch_size, batches", [
        (200, 25, 8), (201, 25, 9), (10, 64, 1),
    ], ids=["exact", "ragged-tail", "one-short-batch"])
    def test_session_chunks_the_stream_by_batch_size(self, monkeypatch,
                                                     queries, batch_size,
                                                     batches):
        """The driver cuts ``workload.pairs`` into ``batch_size`` chunks in
        stream order, the last one short; nothing is dropped or reordered."""
        from repro.serving import ServingConfig, cli, make_workload

        issued = []
        real_answer = cli.answer_batch

        def spy(target, kind, pairs):
            issued.append(list(pairs))
            return real_answer(target, kind, pairs)

        monkeypatch.setattr(cli, "answer_batch", spy)
        config = ServingConfig(graph_spec="grid:rows=4,cols=4",
                               build=BuildConfig(k=2), batch_size=batch_size,
                               workload=WorkloadConfig(name="zipf",
                                                       num_queries=queries))
        record, _, _ = cli.run_serving_session(config)
        assert record["latency_ms"]["batches"] == batches
        assert [len(chunk) for chunk in issued[:-1]] == \
            [batch_size] * (batches - 1)
        stream = make_workload("zipf", parse_graph_spec(config.graph_spec),
                               queries, seed=config.workload_seed())
        assert [pair for chunk in issued for pair in chunk] == stream.pairs

    @pytest.mark.parametrize("kind", ["route", "distance"])
    def test_session_issues_every_batch_with_the_config_kind(self,
                                                             monkeypatch,
                                                             kind):
        from repro.serving import ServingConfig, cli

        kinds = []
        real_answer = cli.answer_batch

        def spy(target, batch_kind, pairs):
            kinds.append(batch_kind)
            return real_answer(target, batch_kind, pairs)

        monkeypatch.setattr(cli, "answer_batch", spy)
        config = ServingConfig(graph_spec="grid:rows=4,cols=5",
                               build=BuildConfig(k=2), kind=kind,
                               batch_size=16,
                               workload=WorkloadConfig(num_queries=64))
        record, _, ok = cli.run_serving_session(config)
        assert kinds == [kind] * 4
        assert record["kind"] == kind
        # A connected grid: every route arrives and every estimate is
        # finite, so both kinds deliver the whole stream.
        assert ok and record["delivered"] == 64

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
