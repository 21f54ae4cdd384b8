"""ShardedRoutingService: the round-robin table, answer identity, stats
merging, lifecycle."""

import pytest

from repro import graphs
from repro.serving import (
    BuildConfig,
    RoutingEpoch,
    RoutingService,
    ServingConfig,
    ServingStats,
    ShardError,
    ShardedRoutingService,
    WORKLOAD_NAMES,
    build_or_load_service,
    make_workload,
    open_service,
)


@pytest.fixture(scope="module")
def shard_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def artifact_path(shard_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("sharded") / "hierarchy.artifact")
    build_or_load_service(path, graph=shard_graph,
                          build=BuildConfig(k=3, seed=4))
    return path


@pytest.fixture(scope="module")
def reference_service(artifact_path):
    return RoutingService.load(artifact_path)


class TestServingStatsMerge:
    def test_counters_sum(self):
        a = ServingStats(queries=10, route_queries=7, distance_queries=3,
                         batches=2, batched_queries=9, cache_hits=4,
                         cache_misses=6)
        b = ServingStats(queries=5, route_queries=5, batches=1,
                         batched_queries=5, cache_hits=2, cache_misses=3)
        merged = ServingStats.merge([a, b])
        assert merged.queries == 15
        assert merged.route_queries == 12
        assert merged.distance_queries == 3
        assert merged.batches == 3
        assert merged.batched_queries == 14
        assert (merged.cache_hits, merged.cache_misses) == (6, 9)
        assert merged.cache_hit_rate == 6 / 15
        assert merged.extra["merged_from"] == 2

    def test_counters_tuple_names_every_field(self):
        """``as_dict``/``from_dict``/``merge`` read ``COUNTERS``; a field
        missing from it would be dropped."""
        import dataclasses
        names = [f.name for f in dataclasses.fields(ServingStats)]
        assert names == [*ServingStats.COUNTERS, *ServingStats.OPTIONALS,
                         "extra"]
        stats = ServingStats(**{name: i + 1 for i, name
                                in enumerate(ServingStats.COUNTERS)})
        assert ServingStats.from_dict(stats.as_dict()) == stats
        doubled = stats.combine(stats)
        assert all(getattr(doubled, name) == 2 * getattr(stats, name)
                   for name in ServingStats.COUNTERS)

    def test_optional_fields(self):
        a = ServingStats(load_seconds=1.0, artifact_bytes=100)
        b = ServingStats(load_seconds=2.0, artifact_bytes=100)
        c = ServingStats()
        merged = ServingStats.merge([a, b, c])
        assert merged.load_seconds == 3.0       # total wall clock paid
        assert merged.artifact_bytes == 100     # same artifact, not 200
        assert merged.build_seconds is None
        assert ServingStats.merge([]).load_seconds is None

    def test_extra_kept_only_on_agreement(self):
        a = ServingStats(extra={"n": 30, "worker_id": 0})
        b = ServingStats(extra={"n": 30, "worker_id": 1})
        merged = a.combine(b)
        assert merged.extra["n"] == 30
        assert "worker_id" not in merged.extra


def round_robin_split(pairs, num_shards):
    """The split the plain front-end made before both modes shared one
    table (the ``round_robin`` partitioner): item ``i`` to shard ``i %
    num_shards``, empty shards left out."""
    shards = [[] for _ in range(num_shards)]
    for index, pair in enumerate(pairs):
        shards[index % num_shards].append((index, pair))
    return [(slot, shard) for slot, shard in enumerate(shards) if shard]


def loads_of(assignments):
    return {slot: len(shard) for slot, shard in assignments}


class TestRoundRobinTable:
    """One table scatters for the plain and the fleet front-end alike."""

    PAIRS = [(i % 7, (3 * i + 1) % 11) for i in range(61)]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("size", [1, 2, 5, 32, 61])
    def test_all_live_is_the_round_robin_split(self, workers, size):
        pairs = self.PAIRS[:size]
        table = RoutingEpoch(0, workers, range(workers))
        assert table.assign(enumerate(pairs)) \
            == round_robin_split(pairs, workers)
        assert [table.slot_of(i) for i in range(size)] \
            == [i % workers for i in range(size)]

    @pytest.mark.parametrize("workers, dead", [(2, 0), (3, 1), (4, 0),
                                               (4, 2), (4, 3)])
    def test_dead_slot_gets_nothing_and_loads_stay_level(self, workers,
                                                         dead):
        live = [slot for slot in range(workers) if slot != dead]
        table = RoutingEpoch(1, workers, live)
        for size in range(1, len(self.PAIRS) + 1):
            loads = loads_of(table.assign(enumerate(self.PAIRS[:size])))
            assert dead not in loads
            counts = [loads.get(slot, 0) for slot in live]
            assert sum(counts) == size
            assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("workers, dead", [(2, 1), (3, 0), (3, 2),
                                               (4, 1)])
    def test_rescatter_follows_the_same_rule(self, workers, dead):
        full = RoutingEpoch(1, workers, range(workers))
        holed = RoutingEpoch(2, workers, [slot for slot in range(workers)
                                          if slot != dead])
        orphaned = dict(full.assign(enumerate(self.PAIRS)))[dead]
        moved = holed.assign(orphaned)
        assert dead not in loads_of(moved)
        for slot, shard in moved:
            assert all(holed.slot_of(index) == slot for index, _ in shard)
            assert [i for i, _ in shard] == sorted(i for i, _ in shard)
        assert sorted(item for _, shard in moved for item in shard) \
            == orphaned

    def test_workers_answer_their_round_robin_share(self, shard_graph,
                                                    artifact_path):
        """The plain front-end scatters through the table: worker ``w``
        answers exactly the batch positions ``i % 3 == w``."""
        pairs = make_workload("zipf", shard_graph, 40, seed=3).pairs
        with ShardedRoutingService(artifact_path, num_workers=3) as sharded:
            assert sharded.table.routable == (0, 1, 2)
            sharded.distance_batch(pairs)
            sharded.route_batch(pairs[:7])
            per_worker = [stats.queries for stats in sharded.worker_stats()]
        assert per_worker == [len(range(w, 40, 3)) + len(range(w, 7, 3))
                              for w in range(3)]


class TestShardedIdentity:
    @pytest.mark.parametrize("shape", WORKLOAD_NAMES)
    def test_matches_single_process_per_workload(self, shard_graph,
                                                 artifact_path,
                                                 reference_service, shape):
        workload = make_workload(shape, shard_graph, 150, seed=9)
        expected_routes = reference_service.route_batch(workload.pairs)
        expected_dists = reference_service.distance_batch(workload.pairs)
        with ShardedRoutingService(artifact_path, num_workers=2) as sharded:
            routes = sharded.route_batch(workload.pairs)
            dists = sharded.distance_batch(workload.pairs)
        assert [t.path for t in routes] == [t.path for t in expected_routes]
        assert [t.weight for t in routes] == [t.weight
                                              for t in expected_routes]
        assert dists == expected_dists

    def test_order_preserved_with_duplicates(self, shard_graph, artifact_path,
                                             reference_service):
        nodes = shard_graph.nodes()
        pairs = [(nodes[0], nodes[5]), (nodes[3], nodes[8]),
                 (nodes[0], nodes[5]), (nodes[9], nodes[2]),
                 (nodes[3], nodes[8]), (nodes[0], nodes[5])] * 5
        expected = reference_service.distance_batch(pairs)
        with ShardedRoutingService(artifact_path, num_workers=3) as sharded:
            assert sharded.distance_batch(pairs) == expected
            assert sharded.route_batch([]) == []


class TestMergedStats:
    def test_totals_equal_sum_of_worker_stats(self, shard_graph,
                                              artifact_path):
        workload = make_workload("zipf", shard_graph, 200, seed=6)
        with ShardedRoutingService(artifact_path, num_workers=2) as sharded:
            sharded.route_batch(workload.pairs)
            sharded.distance_batch(workload.pairs)
            per_worker = sharded.worker_stats()
            merged = sharded.merged_stats()
        assert len(per_worker) == 2
        for attr in ("queries", "route_queries", "distance_queries",
                     "batches", "batched_queries", "cache_hits",
                     "cache_misses"):
            assert getattr(merged, attr) == sum(getattr(stats, attr)
                                                for stats in per_worker), attr
        assert merged.queries == 2 * len(workload)
        assert merged.extra["workers"] == 2
        assert merged.extra["scatter_batches"] == 2

    def test_final_stats_survive_close(self, shard_graph, artifact_path):
        workload = make_workload("uniform", shard_graph, 60, seed=2)
        sharded = ShardedRoutingService(artifact_path, num_workers=2)
        with sharded:
            sharded.route_batch(workload.pairs)
        # Drained on close: merged_stats now reads the final snapshots.
        merged = sharded.merged_stats()
        assert merged.queries == len(workload)
        assert merged.extra["merged_from"] == 2

    def test_worker_lost_during_the_drain_is_reported(self, shard_graph,
                                                      artifact_path,
                                                      monkeypatch):
        """A worker that dies between its shutdown request and its ``bye``
        takes its final snapshot with it; the merged totals say they are
        incomplete instead of silently under-counting."""
        import os
        import signal

        from repro.serving.worker import Worker

        real_shutdown = Worker.shutdown

        def shutdown(worker):
            sent = real_shutdown(worker)
            if worker.worker_id == 2:
                os.kill(worker.process.pid, signal.SIGKILL)
            return sent

        workload = make_workload("uniform", shard_graph, 150, seed=13)
        sharded = ShardedRoutingService(artifact_path, num_workers=3).start()
        sharded.distance_batch(workload.pairs)
        before = sharded.worker_stats()
        # Stopped, so it cannot read the shutdown request before the kill.
        os.kill(sharded._workers[2].process.pid, signal.SIGSTOP)
        monkeypatch.setattr(Worker, "shutdown", shutdown)
        sharded.close(timeout=1.0)
        merged = sharded.merged_stats()
        assert merged.extra["undrained_workers"] == [2]
        assert before[2].queries > 0
        assert merged.queries == before[0].queries + before[1].queries
        assert merged.extra["merged_from"] == 2


class TestFullArtifactWorkers:
    def test_every_worker_maps_the_full_artifact(self, shard_graph,
                                                 artifact_path):
        """No worker holds a slice: each maps every table byte, so the
        merged (additive) count is workers x the artifact."""
        from repro.serving import artifact_info

        payload = artifact_info(artifact_path).payload_bytes
        pairs = make_workload("uniform", shard_graph, 30, seed=8).pairs
        with ShardedRoutingService(artifact_path, num_workers=3) as sharded:
            sharded.distance_batch(pairs)
            per_worker = sharded.worker_stats()
            merged = sharded.merged_stats()
        assert [s.extra["loaded_table_bytes"] for s in per_worker] \
            == [payload] * 3
        assert merged.extra["loaded_table_bytes"] == 3 * payload
        for key in ("partitioner", "sub_artifacts", "sub_artifact_shard",
                    "cover_queries"):
            assert key not in merged.extra


class TestLifecycle:
    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            ShardedRoutingService(str(tmp_path / "absent.artifact"))

    def test_bad_parameters_rejected(self, artifact_path):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedRoutingService(artifact_path, num_workers=0)

    def test_build_or_load_creates_artifact(self, shard_graph, tmp_path):
        path = str(tmp_path / "fresh.artifact")
        sharded = open_service(
            ServingConfig(artifact_path=path, workers=2,
                          build=BuildConfig(k=2, seed=1)),
            graph=shard_graph)
        try:
            assert sharded.stats.build_seconds is not None
            assert sharded.graph is shard_graph
            import os
            assert os.path.exists(path)
        finally:
            sharded.close()

    def test_workers_shut_down_on_query_exception(self, shard_graph,
                                                  artifact_path):
        sharded = ShardedRoutingService(artifact_path, num_workers=2).start()
        processes = [handle.process for handle in sharded._workers]
        assert all(process.is_alive() for process in processes)
        with pytest.raises(ShardError, match="unknown node") as excinfo:
            sharded.route_batch([(shard_graph.nodes()[0], "no-such-node")])
        # The remote traceback travels with the error for debuggability.
        assert "Traceback" in excinfo.value.worker_traceback
        # Fail-stop: the exception shuts the whole front-end down.
        for process in processes:
            process.join(timeout=10.0)
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(ShardError, match="closed"):
            sharded.route_batch([(0, 1)])

    def test_close_is_idempotent_and_kills_workers(self, artifact_path):
        sharded = ShardedRoutingService(artifact_path, num_workers=2).start()
        processes = [handle.process for handle in sharded._workers]
        first = sharded.close()
        second = sharded.close()
        assert len(first) == 2 and first == second
        assert not any(process.is_alive() for process in processes)


class TestWorkerEndpoint:
    """The parent-side endpoint, driven over real pipes with no process."""

    def test_reply_written_before_death_precedes_the_eof(self):
        """The death signal is the result pipe's EOF, and EOF is only seen
        by a read *after* the one that parsed the worker's last frames —
        so a reply written just before dying is handed out first."""
        import collections
        import multiprocessing
        import os

        from repro.serving.worker import Worker, _FramedPipe, _poll_channels

        reader, writer = multiprocessing.Pipe(duplex=False)
        worker = Worker(0, process=None, results=_FramedPipe(reader),
                        state="alive")
        last_words = _FramedPipe(writer)
        last_words.put(("ok", 0, 7, [(0, 1.5)]))
        # ... and a second frame cut short by the kill: 100 bytes promised
        os.write(writer.fileno(), (100).to_bytes(4, "big") + b"torn")
        last_words.close()
        backlog = collections.deque()
        assert _poll_channels([worker.results], backlog, 1.0) \
            == ("ok", 0, 7, [(0, 1.5)])
        assert worker.lost(probe=False) is None
        assert _poll_channels([worker.results], backlog, 1.0) is None
        assert "EOF" in worker.lost(probe=False)
        worker.close()

    def test_processless_endpoint_tears_down_quietly(self):
        """An endpoint with no process and no pipes behind it (the fleet
        policy's tests use such slots) retires, stops and closes as a
        no-op."""
        from repro.serving.worker import Worker

        slot = Worker(5)
        assert (slot.state, slot.process, slot.is_alive()) \
            == ("dead", None, False)
        slot.retire()
        slot.stop()
        slot.close()
