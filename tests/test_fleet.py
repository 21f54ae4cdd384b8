"""Elastic fleet: chaos recovery, epoch routing, scaling, failure semantics.

The chaos tests SIGKILL a live worker process mid-stream and assert the
fleet's one hard contract: every answer stays list-for-list identical to
single-process serving, with the death and the respawn visible in the
supervisor counters.  The unit tests pin the deterministic pieces — the
epoch table, the config validation, the typed degradation when the
respawn budget runs out — without needing worker processes at all.
"""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro import graphs
from repro.obs.metrics import make_registry
from repro.serving import fleet as fleet_module
from repro.serving import (
    BuildConfig,
    FleetConfig,
    FleetError,
    FleetSupervisor,
    HitRateWindow,
    RoutingEpoch,
    RoutingService,
    ServingConfig,
    ServingStats,
    ShardError,
    ShardedRoutingService,
    build_or_load_service,
    make_workload,
    stable_node_hash,
    write_shard_artifacts,
)
from repro.serving.worker import Worker
from helpers import watchdog


@pytest.fixture(scope="module")
def fleet_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def artifact_path(fleet_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fleet") / "hierarchy.artifact")
    build_or_load_service(path, graph=fleet_graph,
                          build=BuildConfig(k=3, seed=4))
    return path


@pytest.fixture(scope="module")
def reference_service(artifact_path):
    return RoutingService.load(artifact_path)


def open_fleet(artifact_path, num_workers=3, sub_artifacts=False, **knobs):
    knobs.setdefault("heartbeat_interval", 0.05)
    knobs.setdefault("respawn_limit", 5)
    sub_paths = None
    if sub_artifacts:
        sub_paths = write_shard_artifacts(artifact_path, num_workers)
    return ShardedRoutingService(
        artifact_path, num_workers=num_workers, partitioner="hash_source",
        sub_artifact_paths=sub_paths, fleet=FleetConfig(**knobs))


def kill_worker(service, worker_id):
    """SIGKILL one live worker process, as the OOM killer would."""
    process = service._workers[worker_id].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)
    assert not process.is_alive()


def wait_for(predicate, deadline=20.0, message="condition"):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestHitRateWindow:
    def test_small_windows_accumulate_instead_of_being_consumed(
            self, monkeypatch):
        """Regression: sub-threshold windows used to advance the hit/miss
        baselines, so with small batches the deltas never summed past
        ``MIN_WINDOW`` and the rebalancer stayed inert forever."""
        monkeypatch.setattr(fleet_module, "MIN_WINDOW", 100)
        window = HitRateWindow(2)
        # Cumulative worker counters grow a little at a time; each single
        # window is below MIN_WINDOW.
        assert window.rates([ServingStats(cache_hits=1, cache_misses=24),
                             ServingStats(cache_hits=24, cache_misses=1)]) \
            is None
        # Accumulated window is now 120 >= 100: rates over the whole delta.
        assert window.rates([ServingStats(cache_hits=2, cache_misses=58),
                             ServingStats(cache_hits=58, cache_misses=2)]) \
            == [2 / 60, 58 / 60]
        # The baseline advanced: the next window starts from zero again.
        assert window.rates([ServingStats(cache_hits=3, cache_misses=59),
                             ServingStats(cache_hits=59, cache_misses=3)]) \
            is None

    def test_default_threshold_is_min_window_probes(self):
        window = HitRateWindow(2)
        assert window.rates([ServingStats(cache_hits=30, cache_misses=1),
                             ServingStats(cache_hits=30, cache_misses=2)]) \
            is None
        assert window.rates([ServingStats(cache_hits=30, cache_misses=2),
                             ServingStats(cache_hits=30, cache_misses=2)]) \
            == [30 / 32, 30 / 32]

    def test_restarted_worker_counts_its_lifetime_totals(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "MIN_WINDOW", 1)
        window = HitRateWindow(2)
        assert window.rates([ServingStats(cache_hits=40, cache_misses=10),
                             ServingStats(cache_hits=10, cache_misses=40)]) \
            == [0.8, 0.2]
        # Shard 0's counters went backwards: its worker restarted, so the
        # window for it is everything the new worker has counted.
        assert window.rates([ServingStats(cache_hits=3, cache_misses=1),
                             ServingStats(cache_hits=20, cache_misses=40)]) \
            == [0.75, 1.0]

    def test_stats_for_another_shard_count_are_ignored(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "MIN_WINDOW", 1)
        window = HitRateWindow(2)
        assert window.rates([ServingStats(cache_hits=50, cache_misses=50)]) \
            is None
        window.resize(3)
        assert window.rates([ServingStats(cache_hits=1, cache_misses=1)] * 3) \
            == [0.5, 0.5, 0.5]


class TestPolicyConstants:
    """The fleet policy's fixed numbers, which no setting reaches."""

    @pytest.mark.parametrize("name, value", [
        ("HANG_TIMEOUT", 30.0),
        ("SCALE_UP_DEPTH", 0.75),
        ("SCALE_DOWN_DEPTH", 0.25),
        ("SUSTAIN_BEATS", 4),
        ("FEEDBACK_EVERY", 4),
        ("MIGRATE_FRACTION", 0.25),
        ("MIN_WINDOW", 64),
    ])
    def test_value(self, name, value):
        assert getattr(fleet_module, name) == value

    def test_values_are_coherent(self):
        assert fleet_module.HANG_TIMEOUT > 0
        assert 0 <= fleet_module.SCALE_DOWN_DEPTH \
            < fleet_module.SCALE_UP_DEPTH <= 1
        assert fleet_module.SUSTAIN_BEATS >= 1
        assert fleet_module.FEEDBACK_EVERY >= 1
        assert 0 < fleet_module.MIGRATE_FRACTION <= 1
        assert fleet_module.MIN_WINDOW >= 1


class TestRoutingEpoch:
    NODES = list(range(40)) + ["core0", "pod1-edge0-host2"]

    def test_base_slot_is_source_hash(self):
        table = RoutingEpoch(1, 4, {}, (0, 1, 2, 3))
        for node in self.NODES:
            assert table.slot_of(node) == stable_node_hash(node) % 4

    def test_override_redirects(self):
        moved = self.NODES[0]
        table = RoutingEpoch(2, 4, {moved: 3}, (0, 1, 2, 3))
        assert table.slot_of(moved) == 3
        untouched = self.NODES[1]
        assert table.slot_of(untouched) == stable_node_hash(untouched) % 4

    def test_dead_slot_falls_back_deterministically(self):
        full = RoutingEpoch(1, 4, {}, (0, 1, 2, 3))
        holed = RoutingEpoch(2, 4, {}, (0, 2, 3))
        for node in self.NODES:
            slot = holed.slot_of(node)
            assert slot in (0, 2, 3)
            if full.slot_of(node) != 1:
                # Slots that were never on the dead worker do not move.
                assert slot == full.slot_of(node)
            # Deterministic: same table, same answer.
            assert holed.slot_of(node) == slot

    def test_override_to_dead_slot_falls_back(self):
        table = RoutingEpoch(3, 4, {self.NODES[0]: 1}, (0, 2))
        assert table.slot_of(self.NODES[0]) in (0, 2)

    def test_empty_routable_raises_typed_error(self):
        table = RoutingEpoch(4, 4, {}, ())
        with pytest.raises(FleetError, match="no routable workers"):
            table.slot_of(self.NODES[0])


class TestConfigValidation:
    def test_fleet_config_defaults_valid(self):
        assert dataclasses.asdict(FleetConfig()) == {
            "min_workers": 1, "max_workers": None,
            "heartbeat_interval": 0.5, "respawn_limit": 3}

    @pytest.mark.parametrize("bad", [
        {"min_workers": 0},
        {"max_workers": 1, "min_workers": 2},
        {"heartbeat_interval": 0.0},
        {"respawn_limit": -1},
    ])
    def test_fleet_config_rejects(self, bad):
        with pytest.raises(ValueError):
            FleetConfig(**bad)

    def test_worker_bounds_default_to_the_initial_count(self):
        assert FleetConfig().worker_bounds(3) == (1, 3)
        assert FleetConfig(min_workers=2, max_workers=6).worker_bounds(3) \
            == (2, 6)

    def test_serving_config_sets_every_fleet_field(self):
        config = ServingConfig(workers=3, fleet=True, min_workers=2,
                               max_workers=5, heartbeat_interval=0.2,
                               respawn_limit=7)
        assert config.fleet_config() == FleetConfig(
            min_workers=2, max_workers=5, heartbeat_interval=0.2,
            respawn_limit=7)

    def test_serving_config_fleet_needs_workers(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            ServingConfig(workers=1, fleet=True)

    def test_serving_config_bounds_need_fleet(self):
        with pytest.raises(ValueError, match="only apply with"):
            ServingConfig(workers=2, min_workers=1)
        with pytest.raises(ValueError, match="only apply with"):
            ServingConfig(workers=2, max_workers=4)

    def test_serving_config_bounds_validated(self):
        with pytest.raises(ValueError, match="min_workers"):
            ServingConfig(workers=2, fleet=True, min_workers=3)
        with pytest.raises(ValueError, match="max_workers"):
            ServingConfig(workers=4, fleet=True, min_workers=2,
                          max_workers=1)

    def test_sharded_rejects_fleet_misuse(self, artifact_path):
        with pytest.raises(ValueError, match="num_workers >= 2"):
            ShardedRoutingService(artifact_path, num_workers=1,
                                  partitioner="hash_source",
                                  fleet=FleetConfig())
        with pytest.raises(ValueError, match="partition by source"):
            ShardedRoutingService(artifact_path, num_workers=2,
                                  partitioner="round_robin",
                                  fleet=FleetConfig())
        with pytest.raises(ValueError, match="FleetConfig or None"):
            ShardedRoutingService(artifact_path, num_workers=2,
                                  partitioner="hash_source", fleet=True)

    @pytest.mark.parametrize("fleet", ["yes", {"min_workers": 1}])
    def test_sharded_fleet_takes_only_a_config(self, artifact_path, fleet):
        with pytest.raises(ValueError, match="FleetConfig or None"):
            ShardedRoutingService(artifact_path, num_workers=2,
                                  partitioner="hash_source", fleet=fleet)

    def test_min_workers_capped_by_initial_count(self, artifact_path):
        with pytest.raises(ValueError, match="initial"):
            ShardedRoutingService(artifact_path, num_workers=2,
                                  partitioner="hash_source",
                                  fleet=FleetConfig(min_workers=3,
                                                    max_workers=5))


class TestPendingRequestIds:
    """Satellite: a latched ShardError names the in-flight batches."""

    def test_latched_error_carries_pending_request_ids(self, fleet_graph,
                                                       artifact_path):
        sharded = ShardedRoutingService(artifact_path, num_workers=2).start()
        nodes = fleet_graph.nodes()
        with pytest.raises(ShardError) as excinfo:
            sharded.route_batch([(nodes[0], "no-such-node")])
        assert excinfo.value.pending_request_ids != ()
        assert all(isinstance(rid, int)
                   for rid in excinfo.value.pending_request_ids)

    def test_default_is_empty(self):
        assert ShardError("boom").pending_request_ids == ()


class TestChaosRecovery:
    @pytest.mark.parametrize("shape", ["uniform", "zipf", "bursty"])
    def test_kill_mid_stream_keeps_answers_identical(self, fleet_graph,
                                                     artifact_path,
                                                     reference_service,
                                                     shape):
        workload = make_workload(shape, fleet_graph, 240, seed=9)
        expected = reference_service.route_batch(workload.pairs)
        batches = [workload.pairs[i:i + 40]
                   for i in range(0, len(workload.pairs), 40)]
        with open_fleet(artifact_path, num_workers=3) as sharded:
            routes = []
            for number, batch in enumerate(batches):
                if number == 2:
                    kill_worker(sharded, 1)
                routes.extend(sharded.route_batch(batch))
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="respawn counter")
            status = sharded._fleet.status()
        assert [t.path for t in routes] == [t.path for t in expected]
        assert [t.weight for t in routes] == [t.weight for t in expected]
        assert status["worker_deaths"] >= 1
        assert status["respawns"] >= 1
        assert status["epoch"] >= 2  # death + ready each publish

    def test_kill_with_sub_artifacts_uses_cover(self, fleet_graph,
                                                artifact_path,
                                                reference_service):
        """Sliced workers answer a dead sibling's sources from the cover."""
        workload = make_workload("zipf", fleet_graph, 200, seed=5)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3,
                        sub_artifacts=True) as sharded:
            first = sharded.distance_batch(workload.pairs[:100])
            kill_worker(sharded, 0)
            second = sharded.distance_batch(workload.pairs[100:])
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="respawn counter")
            merged = sharded.merged_stats()
        assert first + second == expected
        assert merged.extra["fleet"]["worker_deaths"] >= 1
        # Siblings answered out-of-slice queries through the cover path.
        assert merged.extra.get("cover_queries", 0) > 0

    def test_respawned_slice_regenerated_when_file_vanishes(
            self, fleet_graph, artifact_path, reference_service):
        workload = make_workload("uniform", fleet_graph, 120, seed=3)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=2,
                        sub_artifacts=True) as sharded:
            os.remove(sharded.sub_artifact_paths[1])
            kill_worker(sharded, 1)
            answers = sharded.distance_batch(workload.pairs)
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="respawn after slice regeneration")
            assert os.path.exists(sharded.sub_artifact_paths[1])
        assert answers == expected

    @watchdog(60.0)
    def test_worker_killed_while_warming_is_requeued(self, fleet_graph,
                                                     artifact_path,
                                                     reference_service,
                                                     monkeypatch):
        """A respawn that dies loading its artifact (OOM, SIGKILL) says
        neither ``ready`` nor ``failed``.  Nobody looked at warming slots,
        so the slot stayed ``warming`` forever: no retry, scaling blocked."""
        import repro.serving.worker as worker_mod

        class DiesLoading:
            @staticmethod
            def load(*args, **kwargs):
                os.kill(os.getpid(), signal.SIGKILL)

        workload = make_workload("zipf", fleet_graph, 200, seed=13)
        expected = reference_service.route_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3) as sharded:
            assert sharded._ctx.get_start_method() == "fork"
            real_spawn, doomed = sharded._spawn, []

            def spawn(worker_id):
                if doomed:
                    return real_spawn(worker_id)
                # The forked child inherits the patched name and kills
                # itself where the artifact load would start.
                with monkeypatch.context() as patch:
                    patch.setattr(worker_mod, "RoutingService", DiesLoading)
                    doomed.append(real_spawn(worker_id))
                return doomed[0]

            sharded._spawn = spawn
            kill_worker(sharded, 1)
            routes = []
            for start in range(0, len(workload.pairs), 20):
                routes.extend(
                    sharded.route_batch(workload.pairs[start:start + 20]))
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="the retried respawn turning ready")
            status = sharded._fleet.status()
            assert len(doomed) == 1 and not doomed[0].is_alive()
            assert sharded._fleet._respawns_started == 2
        assert routes == expected
        # Not the exact map: on a loaded host the autoscaler may by now
        # have parked an idle sibling (min_workers is 1 here).
        assert status["workers"]["1"] == "alive"
        assert "warming" not in status["workers"].values()
        assert status["worker_deaths"] == 1     # the warm-up death is a
        assert status["respawns"] == 1          # failed respawn, not a death

    def test_budget_exhaustion_degrades_to_fleet_error(self, fleet_graph,
                                                       artifact_path):
        nodes = fleet_graph.nodes()
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 1) % len(nodes)])
                 for i in range(40)]
        with open_fleet(artifact_path, num_workers=2,
                        respawn_limit=0) as sharded:
            sharded.route_batch(pairs)  # healthy first
            kill_worker(sharded, 0)
            deadline = time.monotonic() + 20.0
            with pytest.raises(FleetError, match="respawn budget"):
                while time.monotonic() < deadline:
                    sharded.route_batch(pairs)
            assert not sharded.is_running

    def test_fleet_error_is_a_shard_error(self):
        error = FleetError("out of budget")
        assert isinstance(error, ShardError)
        assert error.pending_request_ids == ()

    def test_telemetry_counters_exported(self, fleet_graph, artifact_path):
        workload = make_workload("uniform", fleet_graph, 120, seed=11)
        sub_paths = write_shard_artifacts(artifact_path, 2)
        with ShardedRoutingService(
                artifact_path, num_workers=2, partitioner="hash_source",
                sub_artifact_paths=sub_paths, telemetry=True,
                fleet=FleetConfig(heartbeat_interval=0.05,
                                  respawn_limit=5)) as sharded:
            sharded.route_batch(workload.pairs[:60])
            kill_worker(sharded, 1)
            sharded.route_batch(workload.pairs[60:])
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="respawn counter")
            merged = sharded.merged_stats()
        telemetry = merged.extra["telemetry"]
        assert telemetry["fleet_worker_deaths"]["value"] >= 1
        assert telemetry["fleet_respawns"]["value"] >= 1
        assert telemetry["respawn"]["type"] == "histogram"
        assert telemetry["respawn"]["count"] >= 1
        assert telemetry["fleet_queue_depth"]["type"] == "gauge"


class TestElasticScaling:
    def test_scale_down_then_up_preserves_answers(self, fleet_graph,
                                                  artifact_path,
                                                  reference_service):
        """Drive the scaling transitions directly (deterministically)."""
        workload = make_workload("uniform", fleet_graph, 150, seed=13)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3,
                        min_workers=1, max_workers=3) as sharded:
            fleet = sharded._fleet
            first = sharded.distance_batch(workload.pairs[:50])

            fleet._scale_down(sharded)
            states = [h.state for h in sharded._workers]
            assert states.count("parked") == 1
            assert fleet.scale_downs == 1
            wait_for(lambda: sharded._workers[2].final_stats is not None,
                     message="parked worker's bye")
            second = sharded.distance_batch(workload.pairs[50:100])

            fleet._scale_up(sharded)
            fleet._run_respawns(sharded)
            wait_for(lambda: fleet.scale_ups >= 1, message="unpark")
            assert all(h.state == "alive" for h in sharded._workers)
            third = sharded.distance_batch(workload.pairs[100:])
            status = fleet.status()
        assert first + second + third == expected
        assert status["scale_downs"] == 1 and status["scale_ups"] == 1

    @watchdog(60.0)
    def test_parked_worker_killed_before_its_bye_is_reported(
            self, fleet_graph, artifact_path):
        """Its final snapshot is lost; the merged totals used to
        under-count without saying so."""
        workload = make_workload("uniform", fleet_graph, 150, seed=13)
        sharded = open_fleet(artifact_path, num_workers=3,
                             min_workers=1, max_workers=3)
        with sharded:
            sharded.distance_batch(workload.pairs)
            before = sharded.worker_stats()
            victim = sharded._workers[2]
            # Stopped first, so the shutdown request lands in its task
            # pipe and it cannot say bye.
            os.kill(victim.process.pid, signal.SIGSTOP)
            sharded._fleet._scale_down(sharded)
            assert victim.state == "parked"
            kill_worker(sharded, 2)
        merged = sharded.merged_stats()
        assert victim.final_stats is None
        assert merged.extra["undrained_workers"] == [2]
        assert before[2].queries > 0
        assert merged.queries == before[0].queries + before[1].queries
        assert merged.extra["merged_from"] == 2

    def test_dynamic_slot_beyond_base_count(self, fleet_graph,
                                            artifact_path,
                                            reference_service):
        """A scale-up past the initial count spawns a fresh dynamic slot."""
        workload = make_workload("zipf", fleet_graph, 150, seed=21)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=2,
                        max_workers=3) as sharded:
            fleet = sharded._fleet
            first = sharded.distance_batch(workload.pairs[:75])
            fleet._scale_up(sharded)
            fleet._run_respawns(sharded)
            wait_for(lambda: fleet.scale_ups >= 1, message="dynamic spawn")
            assert len(sharded._workers) == 3
            assert sharded._workers[2].state == "alive"
            second = sharded.distance_batch(workload.pairs[75:])
            status = fleet.status()
        assert first + second == expected
        # The fresh slot was seeded with cold sources via overrides.
        assert status["overrides"] >= 0
        assert status["routable"] == [0, 1, 2]


class StubFrontEnd:
    """Everything a :class:`FleetSupervisor` may know about its front-end
    — the members below, no more — with no process behind any slot.  Like
    the real one it updates the slot first, then tells the supervisor."""

    def __init__(self, num_workers=2, **knobs):
        self.num_workers = num_workers
        self.pipeline_depth = 8
        self.lock = threading.RLock()
        self.workers = [Worker(i, state="alive") for i in range(num_workers)]
        self.closed = False
        self.batches_in_flight = 0
        self.metrics = make_registry(False)
        self.sub_artifact_paths = None
        self.events = []
        self.fleet = FleetSupervisor(self, FleetConfig(
            heartbeat_interval=60.0, **knobs))
        self.fleet.start()      # publishes the initial table ...
        self.fleet.stop()       # ... and no beat ever runs by itself

    @property
    def serving(self):
        return [w for w in self.workers if w.state == "alive"]

    def reserve_slot(self):
        self.workers.append(Worker(len(self.workers)))
        self.events.append(("reserve", len(self.workers) - 1))
        return len(self.workers) - 1

    def install_worker(self, worker_id):
        self.workers[worker_id].state = "warming"
        self.events.append(("install", worker_id))
        return True

    def park_worker(self, worker):
        self.events.append(("park", worker.worker_id,
                            self.fleet.table.routable))
        worker.state = "parked"

    def die(self, worker_id):
        self.workers[worker_id].state = "dead"
        return self.fleet.worker_died(worker_id, "stubbed out")

    def warm(self, worker_id, failure=None):
        if failure is not None:
            self.workers[worker_id].state = "dead"
            return self.fleet.worker_failed(worker_id, failure)
        self.workers[worker_id].state = "alive"
        return self.fleet.worker_ready(worker_id)

    def installs(self):
        self.fleet._run_respawns(self)
        done = [event[1] for event in self.events if event[0] == "install"]
        self.events = [e for e in self.events if e[0] != "install"]
        return done


class TestSupervisorPolicy:
    """The supervisor is policy only, so its decisions are testable
    against a stub front-end — no worker process is ever started."""

    def test_death_republishes_and_queues_a_respawn(self):
        front = StubFrontEnd(3)
        assert front.fleet.table.routable == (0, 1, 2)
        assert front.die(1) is None
        assert front.fleet.table.routable == (0, 2)
        assert front.installs() == [1]
        front.warm(1)
        assert front.fleet.table.routable == (0, 1, 2)
        status = front.fleet.status()
        assert (status["worker_deaths"], status["respawns"]) == (1, 1)
        assert status["workers"] == {"0": "alive", "1": "alive",
                                     "2": "alive"}

    def test_budget_exhaustion_returns_the_error_to_latch(self):
        front = StubFrontEnd(3, respawn_limit=1)
        assert front.die(0) is None
        error = front.die(1)
        assert isinstance(error, FleetError)
        assert "respawn budget" in str(error) and "worker 1" in str(error)
        assert front.installs() == [0]      # the second was never queued

    def test_failed_respawn_requeues_within_the_budget(self):
        front = StubFrontEnd(2, respawn_limit=2)
        assert front.die(0) is None
        assert front.installs() == [0]
        assert front.warm(0, failure="ArtifactError: gone") is None
        assert front.installs() == [0]
        error = front.warm(0, failure="ArtifactError: gone")
        assert isinstance(error, FleetError)
        assert "respawn budget" in str(error) and "gone" in str(error)

    def test_failed_scale_up_is_dropped(self):
        front = StubFrontEnd(2, max_workers=3, respawn_limit=0)
        front.fleet._scale_up(front)
        assert front.installs() == [2]
        assert front.warm(2, failure="ArtifactError: gone") is None
        assert front.installs() == []
        assert front.fleet.status()["scale_ups"] == 0

    def test_scale_up_prefers_a_parked_slot(self):
        front = StubFrontEnd(3, max_workers=4)
        front.workers[1].state = "parked"
        front.fleet._scale_up(front)
        assert front.installs() == [1] and front.events == []
        front.warm(1)
        assert front.fleet.status()["scale_ups"] == 1
        assert front.fleet.status()["respawns"] == 0
        front.fleet._scale_up(front)        # nothing parked: a fresh slot
        assert front.events == [("reserve", 3)]
        assert front.installs() == [3]

    def test_scale_down_publishes_the_exclusion_before_parking(self):
        front = StubFrontEnd(3)
        front.fleet._scale_down(front)
        assert front.events == [("park", 2, (0, 1))]
        assert front.fleet.status()["scale_downs"] == 1

    def test_scale_down_respects_the_floor(self):
        front = StubFrontEnd(2, min_workers=2)
        front.fleet._scale_down(front)
        assert front.events == []

    def test_dynamic_slot_is_seeded_with_its_fair_share(self):
        """A third worker joining two takes a third of the observed
        sources (the coldest); the new slot used to be counted twice,
        which made it a quarter."""
        front = StubFrontEnd(2, max_workers=3)
        sources = list(range(12))
        front.fleet.partition([(s, 0) for s in sources for _ in range(s + 1)])
        front.fleet._scale_up(front)
        assert front.installs() == [2]
        front.warm(2)
        table = front.fleet.table
        assert table.routable == (0, 1, 2)
        assert sorted(table.overrides) == sources[:4]   # 12 // 3, coldest
        assert set(table.overrides.values()) == {2}
        assert front.fleet.status()["migrated_pairs"] == 4

    def test_hung_worker_is_stopped_and_reported(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 0.01)
        front = StubFrontEnd(2)
        reported = []
        front.worker_died = lambda worker, why: reported.append(
            (worker.worker_id, why))
        front.fleet.pong(1)
        time.sleep(0.05)
        front.fleet.pong(0)
        front.fleet._check_hangs(front)
        assert [worker_id for worker_id, _ in reported] == [1]
        assert "hung" in reported[0][1]


class TestRoutingEpochAssign:
    def test_assign_groups_by_slot_in_stream_order(self):
        table = RoutingEpoch(1, 3, {}, (0, 1, 2))
        items = list(enumerate((s, s + 1) for s in range(20)))
        assignments = table.assign(items)
        assert [slot for slot, _ in assignments] == sorted(
            {table.slot_of(s) for s in range(20)})
        for slot, shard in assignments:
            assert all(table.slot_of(pair[0]) == slot for _, pair in shard)
            assert [i for i, _ in shard] == sorted(i for i, _ in shard)
        assert sorted(item for _, shard in assignments
                      for item in shard) == items
