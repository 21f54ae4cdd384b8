"""Fleet recovery: chaos kills, epoch routing, respawns, failure semantics.

The chaos tests SIGKILL a live worker process mid-stream and assert the
fleet's one hard contract: every answer stays list-for-list identical to
single-process serving, with the death and the respawn visible in the
supervisor counters.  The unit tests pin the deterministic pieces — the
epoch table, the config validation, the typed degradation when the
respawn budget runs out — without needing worker processes at all.  The
fleet never changes its worker count: an idle fleet keeps every worker.
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
    RoutingEpoch,
    RoutingService,
    ServingConfig,
    ServingStats,
    ShardError,
    ShardedRoutingService,
    build_or_load_service,
    make_workload,
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


def open_fleet(artifact_path, num_workers=3, **knobs):
    knobs.setdefault("heartbeat_interval", 0.05)
    knobs.setdefault("respawn_limit", 5)
    return ShardedRoutingService(
        artifact_path, num_workers=num_workers, fleet=FleetConfig(**knobs))


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


class TestPolicyConstants:
    """The fleet policy's one fixed number, which no setting reaches."""

    @pytest.mark.parametrize("name, value", [
        ("HANG_TIMEOUT", 30.0),
    ])
    def test_value(self, name, value):
        assert getattr(fleet_module, name) == value

    def test_values_are_coherent(self):
        # A hang is many missed beats at the default cadence, never one
        # late pong.
        assert fleet_module.HANG_TIMEOUT \
            > 10 * FleetConfig().heartbeat_interval


class TestRoutingEpoch:
    """The fleet publishes the front-end's one table: round-robin over the
    live slots, by batch position, never by what a pair holds."""

    def test_base_slot_is_round_robin(self):
        table = RoutingEpoch(1, 4, (0, 1, 2, 3))
        for index in range(40):
            assert table.slot_of(index) == index % 4

    def test_dead_slot_falls_back_deterministically(self):
        holed = RoutingEpoch(2, 4, (0, 2, 3))
        for index in range(40):
            slot = holed.slot_of(index)
            assert slot == (0, 2, 3)[index % 3]
            # Deterministic: same table, same answer.
            assert holed.slot_of(index) == slot

    def test_dead_slot_is_shared_by_its_siblings(self):
        """A dead slot's positions spread over every survivor instead of
        piling onto one of them."""
        holed = RoutingEpoch(2, 4, (0, 2, 3))
        orphans = [index for index in range(400) if index % 4 == 1]
        assert {holed.slot_of(index) for index in orphans} == {0, 2, 3}

    def test_routable_is_kept_sorted(self):
        """The rule indexes ``routable``, so its order is the table's, not
        the order the slots were listed in."""
        table = RoutingEpoch(1, 3, (2, 0, 1))
        assert table.routable == (0, 1, 2)
        assert repr(table) == \
            "RoutingEpoch(epoch=1, base_slots=3, routable=[0, 1, 2])"

    def test_empty_routable_raises_typed_error(self):
        table = RoutingEpoch(4, 4, ())
        with pytest.raises(ShardError, match="no routable workers"):
            table.slot_of(0)


class TestConfigValidation:
    def test_fleet_config_defaults_valid(self):
        assert dataclasses.asdict(FleetConfig()) == {
            "heartbeat_interval": 0.5, "respawn_limit": 3}

    @pytest.mark.parametrize("bad", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_interval": -0.5},
        {"respawn_limit": -1},
    ])
    def test_fleet_config_rejects(self, bad):
        with pytest.raises(ValueError):
            FleetConfig(**bad)

    def test_serving_config_sets_every_fleet_field(self):
        config = ServingConfig(workers=3, fleet=True, heartbeat_interval=0.2,
                               respawn_limit=7)
        assert config.fleet_config() == FleetConfig(
            heartbeat_interval=0.2, respawn_limit=7)

    @pytest.mark.parametrize("bad", [
        {"heartbeat_interval": 0.0},
        {"respawn_limit": -1},
    ])
    def test_serving_config_validates_fleet_fields(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ServingConfig(workers=3, fleet=True, **bad)

    def test_serving_config_fleet_needs_workers(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            ServingConfig(workers=1, fleet=True)

    def test_sharded_rejects_fleet_misuse(self, artifact_path):
        with pytest.raises(ValueError, match="num_workers >= 2"):
            ShardedRoutingService(artifact_path, num_workers=1,
                                  fleet=FleetConfig())
        with pytest.raises(ValueError, match="FleetConfig or None"):
            ShardedRoutingService(artifact_path, num_workers=2, fleet=True)

    @pytest.mark.parametrize("fleet", ["yes", {"min_workers": 1}])
    def test_sharded_fleet_takes_only_a_config(self, artifact_path, fleet):
        with pytest.raises(ValueError, match="FleetConfig or None"):
            ShardedRoutingService(artifact_path, num_workers=2, fleet=fleet)

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
        assert status["workers"] == {"0": "alive", "1": "alive",
                                     "2": "alive"}
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
        with ShardedRoutingService(
                artifact_path, num_workers=2, telemetry=True,
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
        assert telemetry["queue_depth"]["type"] == "histogram"
        assert telemetry["queue_depth"]["count"] >= 2

    def test_two_deaths_both_recover(self, fleet_graph, artifact_path,
                                     reference_service):
        workload = make_workload("zipf", fleet_graph, 240, seed=19)
        expected = reference_service.route_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3) as sharded:
            routes = sharded.route_batch(workload.pairs[:80])
            kill_worker(sharded, 0)
            routes += sharded.route_batch(workload.pairs[80:160])
            kill_worker(sharded, 2)
            routes += sharded.route_batch(workload.pairs[160:])
            wait_for(lambda: sharded._fleet.respawns >= 2,
                     message="both respawns")
            status = sharded._fleet.status()
        assert routes == expected
        assert (status["worker_deaths"], status["respawns"]) == (2, 2)
        assert status["workers"] == {"0": "alive", "1": "alive",
                                     "2": "alive"}

    @watchdog(60.0)
    def test_batch_in_flight_when_every_worker_dies_waits_for_a_rejoin(
            self, fleet_graph, artifact_path, reference_service):
        """With no routable slot left, the dead slots' unanswered shards
        are stashed, and the first worker to turn ready answers them."""
        workload = make_workload("uniform", fleet_graph, 60, seed=23)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=2) as sharded:
            for worker in sharded._workers:
                # Stopped first, so the batch lands in their task pipes.
                os.kill(worker.process.pid, signal.SIGSTOP)
            ticket = sharded.submit_batch("distance", workload.pairs)
            kill_worker(sharded, 0)
            kill_worker(sharded, 1)
            answers = sharded.wait_batch(ticket)
            status = sharded._fleet.status()
        assert answers == expected
        assert status["worker_deaths"] == 2 and status["respawns"] >= 1

    @watchdog(60.0)
    def test_hung_worker_is_replaced_and_its_batch_answered(
            self, fleet_graph, artifact_path, reference_service,
            monkeypatch):
        """A worker that is alive but stuck answers no pings: the beat
        reports it dead, its shard is re-scattered to its siblings, and a
        fresh worker takes the slot."""
        import repro.serving.worker as worker_mod

        def stuck(*args, **kwargs):
            time.sleep(3600)

        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 1.0)
        workload = make_workload("uniform", fleet_graph, 120, seed=29)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3) as sharded:
            real_spawn, stuck_workers = sharded._spawn, []

            def spawn(worker_id):
                if stuck_workers:
                    return real_spawn(worker_id)
                # The forked child inherits the patched name and blocks
                # on its first query, while answering pings until then.
                with monkeypatch.context() as patch:
                    patch.setattr(worker_mod, "answer_batch", stuck)
                    stuck_workers.append(real_spawn(worker_id))
                return stuck_workers[0]

            sharded._spawn = spawn
            kill_worker(sharded, 1)
            wait_for(lambda: sharded._fleet.respawns >= 1,
                     message="the stuck worker turning ready")
            answers = sharded.distance_batch(workload.pairs)
            wait_for(lambda: sharded._fleet.respawns >= 2,
                     message="the stuck worker's replacement")
            status = sharded._fleet.status()
        assert answers == expected
        assert not stuck_workers[0].is_alive()
        assert (status["worker_deaths"], status["respawns"]) == (2, 2)


class TestFixedWorkerCount:
    """The fleet recovers and does nothing else: no worker is added or
    shed, and nothing rebalances between live workers."""

    def test_idle_fleet_keeps_every_worker(self, artifact_path):
        with open_fleet(artifact_path, num_workers=3) as sharded:
            epoch = sharded.table.epoch
            # Pings are sent once per beat: wait out more than ten beats.
            wait_for(lambda: sharded._fleet._ping_seq >= 12,
                     message="twelve beats")
            status = sharded._fleet.status()
        assert status["workers"] == {"0": "alive", "1": "alive",
                                     "2": "alive"}
        assert status["epoch"] == epoch == 1

    def test_rejoined_worker_takes_its_share_back(self, fleet_graph,
                                                  artifact_path,
                                                  reference_service):
        workload = make_workload("uniform", fleet_graph, 200, seed=7)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3) as sharded:
            first = sharded.distance_batch(workload.pairs[:100])
            kill_worker(sharded, 1)
            wait_for(lambda: sharded._fleet.respawns >= 1, message="respawn")
            second = sharded.distance_batch(workload.pairs[100:])
            per_worker = sharded.worker_stats()
            status = sharded._fleet.status()
        assert first + second == expected
        # The respawned worker counts from zero: it answered exactly its
        # round-robin positions of the second batch, and nothing else.
        assert per_worker[1].queries == len(range(1, 100, 3))
        assert status["epoch"] \
            == 1 + status["worker_deaths"] + status["respawns"] == 3

    def test_dead_slot_reports_empty_stats_in_its_place(self, fleet_graph,
                                                        artifact_path):
        """``worker_stats`` stays aligned with the slots while one is down
        (the respawn waits for a beat that does not come here)."""
        workload = make_workload("uniform", fleet_graph, 90, seed=2)
        with open_fleet(artifact_path, num_workers=3,
                        heartbeat_interval=60.0) as sharded:
            sharded.distance_batch(workload.pairs)
            kill_worker(sharded, 1)
            wait_for(lambda: sharded._fleet.worker_deaths == 1,
                     message="the death")
            per_worker = sharded.worker_stats()
        lost = len(range(1, len(workload.pairs), 3))
        assert len(per_worker) == 3
        assert per_worker[1] == ServingStats()
        assert per_worker[0].queries + per_worker[2].queries \
            == len(workload.pairs) - lost


    def test_dead_slot_share_goes_round_robin_over_survivors(
            self, fleet_graph, artifact_path, reference_service):
        """With slot 1 dead, a fresh batch takes the same rule over the
        survivors: position ``i`` to ``(0, 2)[i % 2]``."""
        workload = make_workload("zipf", fleet_graph, 61, seed=4)
        expected = reference_service.distance_batch(workload.pairs)
        with open_fleet(artifact_path, num_workers=3,
                        heartbeat_interval=60.0) as sharded:
            kill_worker(sharded, 1)
            wait_for(lambda: sharded._fleet.worker_deaths == 1,
                     message="the death")
            assert sharded.table.routable == (0, 2)
            answers = sharded.distance_batch(workload.pairs)
            per_worker = [stats.queries for stats in sharded.worker_stats()]
        assert answers == expected
        assert per_worker == [31, 0, 30]


class StubWorker(Worker):
    """A slot with no process behind it; it records the pings it is sent."""

    __slots__ = ("pings",)

    def __init__(self, worker_id):
        super().__init__(worker_id, state="alive")
        self.pings = []

    def ping(self, seq):
        self.pings.append(seq)
        return True


class StubFrontEnd:
    """Everything a :class:`FleetSupervisor` may know about its front-end
    — the members below, no more — with no process behind any slot.  Like
    the real one it updates the slot first, then tells the supervisor."""

    def __init__(self, num_workers=2, **knobs):
        self.num_workers = num_workers
        self.lock = threading.RLock()
        self.workers = [StubWorker(i) for i in range(num_workers)]
        self.table = RoutingEpoch(0, num_workers, range(num_workers))
        self.closed = False
        self.metrics = make_registry(False)
        self.failure = None
        self.events = []
        self.fleet = FleetSupervisor(self, FleetConfig(
            heartbeat_interval=60.0, **knobs))
        self.fleet.start()      # publishes the initial table ...
        self.fleet.stop()       # ... and no beat ever runs by itself

    @property
    def serving(self):
        return [w for w in self.workers if w.state == "alive"]

    def install_worker(self, worker_id):
        self.workers[worker_id].state = "warming"
        self.events.append(("install", worker_id))
        return True

    def worker_died(self, worker, why):
        self.events.append(("died", worker.worker_id, why))
        return self.die(worker.worker_id)

    def fail(self, error):
        self.failure = error

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
        assert front.table.routable == (0, 1, 2)
        assert front.die(1) is None
        assert front.table.routable == (0, 2)
        assert front.installs() == [1]
        front.warm(1)
        assert front.table.routable == (0, 1, 2)
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

    def test_only_start_deaths_and_rejoins_publish(self):
        """``epoch == 1 + worker_deaths + respawns`` after every event, and
        respawns run in the order the slots died."""
        front = StubFrontEnd(3)

        def identity():
            status = front.fleet.status()
            return status["epoch"] \
                == 1 + status["worker_deaths"] + status["respawns"]

        assert front.table.epoch == 1 and identity()
        front.die(2)
        assert identity()
        front.die(0)
        assert identity()
        assert front.installs() == [2, 0]
        front.warm(0)
        assert identity()
        front.warm(2)
        assert identity() and front.table.epoch == 5

    def test_failed_warm_up_publishes_nothing(self):
        front = StubFrontEnd(2)
        front.die(1)
        assert front.installs() == [1]
        table = front.table
        assert front.warm(1, failure="ArtifactError: gone") is None
        assert front.table is table
        assert front.fleet.status()["respawns"] == 0

    def test_every_slot_dead_empties_the_table_until_a_rejoin(self):
        front = StubFrontEnd(2)
        front.die(0)
        front.die(1)
        assert front.table.routable == ()
        with pytest.raises(ShardError, match="no routable workers"):
            front.table.assign([(0, (5, 6))])
        assert front.installs() == [0, 1]
        front.warm(1)
        assert front.table.routable == (1,)
        assert front.table.assign([(0, (5, 6))]) == [(1, [(0, (5, 6))])]

    def test_status_is_the_recovery_record(self):
        front = StubFrontEnd(2, respawn_limit=4)
        front.die(1)
        assert front.fleet.status() == {
            "epoch": 2, "base_slots": 2, "routable": [0],
            "worker_deaths": 1, "respawns": 0, "respawn_limit": 4,
            "heartbeat_interval": 60.0,
            "workers": {"0": "alive", "1": "dead"}}

    def test_pings_go_to_serving_slots_only(self):
        front = StubFrontEnd(3)
        front.workers[2].state = "warming"
        front.fleet._send_pings(front)
        front.fleet._send_pings(front)
        assert [w.pings for w in front.workers] == [[1, 2], [1, 2], []]

    def test_only_serving_slots_can_hang(self, monkeypatch):
        """A warming or dead slot answers no pings; its silence is not a
        hang."""
        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 0.01)
        front = StubFrontEnd(3)
        front.workers[1].state = "warming"
        front.workers[2].state = "dead"
        time.sleep(0.05)
        front.fleet.pong(0)
        front.fleet._check_hangs(front)
        assert front.events == []

    def test_rejoined_worker_starts_a_fresh_hang_clock(self, monkeypatch):
        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 0.2)
        front = StubFrontEnd(2)
        front.die(1)
        assert front.installs() == [1]
        time.sleep(0.3)
        front.fleet.pong(0)
        front.warm(1)
        front.fleet._check_hangs(front)
        assert front.events == []

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
        table = RoutingEpoch(1, 3, (0, 1, 2))
        items = list(enumerate((s, s + 1) for s in range(20)))
        assignments = table.assign(items)
        assert [slot for slot, _ in assignments] == [0, 1, 2]
        for slot, shard in assignments:
            assert all(table.slot_of(index) == slot for index, _ in shard)
            assert [i for i, _ in shard] == sorted(i for i, _ in shard)
        assert sorted(item for _, shard in assignments
                      for item in shard) == items
