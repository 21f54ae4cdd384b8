"""Shard fleet recovery: the policy that respawns dead or hung workers.

:class:`~repro.serving.sharded.ShardedRoutingService` on its own is
fail-stop: one worker death latches a :class:`ShardError` and the whole
front-end goes down.  That is the right contract for a batch benchmark, but
a long-lived serving session wants the opposite — worker processes *will*
die (OOM kills, node maintenance, plain bugs) and the session should keep
answering, identically, while the fleet heals.

:class:`FleetSupervisor` is that session's *policy*, and only that: the
front-end owns the slots, the tickets and the pipes, notices deaths and
re-scatters; the supervisor owns the routing table, the respawn budget and
the heartbeat, and drives the front-end through a handful of public
members (``lock``, ``workers``, ``serving``, ``closed``,
``install_worker()``, ``fail()``, ``worker_died()``, ``metrics`` and the
config attributes) — a stub with those members is all its tests need.
It does five things, none of which ever changes an answer:

* when the front-end reports a death, it publishes a table without the
  slot;
* the front-end re-scatters the slot's unanswered shards to siblings
  through that table (every worker can answer any query, from its own
  slice or from the lazily-loaded full-artifact *cover*);
* a heartbeat ``ping``/``pong`` over the existing pipes catches the one
  death a pipe cannot show: a worker that is alive but hung;
* it respawns the dead worker in the background within ``respawn_limit``,
  regenerating its sub-artifact slice from the parent artifact if the
  file vanished; in-flight and subsequent batches stay list-for-list
  identical to single-process serving, only latency spikes;
* past the budget, the next death is answered with a typed
  :class:`FleetError` for the front-end to latch.

The worker count never changes and no work moves between live workers: a
table is published only at start, on a death and when a respawned worker
turns ready, so ``epoch == 1 + worker_deaths + respawns``.

:class:`FleetConfig` holds the two settings a deployment can choose
(``heartbeat_interval``, ``respawn_limit``); the hang timeout is the
module constant :data:`HANG_TIMEOUT`.

Routing goes through an **epoch-versioned table** (:class:`RoutingEpoch`);
tables are immutable and published under the service lock, and the scatter
path re-partitions whenever the epoch moved while it waited, so a scatter
can never target a slot that died meanwhile.

Telemetry (when the service's registry is enabled): the supervisor's
``respawn`` span and the counters ``fleet_worker_deaths`` /
``fleet_respawns``.  The same counters are always available — telemetry
on or off — through :meth:`FleetSupervisor.status`, which
:meth:`~repro.serving.sharded.ShardedRoutingService.merged_stats` folds
into ``extra["fleet"]``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

from .sharded import ShardError
from .workloads import stable_node_hash

__all__ = ["FleetConfig", "FleetError", "FleetSupervisor", "RoutingEpoch"]


class FleetError(ShardError):
    """The fleet could not keep the session alive (budget exhausted).

    Raised through the front-end's failure latch, so every in-flight and
    future caller sees it; ``pending_request_ids`` names the batches that
    were lost, exactly as on the base :class:`ShardError`.
    """


#: A worker that has not answered a ping for ``HANG_TIMEOUT`` seconds is
#: reported dead.
HANG_TIMEOUT = 30.0


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """The supervisor's two settings, each validated here and only here."""

    heartbeat_interval: float = 0.5
    respawn_limit: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, "
                             f"got {self.heartbeat_interval}")
        if self.respawn_limit < 0:
            raise ValueError(f"respawn_limit must be >= 0, "
                             f"got {self.respawn_limit}")


class RoutingEpoch:
    """One immutable published routing table.

    ``slot_of`` is deterministic given the table: the base slot is
    ``stable_node_hash(source) % base_slots`` (the worker count, matching
    the sub-artifact slicing), and a non-routable base slot falls back to
    ``routable[hash % len(routable)]`` — stable for the table's lifetime,
    so one batch is never split mid-scatter.
    """

    __slots__ = ("epoch", "base_slots", "routable", "_routable_set")

    def __init__(self, epoch: int, base_slots: int,
                 routable: Tuple[int, ...]) -> None:
        self.epoch = epoch
        self.base_slots = base_slots
        self.routable = tuple(sorted(routable))
        self._routable_set = frozenset(self.routable)

    def slot_of(self, source) -> int:
        slot = stable_node_hash(source) % self.base_slots
        if slot in self._routable_set:
            return slot
        if not self.routable:
            raise FleetError("no routable workers (all slots dead)")
        return self.routable[stable_node_hash(source) % len(self.routable)]

    def assign(self, items) -> List[Tuple[int, List]]:
        """Group ``(index, pair)`` items by their source's slot:
        ``[(slot, [item, ...]), ...]`` in slot order, stream order kept
        within a slot.  The one grouping loop behind both a fresh scatter
        and the re-scatter of a dead slot's shards."""
        shards: Dict[int, List] = {}
        for item in items:
            shards.setdefault(self.slot_of(item[1][0]), []).append(item)
        return sorted(shards.items())

    def __repr__(self) -> str:
        return (f"RoutingEpoch(epoch={self.epoch}, "
                f"base_slots={self.base_slots}, "
                f"routable={list(self.routable)})")


def _supervisor_main(supervisor: "FleetSupervisor",
                     stop: threading.Event) -> None:
    """Beat thread body: one :meth:`FleetSupervisor.beat` per interval.

    Module-level so the thread pins only the supervisor, which holds the
    service weakly — a garbage-collected front-end still gets its
    unclosed-service warning, exactly like the collector thread.
    """
    interval = supervisor.config.heartbeat_interval
    while not stop.wait(interval):
        try:
            if not supervisor.beat():
                return
        except Exception:
            # A supervisor bug must not kill the heartbeat: hang
            # detection and respawns have to outlive everything.
            continue


class FleetSupervisor:
    """The policy of one sharded front-end (see the module docstring).

    All mutable state here — the published table, the respawn queue and
    budget, pong times — is guarded by the *service's* lock, handed over
    once at construction: the scatter path, the collector and the beat
    thread already synchronise on it, so the supervisor adds no second
    lock order.  The front-end calls :meth:`worker_ready`,
    :meth:`worker_failed`, :meth:`worker_died` and :meth:`pong` with that
    lock held, after it has updated the slot.
    """

    def __init__(self, service, config: FleetConfig) -> None:
        self.config = config
        self._service_ref = weakref.ref(service)
        self._lock = service.lock
        self.base_slots = service.num_workers
        #: The published routing table; replaced, never mutated.
        self.table = RoutingEpoch(0, self.base_slots, ())
        # Monotonic counters, exposed via status() whether or not the
        # metrics registry is enabled.
        self.worker_deaths = 0
        self.respawns = 0
        self._respawns_started = 0
        self._respawn_queue: List[int] = []     # slots awaiting install
        self._death_time: Dict[int, float] = {}
        self._last_pong: Dict[int, float] = {}
        self._ping_seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Publish the initial table and start the heartbeat thread."""
        service = self._service_ref()
        now = time.monotonic()
        with self._lock:
            for worker in service.workers:
                self._last_pong[worker.worker_id] = now
            self._publish(service)
        self._stop.clear()
        self._thread = threading.Thread(
            target=_supervisor_main, args=(self, self._stop),
            name="repro-fleet-supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if (self._thread is not None
                and self._thread is not threading.current_thread()):
            self._thread.join(timeout=5.0)
        self._thread = None

    def _publish(self, service) -> None:
        """Publish a new epoch over the serving slots (service lock held
        by the caller)."""
        routable = tuple(w.worker_id for w in service.serving)
        self.table = RoutingEpoch(self.table.epoch + 1, self.base_slots,
                                  routable)

    # -- slot events, called by the front-end with the lock held --------
    def pong(self, worker_id: int) -> None:
        self._last_pong[worker_id] = time.monotonic()

    def worker_ready(self, worker_id: int) -> None:
        """A respawned worker finished warming and its slot is serving
        again: account for it and route to it."""
        service = self._service_ref()
        now = time.monotonic()
        self._last_pong[worker_id] = now
        self.respawns += 1
        died_at = self._death_time.pop(worker_id, None)
        if service.metrics.enabled:
            service.metrics.counter("fleet_respawns").inc()
            if died_at is not None:
                service.metrics.histogram("respawn").observe(now - died_at)
        self._publish(service)

    def worker_failed(self, worker_id: int,
                      summary: str) -> Optional[FleetError]:
        """A respawned worker could not load its artifact: retried within
        the budget."""
        return self._queue_respawn(
            worker_id, f"failed to warm up after respawn ({summary})")

    def worker_died(self, worker_id: int, why: str) -> Optional[FleetError]:
        """A serving slot died: publish a table without it and queue the
        background respawn.  Returns the error to latch when the respawn
        budget is exhausted — the session degrades loudly instead of
        hanging — and ``None`` when the front-end should re-scatter."""
        service = self._service_ref()
        self.worker_deaths += 1
        self._death_time[worker_id] = time.monotonic()
        if service.metrics.enabled:
            service.metrics.counter("fleet_worker_deaths").inc()
        self._publish(service)
        return self._queue_respawn(worker_id, f"died ({why})")

    def _queue_respawn(self, worker_id: int,
                       what: str) -> Optional[FleetError]:
        if self._respawns_started >= self.config.respawn_limit:
            return FleetError(
                f"worker {worker_id} {what} and the respawn budget "
                f"({self.config.respawn_limit}) is exhausted; raise "
                f"respawn_limit or investigate the crashes")
        self._respawns_started += 1
        self._respawn_queue.append(worker_id)
        return None

    # -- the heartbeat --------------------------------------------------
    def beat(self) -> bool:
        """One supervisor heartbeat; returns False to stop the thread.

        Deaths are not looked for here: the front-end's collector sees a
        dead worker's result pipe reach EOF within a ``select`` round.
        The beat only catches what a pipe cannot show — a worker that is
        alive but hung — and does the slow work: respawns.
        """
        service = self._service_ref()
        if service is None or self._stop.is_set() or service.closed:
            return False
        self._check_hangs(service)
        self._send_pings(service)
        self._run_respawns(service)
        return True

    def _send_pings(self, service) -> None:
        with self._lock:
            serving = service.serving
            self._ping_seq += 1
        for worker in serving:
            worker.ping(self._ping_seq)

    def _check_hangs(self, service) -> None:
        """Report hung-but-alive workers dead and terminate them.

        A worker grinding through a long batch answers pings late (the
        task pipe is FIFO), so :data:`HANG_TIMEOUT` must dominate the worst
        expected batch; 30 s is far above any benchmarked batch here.
        """
        now = time.monotonic()
        with self._lock:
            hung = [w for w in service.serving
                    if now - self._last_pong.get(w.worker_id, now)
                    > HANG_TIMEOUT]
        for worker in hung:
            # Reported first, so siblings take over its shards without
            # waiting for the process to be reaped (and so the reason on
            # record is the hang, not the EOF the kill then causes).
            service.worker_died(worker, f"hung (no pong within "
                                        f"{HANG_TIMEOUT}s)")
            worker.stop()

    def _run_respawns(self, service) -> None:
        """Execute queued respawns (beat thread, slow path: slice
        regeneration and the process spawn run outside the lock).  The new
        worker's ``ready`` comes back through the front-end as
        :meth:`worker_ready`."""
        while True:
            with self._lock:
                if not self._respawn_queue:
                    return
                worker_id = self._respawn_queue.pop(0)
            paths = service.sub_artifact_paths
            if paths is not None and not os.path.exists(paths[worker_id]):
                # The slice file vanished (scratch disk, operator error):
                # regenerate the whole slice set from the parent artifact.
                from .artifacts import write_shard_artifacts
                try:
                    write_shard_artifacts(
                        service.artifact_path, len(paths),
                        build_workers=service.build_workers)
                except Exception as exc:
                    service.fail(FleetError(
                        f"could not regenerate the sub-artifact slice for "
                        f"worker {worker_id}: {type(exc).__name__}: {exc}"))
                    return
            if not service.install_worker(worker_id):
                return

    # -- introspection --------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-able snapshot for ``merged_stats().extra["fleet"]``."""
        service = self._service_ref()
        table = self.table
        out: Dict[str, object] = {
            "epoch": table.epoch,
            "base_slots": table.base_slots,
            "routable": list(table.routable),
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "respawn_limit": self.config.respawn_limit,
            "heartbeat_interval": self.config.heartbeat_interval,
        }
        if service is not None:
            out["workers"] = {str(w.worker_id): w.state
                              for w in service.workers}
        return out

    def __repr__(self) -> str:
        return (f"FleetSupervisor(epoch={self.table.epoch}, "
                f"routable={list(self.table.routable)}, "
                f"deaths={self.worker_deaths}, respawns={self.respawns})")
