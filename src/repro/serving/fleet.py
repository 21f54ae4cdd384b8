"""Shard fleet supervision: the policy that covers, respawns or latches.

Every :class:`~repro.serving.sharded.ShardedRoutingService` runs one
:class:`FleetSupervisor`.  Worker processes *will* die (OOM kills, node
maintenance, plain bugs) or hang, and the supervisor decides what the
front-end does about it; ``respawn_limit`` is the only difference between
a fail-stop service (``0``, the default: the first death latches a
:class:`~repro.serving.sharded.ShardError` and the front-end goes down) and
one that keeps answering, identically, while it heals.

:class:`FleetSupervisor` is *policy*, and only that: the
front-end owns the slots, the tickets and the pipes, notices deaths and
re-scatters; the supervisor decides when the routing table changes, and
owns the respawn budget and the heartbeat; it drives the front-end
through a handful of public members (``lock``, ``workers``, ``serving``,
``closed``, ``table``, ``num_workers``, ``install_worker()``, ``fail()``,
``worker_died()`` and ``metrics``) — a stub with those members is all
its tests need.  It does five things, none of which ever changes an answer:

* when the front-end reports a death, it publishes a table without the
  slot;
* the front-end re-scatters the slot's unanswered shards to siblings
  through that table (every worker loads the full artifact, so any worker
  can answer any query);
* a heartbeat ``ping``/``pong`` catches the one death a pipe cannot
  show: a worker that is alive but makes no progress;
* it respawns the dead worker in the background within ``respawn_limit``;
  in-flight and subsequent batches stay list-for-list identical to
  single-process serving, only latency spikes;
* past the budget, the next death is answered with a typed
  :class:`~repro.serving.sharded.ShardError` (``worker N died (...)`` or
  ``worker N hung (...)``) for the front-end to latch.

The worker count never changes and nothing rebalances: a table is
published only at start, on a death and when a respawned worker turns
ready, so ``epoch == 1 + worker_deaths + respawns``.

Two settings, ``heartbeat_interval`` and ``respawn_limit``, are plain
keyword arguments (:func:`check_settings`); :data:`HANG_TIMEOUT` is not.

Routing goes through the front-end's **epoch-versioned table**
(:class:`~repro.serving.sharded.RoutingEpoch`), round-robin over the live
slots; the supervisor publishes each new one into ``service.table`` under
the service lock, and the scatter path re-assigns whenever the table was
replaced while it waited, so a scatter can never target a slot that died
meanwhile.

Telemetry (when the service's registry is enabled): the supervisor's
``respawn`` span and the counters ``fleet_worker_deaths`` /
``fleet_respawns``.  The same counters are always available — telemetry
on or off — through :meth:`FleetSupervisor.status`, which
:meth:`~repro.serving.sharded.ShardedRoutingService.merged_stats` folds
into ``extra["fleet"]``.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, List, Optional

from .sharded import RoutingEpoch, ShardError

__all__ = ["FleetSupervisor", "RoutingEpoch", "check_settings"]


#: A worker that has not answered a ping for ``HANG_TIMEOUT`` seconds is
#: reported hung.  Workers answer pings ahead of queued queries while
#: they compute, so this never bounds how long a shard may take.
HANG_TIMEOUT = 30.0


def check_settings(num_workers: int, heartbeat_interval: float,
                   respawn_limit: int) -> None:
    """Validate the supervisor's two settings against a worker count."""
    if heartbeat_interval <= 0:
        raise ValueError(f"heartbeat_interval must be > 0, "
                         f"got {heartbeat_interval}")
    if respawn_limit < 0:
        raise ValueError(f"respawn_limit must be >= 0, got {respawn_limit}")
    if respawn_limit > 0 and num_workers < 2:
        raise ValueError(
            f"respawn_limit > 0 requires workers >= 2 (siblings take a "
            f"dead worker's share), got {num_workers}")


def _supervisor_main(supervisor: "FleetSupervisor",
                     stop: threading.Event) -> None:
    """Beat thread body: one :meth:`FleetSupervisor.beat` per interval.

    Module-level so the thread pins only the supervisor, which holds the
    service weakly — a garbage-collected front-end still gets its
    unclosed-service warning, exactly like the collector thread.
    """
    interval = supervisor.heartbeat_interval
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

    All mutable state here — the respawn queue and budget, pong times —
    and the table it publishes into ``service.table`` are guarded by the
    *service's* lock, handed over once at construction: the scatter path,
    the collector and the beat thread already synchronise on it, so the
    supervisor adds no second lock order.  The front-end calls
    :meth:`worker_ready`, :meth:`worker_failed`, :meth:`worker_died` and
    :meth:`pong` with that lock held, after it has updated the slot.
    """

    def __init__(self, service, heartbeat_interval: float = 0.5,
                 respawn_limit: int = 0) -> None:
        check_settings(service.num_workers, heartbeat_interval,
                       respawn_limit)
        self.heartbeat_interval = heartbeat_interval
        self.respawn_limit = respawn_limit
        self._service_ref = weakref.ref(service)
        self._lock = service.lock
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
        service.table = RoutingEpoch(
            service.table.epoch + 1, service.num_workers,
            [w.worker_id for w in service.serving])

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
                      summary: str) -> Optional[ShardError]:
        """A respawned worker could not load its artifact: retried within
        the budget."""
        return self._queue_respawn(
            worker_id, f"failed to warm up after respawn ({summary})")

    def worker_died(self, worker_id: int,
                    what: str) -> Optional[ShardError]:
        """A serving slot died or hung (``what`` says which, and why):
        publish a table without it and queue the background respawn.
        Returns the error to latch when the respawn budget is exhausted —
        the session degrades loudly instead of hanging — and ``None`` when
        the front-end should re-scatter."""
        service = self._service_ref()
        self.worker_deaths += 1
        self._death_time[worker_id] = time.monotonic()
        if service.metrics.enabled:
            service.metrics.counter("fleet_worker_deaths").inc()
        self._publish(service)
        return self._queue_respawn(worker_id, what)

    def _queue_respawn(self, worker_id: int,
                       what: str) -> Optional[ShardError]:
        if self._respawns_started >= self.respawn_limit:
            return ShardError(
                f"worker {worker_id} {what} and the respawn budget "
                f"({self.respawn_limit}) is exhausted; raise "
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
        """Report hung-but-alive workers (no progress, so no pong, for
        :data:`HANG_TIMEOUT`) dead and terminate them."""
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
        """Execute queued respawns (beat thread, slow path: the process
        spawn runs outside the lock).  The new worker's ``ready`` comes
        back through the front-end as :meth:`worker_ready`."""
        while True:
            with self._lock:
                if not self._respawn_queue:
                    return
                worker_id = self._respawn_queue.pop(0)
            if not service.install_worker(worker_id):
                return

    # -- introspection --------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-able snapshot for ``merged_stats().extra["fleet"]``."""
        service = self._service_ref()
        table = service.table
        return {
            "epoch": table.epoch,
            "base_slots": table.base_slots,
            "routable": list(table.routable),
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "respawn_limit": self.respawn_limit,
            "heartbeat_interval": self.heartbeat_interval,
            "workers": {str(w.worker_id): w.state for w in service.workers},
        }

    def __repr__(self) -> str:
        return (f"FleetSupervisor(deaths={self.worker_deaths}, "
                f"respawns={self.respawns})")
