"""Elastic shard fleet: supervise, respawn, rebalance and scale workers.

:class:`~repro.serving.sharded.ShardedRoutingService` on its own is
fail-stop: one worker death latches a :class:`ShardError` and the whole
front-end goes down.  That is the right contract for a batch benchmark, but
a long-lived serving session wants the opposite — worker processes *will*
die (OOM kills, node maintenance, plain bugs) and the session should keep
answering, identically, while the fleet heals.

:class:`FleetSupervisor` owns the worker set of a sharded front-end and
adds three behaviours, all without ever changing an answer:

* **failure recovery** — liveness is watched two ways (``Process.is_alive``
  polling plus a heartbeat ``ping``/``pong`` over the existing task/result
  pipes, catching hung-but-alive workers; a task write that finds no
  reader reports the death at once).  On a death the supervisor
  immediately re-scatters the dead slot's unanswered shards to sibling
  workers — every worker can answer any query, from its own slice or from
  the lazily-loaded full-artifact *cover* — and respawns the worker in the
  background, regenerating its sub-artifact slice from the parent artifact
  if the file vanished.  In-flight and subsequent batches stay
  list-for-list identical to single-process serving; only latency spikes.
* **load rebalancing** — the source-hash partition map is adjusted against
  observed per-shard load using windowed hit-rate feedback
  (:class:`HitRateWindow`): cold sources are migrated first, so warm
  cache entries stay where they are.
* **elastic scaling** — sustained front-end queue depth (the
  ``pipeline_depth`` admission signal) scales the worker count up or down
  between configured bounds; scaled-down workers drain and park, scale-ups
  prefer unparking before spawning fresh dynamic slots.

Routing goes through an **epoch-versioned table** (:class:`RoutingEpoch`):
every source's base slot is ``stable_node_hash(source) % base_slots`` —
the same assignment as the ``hash_source`` partitioner and the
sub-artifact slicer — with an ``overrides`` map for migrations and a
deterministic fallback over the currently routable slots for dead ones.
Tables are immutable and published under the service lock; the scatter
path re-partitions whenever the epoch moved while it waited, so a scatter
can never race a migration.

When the respawn budget (``respawn_limit``) is exhausted, the next death
latches a typed :class:`FleetError` carrying the in-flight request ids —
the session degrades loudly instead of hanging.

Telemetry (when the service's registry is enabled): supervisor spans
``respawn``/``rebalance``/``scale``, counters ``fleet_worker_deaths`` /
``fleet_respawns`` / ``fleet_migrated_pairs``, and the
``fleet_queue_depth`` gauge.  The same counters are always available —
telemetry on or off — through :meth:`FleetSupervisor.status`, which
:meth:`~repro.serving.sharded.ShardedRoutingService.merged_stats` folds
into ``extra["fleet"]``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import ServingStats
from .sharded import ShardError, _DEFERRED_SLOT
from .workloads import stable_node_hash

__all__ = ["FleetConfig", "FleetError", "FleetSupervisor", "HitRateWindow",
           "RoutingEpoch"]


class FleetError(ShardError):
    """The fleet could not keep the session alive (budget exhausted).

    Raised through the front-end's failure latch, so every in-flight and
    future caller sees it; ``pending_request_ids`` names the batches that
    were lost, exactly as on the base :class:`ShardError`.
    """


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Supervisor knobs; validation happens on construction.

    ``max_workers=None`` means "the initial worker count" (no growth);
    ``scale_up_depth``/``scale_down_depth`` are fractions of
    ``pipeline_depth`` that must be sustained for ``sustain_beats``
    consecutive heartbeats before the fleet scales.
    """

    min_workers: int = 1
    max_workers: Optional[int] = None
    heartbeat_interval: float = 0.5
    respawn_limit: int = 3
    hang_timeout: float = 30.0
    scale_up_depth: float = 0.75
    scale_down_depth: float = 0.25
    sustain_beats: int = 4
    feedback_every: int = 4
    migrate_fraction: float = 0.25
    min_window: int = 64

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, "
                             f"got {self.min_workers}")
        if self.max_workers is not None \
                and self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})")
        if self.heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, "
                             f"got {self.heartbeat_interval}")
        if self.respawn_limit < 0:
            raise ValueError(f"respawn_limit must be >= 0, "
                             f"got {self.respawn_limit}")
        if self.hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be > 0, "
                             f"got {self.hang_timeout}")
        if not 0 < self.scale_down_depth < self.scale_up_depth:
            raise ValueError(
                f"need 0 < scale_down_depth < scale_up_depth, got "
                f"{self.scale_down_depth} / {self.scale_up_depth}")
        if self.sustain_beats < 1:
            raise ValueError(f"sustain_beats must be >= 1, "
                             f"got {self.sustain_beats}")
        if self.feedback_every < 1:
            raise ValueError(f"feedback_every must be >= 1, "
                             f"got {self.feedback_every}")
        if not 0 < self.migrate_fraction <= 1:
            raise ValueError(f"migrate_fraction must be in (0, 1], "
                             f"got {self.migrate_fraction}")
        if self.min_window < 1:
            raise ValueError(f"min_window must be >= 1, "
                             f"got {self.min_window}")

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class HitRateWindow:
    """Per-shard cache hit rates over the window since the last evaluation.

    The windowed-feedback core of the supervisor's rebalancer: given fresh
    per-worker :class:`~repro.serving.cache.ServingStats` snapshots,
    compute each shard's hit rate over the *delta* since the last evaluated window.
    Sub-threshold windows (fewer than ``min_window`` probes in total)
    return ``None`` without advancing the baseline, so small windows
    accumulate across observations instead of being consumed and
    discarded.  Hot-store hits count as hits — a promoted pair is the
    cache working as intended, not a sign of overload.
    """

    __slots__ = ("num_shards", "min_window", "_last_hits", "_last_misses")

    def __init__(self, num_shards: int, min_window: int = 64) -> None:
        self.num_shards = num_shards
        self.min_window = min_window
        self._last_hits = [0] * num_shards
        self._last_misses = [0] * num_shards

    def resize(self, num_shards: int) -> None:
        """Grow the baseline for newly added shards (fleet scale-up)."""
        while len(self._last_hits) < num_shards:
            self._last_hits.append(0)
            self._last_misses.append(0)
        self.num_shards = num_shards

    def reset_shard(self, shard: int) -> None:
        """Zero one shard's baseline (its worker restarted from scratch)."""
        if 0 <= shard < len(self._last_hits):
            self._last_hits[shard] = 0
            self._last_misses[shard] = 0

    def rates(self, worker_stats: Sequence[ServingStats],
              ) -> Optional[List[float]]:
        """Windowed hit rates, or ``None`` when the window is too small."""
        if len(worker_stats) != self.num_shards:
            return None
        total_hits = [stats.cache_hits + stats.hot_hits
                      for stats in worker_stats]
        total_misses = [stats.cache_misses for stats in worker_stats]
        deltas = []
        for shard in range(self.num_shards):
            d_hits = total_hits[shard] - self._last_hits[shard]
            d_misses = total_misses[shard] - self._last_misses[shard]
            if d_hits < 0 or d_misses < 0:
                # The worker restarted (counters reset); its lifetime totals
                # ARE the window.
                d_hits, d_misses = total_hits[shard], total_misses[shard]
            deltas.append((d_hits, d_misses))
        if sum(d_hits + d_misses for d_hits, d_misses in deltas) \
                < self.min_window:
            return None
        self._last_hits = total_hits
        self._last_misses = total_misses
        return [d_hits / (d_hits + d_misses) if d_hits + d_misses else 1.0
                for d_hits, d_misses in deltas]


class RoutingEpoch:
    """One immutable published routing table.

    ``slot_of`` is deterministic given the table: the base slot is
    ``stable_node_hash(source) % base_slots`` (``base_slots`` is pinned to
    the *initial* worker count forever, matching the sub-artifact
    slicing), an override redirects a migrated source, and a non-routable
    result falls back to ``routable[hash % len(routable)]`` — stable for
    the table's lifetime, so one batch is never split mid-scatter.
    """

    __slots__ = ("epoch", "base_slots", "overrides", "routable",
                 "_routable_set")

    def __init__(self, epoch: int, base_slots: int,
                 overrides: Dict[object, int],
                 routable: Tuple[int, ...]) -> None:
        self.epoch = epoch
        self.base_slots = base_slots
        self.overrides = overrides
        self.routable = tuple(sorted(routable))
        self._routable_set = frozenset(self.routable)

    def slot_of(self, source) -> int:
        slot = self.overrides.get(source)
        if slot is None:
            slot = stable_node_hash(source) % self.base_slots
        if slot in self._routable_set:
            return slot
        if not self.routable:
            raise FleetError("no routable workers (all slots dead or "
                             "parked)")
        return self.routable[stable_node_hash(source) % len(self.routable)]

    def __repr__(self) -> str:
        return (f"RoutingEpoch(epoch={self.epoch}, "
                f"base_slots={self.base_slots}, "
                f"overrides={len(self.overrides)}, "
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
            # A supervisor bug must not kill the heartbeat: liveness
            # detection is the one thing that has to outlive everything.
            continue


class FleetSupervisor:
    """Owns the worker set of one sharded front-end (see module docstring).

    All mutable routing state — the published table, per-source counts,
    the respawn queue, worker slot states — is guarded by the *service's*
    lock: the scatter path, the collector and the beat thread already
    synchronise on it, so the supervisor adds no second lock order.
    """

    def __init__(self, service, config: FleetConfig) -> None:
        self.config = config
        self._service_ref = weakref.ref(service)
        self.base_slots = service.num_workers
        self.min_workers = config.min_workers
        self.max_workers = (config.max_workers
                            if config.max_workers is not None
                            else max(service.num_workers,
                                     config.min_workers))
        if self.min_workers > service.num_workers:
            raise ValueError(
                f"min_workers ({self.min_workers}) must be <= the initial "
                f"worker count ({service.num_workers})")
        self._table = RoutingEpoch(0, self.base_slots, {}, ())
        self._window = HitRateWindow(service.num_workers,
                                     min_window=config.min_window)
        # Monotonic counters, exposed via status() whether or not the
        # metrics registry is enabled.
        self.worker_deaths = 0
        self.respawns = 0
        self.migrated_pairs = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._respawns_started = 0
        self._source_counts: Dict[object, int] = {}
        self._respawn_queue: List[Tuple[int, str]] = []
        self._spawn_reason: Dict[int, str] = {}
        self._death_time: Dict[int, float] = {}
        self._spawn_time: Dict[int, float] = {}
        self._last_pong: Dict[int, float] = {}
        self._ping_seq = 0
        self._beats = 0
        self._high_beats = 0
        self._low_beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- service access -------------------------------------------------
    def _service(self):
        return self._service_ref()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Publish the initial table and start the heartbeat thread."""
        service = self._service()
        now = time.monotonic()
        with service._can_submit:
            for handle in service._workers:
                self._last_pong[handle.worker_id] = now
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

    # -- routing --------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._table.epoch

    @property
    def has_routable(self) -> bool:
        return bool(self._table.routable)

    def partition(self, pairs) -> Tuple[int, List[Tuple[int, List]]]:
        """Scatter assignment under the current table (service lock held).

        Returns ``(epoch, [(worker_id, [(index, pair), ...]), ...])``; the
        caller re-partitions if the epoch moved while it waited for
        admission.  Observed source frequencies feed the rebalancer's
        cold-first migration order.
        """
        table = self._table
        shards: Dict[int, List] = {}
        counts = self._source_counts
        for index, pair in enumerate(pairs):
            source = pair[0]
            shards.setdefault(table.slot_of(source), []).append(
                (index, pair))
            counts[source] = counts.get(source, 0) + 1
        if len(counts) > 131072:
            # Bound the frequency map on huge keyspaces: drop the cold
            # half (they were the migration candidates anyway; losing
            # their counts only delays, never corrupts, a migration).
            keep = sorted(counts.items(), key=lambda kv: kv[1],
                          reverse=True)[:65536]
            self._source_counts = dict(keep)
        return table.epoch, sorted(shards.items())

    def _publish(self, service,
                 overrides: Optional[Dict[object, int]] = None) -> None:
        """Publish a new epoch (service lock held by the caller)."""
        routable = tuple(h.worker_id for h in service._workers
                         if h.state == "alive")
        if overrides is None:
            overrides = self._table.overrides
        self._table = RoutingEpoch(self._table.epoch + 1, self.base_slots,
                                   dict(overrides), routable)

    # -- collector-routed worker messages -------------------------------
    def on_message(self, message) -> None:
        tag = message[0]
        if tag == "pong":
            self._last_pong[message[1]] = time.monotonic()
        elif tag == "ready":
            self.on_worker_ready(message[1])
        elif tag == "failed":
            self.on_worker_failed(message[1], message[2])
        elif tag == "bye":
            self.on_worker_bye(message[1], message[2])

    def on_worker_ready(self, worker_id: int) -> None:
        """A respawned or scaled-up worker finished warming: route to it."""
        service = self._service()
        if service is None:
            return
        with service._can_submit:
            if service._closed:
                return
            handle = service._workers[worker_id]
            if handle.state != "warming":
                return
            handle.state = "alive"
            handle.final_stats = None
            self._last_pong[worker_id] = time.monotonic()
            self._window.resize(len(service._workers))
            self._window.reset_shard(worker_id)
            reason = self._spawn_reason.pop(worker_id, "respawn")
            overrides = None
            if reason == "respawn":
                self.respawns += 1
                died_at = self._death_time.pop(worker_id, None)
                if service.metrics.enabled:
                    service.metrics.counter("fleet_respawns").inc()
                    if died_at is not None:
                        service.metrics.histogram("respawn").observe(
                            time.monotonic() - died_at)
            else:
                self.scale_ups += 1
                spawned_at = self._spawn_time.pop(worker_id, None)
                if service.metrics.enabled and spawned_at is not None:
                    service.metrics.histogram("scale").observe(
                        time.monotonic() - spawned_at)
                if worker_id >= self.base_slots:
                    # Fresh dynamic slot: nothing hashes to it, so seed it
                    # with the coldest observed sources (hot sources keep
                    # their warm caches where they are).
                    overrides = self._seed_dynamic_slot(worker_id)
            self._publish(service, overrides)
            self._drain_deferred(service)
            service._can_submit.notify_all()

    def on_worker_failed(self, worker_id: int, summary: str) -> None:
        """A respawned worker could not load its artifact."""
        service = self._service()
        if service is None:
            return
        with service._can_submit:
            if service._closed or service._failure is not None:
                return
            handle = service._workers[worker_id]
            if handle.state != "warming":
                return
            handle.state = "dead"
            reason = self._spawn_reason.pop(worker_id, "respawn")
            if reason != "respawn":
                return  # a failed scale-up is dropped, not retried
            if self._respawns_started >= self.config.respawn_limit:
                service._latch_failure(FleetError(
                    f"worker {worker_id} failed to warm up after respawn "
                    f"({summary}) and the respawn budget "
                    f"({self.config.respawn_limit}) is exhausted"))
                return
            self._respawns_started += 1
            self._respawn_queue.append((worker_id, "respawn"))

    def on_worker_bye(self, worker_id: int, stats: ServingStats) -> None:
        """Final snapshot from a worker parked by scale-down."""
        service = self._service()
        if service is None:
            return
        with service._can_submit:
            handle = service._workers[worker_id]
            if handle.state == "parked":
                handle.final_stats = stats

    # -- liveness and recovery ------------------------------------------
    def poll_liveness(self) -> None:
        """Notice exited workers (called by the collector and each beat)."""
        service = self._service()
        if service is None or self._stop.is_set():
            return
        with service._can_submit:
            dead = [h.worker_id for h in service._workers
                    if h.state == "alive" and not h.process.is_alive()]
        for worker_id in dead:
            self.on_worker_death(worker_id, "process exited")

    def on_worker_death(self, worker_id: int, why: str) -> None:
        """Recover from one worker's death, or latch when out of budget.

        Under the service lock: mark the slot dead, publish a table
        without it, re-scatter its unanswered shards to siblings (FIFO
        bookkeeping on the tickets says exactly which those are), scrub
        pending stats requests, and queue the background respawn.
        """
        service = self._service()
        if service is None:
            return
        with service._can_submit:
            if service._closed or service._failure is not None:
                return
            handle = service._workers[worker_id]
            if handle.state != "alive":
                return
            handle.state = "dead"
            self.worker_deaths += 1
            self._death_time[worker_id] = time.monotonic()
            service._inflight[worker_id] = 0
            self._window.reset_shard(worker_id)
            if service.metrics.enabled:
                service.metrics.counter("fleet_worker_deaths").inc()
            self._publish(service)
            if self._respawns_started >= self.config.respawn_limit:
                service._latch_failure(FleetError(
                    f"worker {worker_id} died ({why}) and the respawn "
                    f"budget ({self.config.respawn_limit}) is exhausted; "
                    f"raise respawn_limit or investigate the crashes"))
                return
            self._respawns_started += 1
            self._retry_outstanding(service, worker_id)
            self._scrub_stats_waiters(service, worker_id)
            self._respawn_queue.append((worker_id, "respawn"))
            service._can_submit.notify_all()

    def _retry_outstanding(self, service, worker_id: int) -> None:
        """Re-scatter every unanswered shard of ``worker_id`` (lock held)."""
        for ticket in list(service._tickets.values()):
            shards = ticket.outstanding.pop(worker_id, None)
            if not shards:
                continue
            items = [item for shard in shards for item in shard]
            self._scatter_items(service, ticket, items)

    def _scatter_items(self, service, ticket, items) -> None:
        """Route orphaned ``(index, pair)`` items by the current table.

        With no routable worker the items are stashed under the deferred
        pseudo-slot — the ticket stays incomplete (so nobody reads a
        half-filled result list) and the next ``on_worker_ready`` drains
        the stash.
        """
        table = self._table
        if not table.routable:
            ticket.outstanding.setdefault(_DEFERRED_SLOT, []).append(
                list(items))
            return
        regrouped: Dict[int, List] = {}
        for index, pair in items:
            regrouped.setdefault(table.slot_of(pair[0]), []).append(
                (index, pair))
        for slot, shard in sorted(regrouped.items()):
            ticket.outstanding.setdefault(slot, []).append(shard)
            service._inflight[slot] = service._inflight.get(slot, 0) + 1
            # Never waits (this may be the collector thread): the
            # collector finishes what a full pipe does not take, and a
            # sibling that is dead too is caught by the next poll.
            service._send(service._workers[slot],
                          ("query", ticket.request_id, ticket.kind, shard))

    def _drain_deferred(self, service) -> None:
        """Flush deferred shards now that a worker is routable again."""
        for ticket in list(service._tickets.values()):
            shards = ticket.outstanding.pop(_DEFERRED_SLOT, None)
            if not shards:
                continue
            items = [item for shard in shards for item in shard]
            self._scatter_items(service, ticket, items)

    @staticmethod
    def _scrub_stats_waiters(service, worker_id: int) -> None:
        """A dead worker will never answer ``("stats",)``: fill a
        placeholder so :meth:`worker_stats` completes instead of timing
        out (lock held)."""
        for waiter in list(service._stats_waiters):
            if worker_id in waiter["remaining"]:
                waiter["remaining"].discard(worker_id)
                waiter["snapshots"][worker_id] = ServingStats()
                if not waiter["remaining"]:
                    service._stats_waiters.remove(waiter)
                    waiter["done"].set()

    # -- the heartbeat --------------------------------------------------
    def beat(self) -> bool:
        """One supervisor heartbeat; returns False to stop the thread."""
        service = self._service()
        if service is None or self._stop.is_set():
            return False
        if service._closed:
            return False
        if service._failure is not None:
            return True  # latched: keep the thread idling until close()
        self._beats += 1
        self.poll_liveness()
        self._check_hangs(service)
        self._send_pings(service)
        self._run_respawns(service)
        self._observe_depth(service)
        self._maybe_scale(service)
        if self._beats % self.config.feedback_every == 0:
            self._maybe_rebalance(service)
        return True

    def _send_pings(self, service) -> None:
        with service._can_submit:
            alive = [h for h in service._workers if h.state == "alive"]
            self._ping_seq += 1
            seq = self._ping_seq
        for handle in alive:
            service._send(handle, ("ping", seq))

    def _check_hangs(self, service) -> None:
        """Terminate hung-but-alive workers so death handling kicks in.

        A worker grinding through a long batch answers pings late (the
        task pipe is FIFO), so ``hang_timeout`` must dominate the worst
        expected batch; the default (30s) is far above any benchmarked
        batch here.
        """
        now = time.monotonic()
        with service._can_submit:
            hung = [h for h in service._workers
                    if h.state == "alive"
                    and now - self._last_pong.get(h.worker_id, now)
                    > self.config.hang_timeout]
        for handle in hung:
            handle.process.terminate()
            handle.process.join(timeout=5.0)
            self.on_worker_death(handle.worker_id, "hung (no pong within "
                                 f"{self.config.hang_timeout}s)")

    def _run_respawns(self, service) -> None:
        """Execute queued respawns/unparks (beat thread, slow path).

        The slice regeneration and the process spawn run outside the
        lock; only the handle swap is locked.  The new worker's
        ``("ready", ...)`` flows through the collector into
        :meth:`on_worker_ready`, which makes the slot routable again.
        """
        while True:
            with service._can_submit:
                if not self._respawn_queue:
                    return
                worker_id, reason = self._respawn_queue.pop(0)
            if (service.sub_artifact_paths is not None
                    and worker_id < len(service.sub_artifact_paths)
                    and not os.path.exists(
                        service.sub_artifact_paths[worker_id])):
                # The slice file vanished (scratch disk, operator error):
                # regenerate the whole slice set from the parent artifact.
                from .artifacts import write_shard_artifacts
                try:
                    write_shard_artifacts(
                        service.artifact_path,
                        len(service.sub_artifact_paths),
                        build_workers=getattr(service, "build_workers", 1))
                except Exception as exc:
                    service._latch_failure(FleetError(
                        f"could not regenerate the sub-artifact slice for "
                        f"worker {worker_id}: {type(exc).__name__}: {exc}"))
                    return
            handle = service._spawn_worker(worker_id)
            handle.state = "warming"
            with service._can_submit:
                if service._closed:
                    handle.process.terminate()
                    return
                old = service._workers[worker_id]
                if old.tasks is not None:
                    old.tasks.close()
                if old.channel is not None:
                    # Retire, don't close: the collector may be mid-select
                    # on this fd, and closing it now could hand the fd
                    # number to the replacement's pipe.  ``exhausted``
                    # removes it from the select set; the service closes
                    # retired channels for real at teardown.  Late replies
                    # are droppable (the dead slot's shards were already
                    # re-scattered); a half-written frame dies with the
                    # channel.
                    old.channel.exhausted = True
                    service._retired_channels.append(old.channel)
                service._workers[worker_id] = handle
                service._pipe_snapshot = None
                service._inflight[worker_id] = 0
                self._spawn_reason[worker_id] = reason
                self._last_pong[worker_id] = time.monotonic()

    def _observe_depth(self, service) -> None:
        with service._can_submit:
            depth = len(service._tickets)
        if service.metrics.enabled:
            with service._lock:
                service.metrics.gauge("fleet_queue_depth").set(depth)
        ratio = depth / service.pipeline_depth
        self._high_beats = (self._high_beats + 1
                            if ratio >= self.config.scale_up_depth else 0)
        self._low_beats = (self._low_beats + 1
                           if ratio <= self.config.scale_down_depth else 0)

    # -- elastic scaling ------------------------------------------------
    def _maybe_scale(self, service) -> None:
        with service._can_submit:
            if self._respawn_queue or any(h.state == "warming"
                                          for h in service._workers):
                return  # one lifecycle operation at a time
            active = sum(1 for h in service._workers
                         if h.state == "alive")
        if (self._high_beats >= self.config.sustain_beats
                and active < self.max_workers):
            self._high_beats = 0
            self._scale_up(service)
        elif (self._low_beats >= self.config.sustain_beats
                and active > self.min_workers):
            self._low_beats = 0
            self._scale_down(service)

    def _scale_up(self, service) -> None:
        with service._can_submit:
            if service._closed or service._failure is not None:
                return
            parked = [h.worker_id for h in service._workers
                      if h.state == "parked"]
            if parked:
                slot = parked[-1]
            else:
                slot = len(service._workers)
                # Reserve the dynamic slot with a dead placeholder so the
                # worker_id == index invariant holds before the spawn.
                placeholder = _make_placeholder(service, slot)
                placeholder.state = "dead"
                service._workers.append(placeholder)
            self._spawn_time[slot] = time.monotonic()
            self._respawn_queue.append((slot, "scale_up"))

    def _scale_down(self, service) -> None:
        start = time.monotonic()
        with service._can_submit:
            if service._closed or service._failure is not None:
                return
            alive = [h for h in service._workers if h.state == "alive"]
            if len(alive) <= self.min_workers:
                return
            victim = alive[-1]
            victim.state = "parked"
            # Redirect migrated sources off the victim, then publish the
            # exclusion *before* the shutdown message: after this epoch no
            # scatter targets it, and FIFO guarantees it answers
            # everything already queued before saying bye.
            overrides = {source: slot
                         for source, slot in self._table.overrides.items()
                         if slot != victim.worker_id}
            self._publish(service, overrides)
            self.scale_downs += 1
            service._send(victim, ("shutdown",))
            if service.metrics.enabled:
                service.metrics.histogram("scale").observe(
                    time.monotonic() - start)

    def _seed_dynamic_slot(self, worker_id: int) -> Dict[object, int]:
        """Overrides moving the coldest sources to a new slot (lock held)."""
        service = self._service()
        routable_after = sum(1 for h in service._workers
                             if h.state == "alive") + 1
        ranked = sorted(self._source_counts.items(),
                        key=lambda kv: (kv[1], str(kv[0])))
        quota = len(ranked) // max(1, routable_after)
        overrides = dict(self._table.overrides)
        for source, _ in ranked[:quota]:
            overrides[source] = worker_id
        self.migrated_pairs += quota
        if quota and service.metrics.enabled:
            service.metrics.counter("fleet_migrated_pairs").inc(quota)
        return overrides

    # -- load rebalancing ------------------------------------------------
    def _maybe_rebalance(self, service) -> None:
        """Migrate cold sources off the worst-performing shard.

        Reuses the adaptive partitioner's windowed hit-rate feedback: the
        shard with the lowest windowed hit rate is thrashing its cache
        (too many distinct sources), so its *coldest* observed sources
        move to the best shard — the hot ones keep their warm entries.
        """
        with service._can_submit:
            routable = [h.worker_id for h in service._workers
                        if h.state == "alive"]
        if len(routable) < 2:
            return
        try:
            worker_stats = service.worker_stats()
        except ShardError:
            return
        start = time.monotonic()
        with service._can_submit:
            if service._closed or service._failure is not None:
                return
            self._window.resize(len(service._workers))
            rates = self._window.rates(worker_stats)
            if rates is None:
                return
            candidates = [(rates[w], w) for w in routable
                          if w < len(rates)]
            if len(candidates) < 2:
                return
            worst_rate, worst = min(candidates)
            best_rate, best = max(candidates)
            if worst == best or best_rate - worst_rate < 0.05:
                return
            table = self._table
            ranked = sorted(
                ((count, source)
                 for source, count in self._source_counts.items()
                 if table.slot_of(source) == worst),
                key=lambda item: (item[0], str(item[1])))
            quota = max(1, int(len(ranked) * self.config.migrate_fraction))
            moved = [source for _, source in ranked[:quota]]
            if not moved:
                return
            overrides = dict(table.overrides)
            for source in moved:
                overrides[source] = best
            self._publish(service, overrides)
            self.migrated_pairs += len(moved)
            if service.metrics.enabled:
                service.metrics.counter("fleet_migrated_pairs").inc(
                    len(moved))
                service.metrics.histogram("rebalance").observe(
                    time.monotonic() - start)

    # -- introspection --------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-able snapshot for ``merged_stats().extra["fleet"]``."""
        service = self._service()
        table = self._table
        out: Dict[str, object] = {
            "epoch": table.epoch,
            "base_slots": table.base_slots,
            "routable": list(table.routable),
            "overrides": len(table.overrides),
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "migrated_pairs": self.migrated_pairs,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "respawn_limit": self.config.respawn_limit,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "heartbeat_interval": self.config.heartbeat_interval,
        }
        if service is not None:
            out["workers"] = {str(h.worker_id): h.state
                              for h in service._workers}
        return out

    def __repr__(self) -> str:
        return (f"FleetSupervisor(epoch={self._table.epoch}, "
                f"routable={list(self._table.routable)}, "
                f"deaths={self.worker_deaths}, respawns={self.respawns})")


def _make_placeholder(service, worker_id: int):
    """A dead stand-in handle reserving a dynamic slot index."""
    from .sharded import _WorkerHandle

    class _NeverAlive:
        pid = None

        @staticmethod
        def is_alive() -> bool:
            return False

        @staticmethod
        def terminate() -> None:
            pass

        @staticmethod
        def join(timeout=None) -> None:
            pass

    return _WorkerHandle(worker_id, _NeverAlive())
