"""Elastic shard fleet: the policy that respawns, rebalances and scales workers.

:class:`~repro.serving.sharded.ShardedRoutingService` on its own is
fail-stop: one worker death latches a :class:`ShardError` and the whole
front-end goes down.  That is the right contract for a batch benchmark, but
a long-lived serving session wants the opposite — worker processes *will*
die (OOM kills, node maintenance, plain bugs) and the session should keep
answering, identically, while the fleet heals.

:class:`FleetSupervisor` is that session's *policy*, and only that: the
front-end owns the slots, the tickets and the pipes, notices deaths and
re-scatters; the supervisor owns the routing table, the respawn budget,
the heartbeat and the scale/rebalance decisions, and drives the front-end
through a handful of public members (``lock``, ``workers``, ``serving``,
``closed``, ``batches_in_flight``, ``reserve_slot()``,
``install_worker()``, ``park_worker()``, ``fail()``, ``worker_died()``,
``worker_stats()``, ``metrics`` and the config attributes) — a stub with
those members is all its tests need.  Three behaviours, none of which
ever changes an answer:

* **failure recovery** — when the front-end reports a death, the
  supervisor publishes a table without the slot (the front-end then
  re-scatters the slot's unanswered shards to siblings: every worker can
  answer any query, from its own slice or from the lazily-loaded
  full-artifact *cover*) and respawns the worker in the background,
  regenerating its sub-artifact slice from the parent artifact if the file
  vanished.  In-flight and subsequent batches stay list-for-list identical
  to single-process serving; only latency spikes.  When the respawn budget
  (``respawn_limit``) is exhausted, the next death is answered with a
  typed :class:`FleetError` for the front-end to latch.  A heartbeat
  ``ping``/``pong`` over the existing pipes catches the one death a pipe
  cannot show: a worker that is alive but hung.
* **load rebalancing** — the source-hash partition map is adjusted against
  observed per-shard load using windowed hit-rate feedback
  (:class:`HitRateWindow`): cold sources are migrated first, so warm
  cache entries stay where they are.
* **elastic scaling** — sustained front-end queue depth (the
  ``pipeline_depth`` admission signal) scales the worker count up or down
  between ``min_workers`` and ``max_workers``; scaled-down workers drain
  and park, scale-ups prefer unparking before spawning fresh dynamic slots.

:class:`FleetConfig` holds the four settings a deployment can choose
(``min_workers``, ``max_workers``, ``heartbeat_interval``,
``respawn_limit``); the policy's thresholds — hang timeout, scaling
depths and patience, rebalancing cadence, fraction and window — are the
module constants below.

Routing goes through an **epoch-versioned table** (:class:`RoutingEpoch`);
tables are immutable and published under the service lock, and the scatter
path re-partitions whenever the epoch moved while it waited, so a scatter
can never race a migration.

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
from .sharded import ShardError
from .workloads import stable_node_hash

__all__ = ["FleetConfig", "FleetError", "FleetSupervisor", "HitRateWindow",
           "RoutingEpoch"]


class FleetError(ShardError):
    """The fleet could not keep the session alive (budget exhausted).

    Raised through the front-end's failure latch, so every in-flight and
    future caller sees it; ``pending_request_ids`` names the batches that
    were lost, exactly as on the base :class:`ShardError`.
    """


#: Policy constants.  A worker that has not answered a ping for
#: ``HANG_TIMEOUT`` seconds is reported dead; the fleet scales up (down)
#: after ``SUSTAIN_BEATS`` consecutive beats with the front-end's in-flight
#: batches at or above ``SCALE_UP_DEPTH`` (at or below
#: ``SCALE_DOWN_DEPTH``) of ``pipeline_depth``; every ``FEEDBACK_EVERY``-th
#: beat the rebalancer moves the coldest ``MIGRATE_FRACTION`` of the worst
#: shard's sources, once at least ``MIN_WINDOW`` cache probes have
#: accumulated since its last move.
HANG_TIMEOUT = 30.0
SCALE_UP_DEPTH = 0.75
SCALE_DOWN_DEPTH = 0.25
SUSTAIN_BEATS = 4
FEEDBACK_EVERY = 4
MIGRATE_FRACTION = 0.25
MIN_WINDOW = 64


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """The supervisor's four settings, each validated here and only here.

    ``max_workers=None`` means "the initial worker count" (no growth).
    Whether ``min_workers`` fits the initial worker count is
    :meth:`worker_bounds`'s check, since only the caller knows that count.
    """

    min_workers: int = 1
    max_workers: Optional[int] = None
    heartbeat_interval: float = 0.5
    respawn_limit: int = 3

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

    def worker_bounds(self, workers: int) -> Tuple[int, int]:
        """``(min_workers, max_workers)`` for a fleet of ``workers``."""
        if self.min_workers > workers:
            raise ValueError(
                f"min_workers ({self.min_workers}) must be <= the initial "
                f"worker count ({workers})")
        return (self.min_workers,
                workers if self.max_workers is None else self.max_workers)


class HitRateWindow:
    """Per-shard cache hit rates over the window since the last evaluation.

    The windowed-feedback core of the supervisor's rebalancer: given fresh
    per-worker :class:`~repro.serving.cache.ServingStats` snapshots,
    compute each shard's hit rate over the *delta* since the last evaluated window.
    Sub-threshold windows (fewer than :data:`MIN_WINDOW` probes in total)
    return ``None`` without advancing the baseline, so small windows
    accumulate across observations instead of being consumed and
    discarded.
    """

    __slots__ = ("num_shards", "_last_hits", "_last_misses")

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
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
        total_hits = [stats.cache_hits for stats in worker_stats]
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
                < MIN_WINDOW:
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
            # A supervisor bug must not kill the heartbeat: hang
            # detection and respawns have to outlive everything.
            continue


class FleetSupervisor:
    """The policy of one sharded front-end (see the module docstring).

    All mutable state here — the published table, per-source counts, the
    respawn queue and budget, pong times — is guarded by the *service's*
    lock, handed over once at construction: the scatter path, the
    collector and the beat thread already synchronise on it, so the
    supervisor adds no second lock order.  The front-end calls
    :meth:`worker_ready`, :meth:`worker_failed`, :meth:`worker_died` and
    :meth:`pong` with that lock held, after it has updated the slot.
    """

    def __init__(self, service, config: FleetConfig) -> None:
        self.config = config
        self._service_ref = weakref.ref(service)
        self._lock = service.lock
        self.base_slots = service.num_workers
        self.min_workers, self.max_workers = config.worker_bounds(
            service.num_workers)
        #: The published routing table; replaced, never mutated.
        self.table = RoutingEpoch(0, self.base_slots, {}, ())
        self._window = HitRateWindow(service.num_workers)
        # Monotonic counters, exposed via status() whether or not the
        # metrics registry is enabled.
        self.worker_deaths = 0
        self.respawns = 0
        self.migrated_pairs = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._respawns_started = 0
        self._source_counts: Dict[object, int] = {}
        # Slots awaiting install_worker.  A slot with a ``_spawn_time``
        # entry is a scale-up (written under the lock when it is queued,
        # so the worker's "ready" can never beat the bookkeeping); any
        # other queued slot is a respawn.
        self._respawn_queue: List[int] = []
        self._spawn_time: Dict[int, float] = {}
        self._death_time: Dict[int, float] = {}
        self._last_pong: Dict[int, float] = {}
        self._ping_seq = 0
        self._beats = 0
        self._high_beats = 0
        self._low_beats = 0
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

    # -- routing --------------------------------------------------------
    def partition(self, pairs) -> Tuple[int, List[Tuple[int, List]]]:
        """Scatter assignment under the current table (service lock held).

        Returns ``(epoch, [(worker_id, [(index, pair), ...]), ...])``; the
        caller re-partitions if the epoch moved while it waited for
        admission.  Observed source frequencies feed the rebalancer's
        cold-first migration order.
        """
        counts = self._source_counts
        for pair in pairs:
            counts[pair[0]] = counts.get(pair[0], 0) + 1
        if len(counts) > 131072:
            # Bound the frequency map on huge keyspaces: drop the cold
            # half (they were the migration candidates anyway; losing
            # their counts only delays, never corrupts, a migration).
            keep = sorted(counts.items(), key=lambda kv: kv[1],
                          reverse=True)[:65536]
            self._source_counts = dict(keep)
        return self.table.epoch, self.table.assign(enumerate(pairs))

    def _publish(self, service,
                 overrides: Optional[Dict[object, int]] = None,
                 without=None) -> None:
        """Publish a new epoch over the serving slots, minus ``without``
        (service lock held by the caller)."""
        routable = tuple(w.worker_id for w in service.serving
                         if w is not without)
        if overrides is None:
            overrides = self.table.overrides
        self.table = RoutingEpoch(self.table.epoch + 1, self.base_slots,
                                  dict(overrides), routable)

    # -- slot events, called by the front-end with the lock held --------
    def pong(self, worker_id: int) -> None:
        self._last_pong[worker_id] = time.monotonic()

    def worker_ready(self, worker_id: int) -> None:
        """A respawned or scaled-up worker finished warming and its slot
        is serving again: account for it and route to it."""
        service = self._service_ref()
        now = time.monotonic()
        self._last_pong[worker_id] = now
        self._window.resize(len(service.workers))
        self._window.reset_shard(worker_id)
        overrides = None
        spawned_at = self._spawn_time.pop(worker_id, None)
        if spawned_at is None:
            self.respawns += 1
            died_at = self._death_time.pop(worker_id, None)
            if service.metrics.enabled:
                service.metrics.counter("fleet_respawns").inc()
                if died_at is not None:
                    service.metrics.histogram("respawn").observe(
                        now - died_at)
        else:
            self.scale_ups += 1
            if service.metrics.enabled:
                service.metrics.histogram("scale").observe(now - spawned_at)
            if worker_id >= self.base_slots:
                # Fresh dynamic slot: nothing hashes to it, so seed it
                # with the coldest observed sources (hot sources keep
                # their warm caches where they are).
                overrides = self._seed_dynamic_slot(service, worker_id)
        self._publish(service, overrides)

    def worker_failed(self, worker_id: int,
                      summary: str) -> Optional[FleetError]:
        """A warming worker could not load its artifact: a failed
        scale-up is dropped, a failed respawn is retried within the
        budget."""
        if self._spawn_time.pop(worker_id, None) is not None:
            return None
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
        self._window.reset_shard(worker_id)
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
        alive but hung — and does the slow work: respawns, scaling,
        rebalancing.
        """
        service = self._service_ref()
        if service is None or self._stop.is_set() or service.closed:
            return False
        self._beats += 1
        self._check_hangs(service)
        self._send_pings(service)
        self._run_respawns(service)
        self._observe_depth(service)
        self._maybe_scale(service)
        if self._beats % FEEDBACK_EVERY == 0:
            self._maybe_rebalance(service)
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
        """Execute queued respawns/unparks/scale-ups (beat thread, slow
        path: slice regeneration and the process spawn run outside the
        lock).  The new worker's ``ready`` comes back through the
        front-end as :meth:`worker_ready`."""
        while True:
            with self._lock:
                if not self._respawn_queue:
                    return
                worker_id = self._respawn_queue.pop(0)
            paths = service.sub_artifact_paths
            if (paths is not None and worker_id < len(paths)
                    and not os.path.exists(paths[worker_id])):
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

    def _observe_depth(self, service) -> None:
        with self._lock:
            depth = service.batches_in_flight
            if service.metrics.enabled:
                service.metrics.gauge("fleet_queue_depth").set(depth)
        ratio = depth / service.pipeline_depth
        self._high_beats = (self._high_beats + 1
                            if ratio >= SCALE_UP_DEPTH else 0)
        self._low_beats = (self._low_beats + 1
                           if ratio <= SCALE_DOWN_DEPTH else 0)

    # -- elastic scaling ------------------------------------------------
    def _maybe_scale(self, service) -> None:
        with self._lock:
            if self._respawn_queue or any(w.state == "warming"
                                          for w in service.workers):
                return  # one lifecycle operation at a time
            active = len(service.serving)
        if (self._high_beats >= SUSTAIN_BEATS
                and active < self.max_workers):
            self._high_beats = 0
            self._scale_up(service)
        elif (self._low_beats >= SUSTAIN_BEATS
                and active > self.min_workers):
            self._low_beats = 0
            self._scale_down(service)

    def _scale_up(self, service) -> None:
        """Queue one more worker: unpark before reserving a fresh slot."""
        with self._lock:
            if service.closed:
                return
            parked = [w.worker_id for w in service.workers
                      if w.state == "parked"]
            slot = parked[-1] if parked else service.reserve_slot()
            self._spawn_time[slot] = time.monotonic()
            self._respawn_queue.append(slot)

    def _scale_down(self, service) -> None:
        start = time.monotonic()
        with self._lock:
            serving = service.serving
            if service.closed or len(serving) <= self.min_workers:
                return
            victim = serving[-1]
            # Redirect migrated sources off the victim, then publish the
            # exclusion *before* it is told to exit: after this epoch no
            # scatter targets it, and FIFO guarantees it answers
            # everything already queued before saying bye.
            overrides = {source: slot
                         for source, slot in self.table.overrides.items()
                         if slot != victim.worker_id}
            self._publish(service, overrides, without=victim)
            self.scale_downs += 1
            service.park_worker(victim)
            if service.metrics.enabled:
                service.metrics.histogram("scale").observe(
                    time.monotonic() - start)

    def _seed_dynamic_slot(self, service,
                           worker_id: int) -> Dict[object, int]:
        """Overrides moving the coldest sources to a new slot: its fair
        share, one ``len(serving)``-th — the new slot is already serving
        and counted once (lock held)."""
        ranked = sorted(self._source_counts.items(),
                        key=lambda kv: (kv[1], str(kv[0])))
        quota = len(ranked) // len(service.serving)
        overrides = dict(self.table.overrides)
        for source, _ in ranked[:quota]:
            overrides[source] = worker_id
        self.migrated_pairs += quota
        if quota and service.metrics.enabled:
            service.metrics.counter("fleet_migrated_pairs").inc(quota)
        return overrides

    # -- load rebalancing ------------------------------------------------
    def _maybe_rebalance(self, service) -> None:
        """Migrate cold sources off the worst-performing shard.

        The shard with the lowest windowed hit rate
        (:class:`HitRateWindow`) is thrashing its cache (too many
        distinct sources), so its *coldest* observed sources move to the
        best shard — the hot ones keep their warm entries.
        """
        with self._lock:
            routable = [w.worker_id for w in service.serving]
        if len(routable) < 2:
            return
        try:
            worker_stats = service.worker_stats()
        except ShardError:
            return
        start = time.monotonic()
        with self._lock:
            if service.closed:
                return
            self._window.resize(len(service.workers))
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
            table = self.table
            ranked = sorted(
                ((count, source)
                 for source, count in self._source_counts.items()
                 if table.slot_of(source) == worst),
                key=lambda item: (item[0], str(item[1])))
            quota = max(1, int(len(ranked) * MIGRATE_FRACTION))
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
        service = self._service_ref()
        table = self.table
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
            out["workers"] = {str(w.worker_id): w.state
                              for w in service.workers}
        return out

    def __repr__(self) -> str:
        return (f"FleetSupervisor(epoch={self.table.epoch}, "
                f"routable={list(self.table.routable)}, "
                f"deaths={self.worker_deaths}, respawns={self.respawns})")
