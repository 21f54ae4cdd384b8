"""Multi-process sharded serving: fan one query stream across worker processes.

:class:`~repro.serving.service.RoutingService` is bound to a single Python
process, so the GIL caps its route throughput no matter how good the cache
hit rate is.  The artifact layer already makes a built hierarchy shareable
across processes — versioned, checksummed, query-identical on reload — which
makes the multi-process step cheap: build once in the parent, ``save``, and
let every worker ``load`` the same artifact and answer its share of the
stream with a local :class:`RoutingService`.

:class:`ShardedRoutingService` keeps one hard invariant: its answers are
list-for-list identical to a single-process :class:`RoutingService` on the
same workload.  Sharding changes *where* a query is answered, never *what*
the answer is: every worker maps the full artifact, so any worker can answer
any pair.  One round-robin table (:class:`RoutingEpoch`) scatters every
batch: item ``i`` goes to ``routable[i % len(routable)]`` — slot ``i % N``
while all ``N`` slots are live — which balances load to within one pair per
batch whatever the stream holds.

Sharding buys two things:

* **CPU parallelism** — N workers route on N cores (processes, not threads,
  so the GIL is out of the picture);
* **aggregate cache capacity** — N workers with per-worker LRU capacity C
  hold N·C results; a stream whose distinct-pair set thrashes one bounded
  cache can fit entirely in the sharded caches
  (``benchmarks/bench_shard_scaling.py`` measures exactly this regime).

Scatter/gather is **pipelined** (the PR-8 transport refactor): the
front-end may keep several batches in flight at once.  :meth:`submit_batch`
assigns a batch through the table, applies admission control, and hands
each shard to its :class:`~repro.serving.worker.Worker` endpoint without
waiting for answers; a background *collector* thread multiplexes the
workers' result pipes and completes tickets as workers answer;
:meth:`wait_batch` blocks on one ticket.  ``route_batch`` /
``distance_batch`` stay strictly synchronous (submit + wait), so
sequential callers see exactly the old behaviour, while pipelined
drivers (a network session's reader thread, concurrent sessions, the
benchmarks) overlap batch serialization with worker compute and keep
every worker's task pipe non-empty.  Two knobs bound the pipeline:
``pipeline_depth`` caps front-end-wide outstanding batches and
``max_inflight`` caps per-worker outstanding batches; at either bound
``admission="block"`` delays the submitter (the ``inflight_wait``
telemetry span) and ``admission="reject"`` raises
:class:`~repro.serving.wire.BackpressureError` instead.

A ticket remembers the *form* its submitter wants — objects
(``submit_batch``, every in-process caller) or each answer's canonical
wire text (``submit_texts``, a network session forwarding cached routes);
it travels with every shard, including those re-sent after a death.

One owner per fact.  :mod:`repro.serving.worker` owns the pipes, the
message tuples and the worker process; this module owns the *slots* (the
list of endpoints and each one's ``state``), the *tickets* (which shard of
which batch is still owed by which slot), the *windows* (per-slot
in-flight counts) and the routing *table* (:class:`RoutingEpoch`, the one
scatter rule); the optional :class:`~repro.serving.fleet.FleetSupervisor`
makes every policy decision, including when a new table is published.
A worker's death has one path, :meth:`ShardedRoutingService.worker_died`,
whoever notices it — the collector (the result pipe's EOF), a submitter
(a task write found no reader) or the supervisor (a hung worker it
terminated).  Without a supervisor the death latches a
:class:`ShardError` and fail-stops the front-end (all workers are shut
down, every in-flight ticket completes with the error); with one, the
supervisor either supplies the error (budget exhausted) or the dead
slot's unanswered shards are re-scattered to siblings by the one
re-scatter, :meth:`ShardedRoutingService._reassign`.

Worker lifecycle: spawn → warm (load the artifact, signal ready) → serve
query batches (order-preserving scatter/gather) → drain and shut down, each
worker returning its final :class:`~repro.serving.cache.ServingStats`, which
:meth:`ServingStats.merge` folds into one aggregate.  Workers are daemonic;
an exception inside a worker's query fail-stops the front-end in either
mode.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import threading
import time
import warnings
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import make_registry, merge_exports
from .cache import ServingStats
from .config import CacheConfig
from .wire import BackpressureError
from .worker import Worker, _poll_channels

__all__ = ["ShardedRoutingService", "ShardError", "BackpressureError",
           "RoutingEpoch"]

_Pair = Tuple[Hashable, Hashable]


class ShardError(RuntimeError):
    """A shard worker failed to warm up, answer, or reply in time.

    ``worker_traceback`` carries the remote traceback text when the failure
    originated from an exception inside a worker (empty otherwise).
    ``pending_request_ids`` records which submitted batches (the
    ``request_id`` of their tickets) were still in flight when the failure
    latched, so callers — and the fleet supervisor — can retry precisely
    instead of guessing which answers were lost.
    """

    def __init__(self, message: str, worker_traceback: str = "",
                 pending_request_ids: Sequence[int] = ()) -> None:
        if worker_traceback:
            message = (f"{message}\n--- worker traceback ---\n"
                       f"{worker_traceback.rstrip()}")
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.pending_request_ids: Tuple[int, ...] = tuple(pending_request_ids)


class RoutingEpoch:
    """One immutable published routing table: the slots a scatter may use.

    Item ``(index, pair)`` goes to ``routable[index % len(routable)]``.
    With every slot live that is slot ``index % base_slots``; with a slot
    dead its share spreads over the survivors, whose loads differ by at
    most one item per batch.  A fresh scatter and the re-scatter of a dead
    slot's shards apply the same rule, and the table is replaced, never
    mutated, so one batch is never split by two tables.
    """

    __slots__ = ("epoch", "base_slots", "routable")

    def __init__(self, epoch: int, base_slots: int,
                 routable: Sequence[int]) -> None:
        self.epoch = epoch
        self.base_slots = base_slots
        self.routable = tuple(sorted(routable))

    def slot_of(self, index: int) -> int:
        if not self.routable:
            raise ShardError("no routable workers (all slots dead)")
        return self.routable[index % len(self.routable)]

    def assign(self, items) -> List[Tuple[int, List]]:
        """Group ``(index, pair)`` items by slot: ``[(slot, [item, ...]),
        ...]`` in slot order, stream order kept within a slot."""
        routable = self.routable
        if not routable:
            raise ShardError("no routable workers (all slots dead)")
        width = len(routable)
        shards: Dict[int, List] = {}
        for item in items:
            shards.setdefault(routable[item[0] % width], []).append(item)
        return sorted(shards.items())

    def __repr__(self) -> str:
        return (f"RoutingEpoch(epoch={self.epoch}, "
                f"base_slots={self.base_slots}, "
                f"routable={list(self.routable)})")


def _collector_main(service_ref, stop: threading.Event) -> None:
    """Collector thread body (module-level, weakref-based on purpose).

    The thread must not pin the front-end alive: a bound-method target
    would hold a strong reference forever and ``__del__`` — the unclosed-
    service ``ResourceWarning`` contract — could never fire.  The service
    is re-derefed only for the microseconds a snapshot is taken, a
    message dispatched or the slots scanned for a death; while blocked in
    ``select`` the thread holds nothing but the pipe lists and the
    backlog deque.  The scan runs on *every* pass, not only idle ones: a
    busy sibling must never postpone noticing a dead worker.
    """
    while not stop.is_set():
        service = service_ref()
        if service is None:
            return
        backlog = service._result_backlog
        channels, senders = service._live_pipes()
        del service
        message = _poll_channels(channels, backlog, 0.1, senders)
        service = service_ref()
        if service is None:
            return
        if message is not None:
            service._dispatch(message)
        service._scan_liveness()
        del service


#: Pseudo slot holding shards orphaned while no worker was routable; the
#: ticket stays incomplete (nobody reads a half-filled result list) until
#: a worker turns ready and :meth:`ShardedRoutingService._reassign` drains
#: it.  Never collides with real ids (always >= 0).
_DEFERRED_SLOT = -1


class _BatchTicket:
    """One in-flight batch: filled in by the collector, awaited by callers.

    ``outstanding`` maps ``worker_id -> [shard, ...]`` where each shard is
    the ``[(index, pair), ...]`` list sent in one ``("query", ...)``
    message, oldest first.  Workers answer their queue in FIFO order, so
    an ``"ok"`` always retires the *first* shard in its worker's list —
    and on worker death the shards still listed are exactly the
    unanswered ones, ready to be re-scattered verbatim to siblings.
    """

    __slots__ = ("request_id", "kind", "text", "results", "outstanding",
                 "done", "error")

    def __init__(self, request_id: int, kind: str, text: bool, size: int,
                 outstanding: Optional[Dict[int, List]] = None) -> None:
        self.request_id = request_id
        self.kind = kind
        self.text = text
        self.results: List = [None] * size
        self.outstanding: Dict[int, List] = outstanding or {}
        self.done = threading.Event()
        self.error: Optional[ShardError] = None
        if not self.outstanding:
            self.done.set()


class ShardedRoutingService:
    """Serve batched queries by scattering them across N worker processes.

    Parameters
    ----------
    artifact_path:
        Persisted hierarchy every worker loads (must already exist;
        :func:`~repro.serving.backend.open_service` builds it first).
    num_workers:
        Worker process count (>= 1).
    cache_config:
        Per-worker result-cache size as a
        :class:`~repro.serving.config.CacheConfig`; each worker caches
        only the pairs scattered to it, so aggregate capacity is
        ``num_workers * cache_config.capacity``.  Defaults to
        ``CacheConfig()``.
    pipeline_depth:
        Maximum batches in flight front-end-wide; :meth:`submit_batch`
        past this bound blocks or rejects per ``admission``.
    max_inflight:
        Maximum outstanding batches per worker (the in-flight window that
        overlaps batch serialization with worker compute).
    admission:
        ``"block"`` delays submitters at the bounds (recorded in the
        ``inflight_wait`` span); ``"reject"`` raises
        :class:`~repro.serving.wire.BackpressureError` immediately.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
    graph:
        Optional graph handle kept for workload generation; queries are
        *not* validated against it in the parent — an invalid node raises in
        the owning worker and surfaces as :class:`ShardError`.
    stats:
        Front-end counters (scatter batches, query volumes).  Per-worker
        serving stats live in the workers; see :meth:`merged_stats`.
    fleet:
        A :class:`~repro.serving.fleet.FleetConfig` puts the front-end
        under a :class:`~repro.serving.fleet.FleetSupervisor`; ``None``
        (the default) keeps it fail-stop.
    """

    def __init__(self, artifact_path: str, num_workers: int = 2,
                 cache_config: Optional[CacheConfig] = None,
                 pipeline_depth: int = 8, max_inflight: int = 4,
                 admission: str = "block",
                 start_method: Optional[str] = None,
                 warm_timeout: float = 120.0, reply_timeout: float = 300.0,
                 graph: Optional[WeightedGraph] = None,
                 stats: Optional[ServingStats] = None,
                 kernel: str = "auto", telemetry: bool = False,
                 fleet=None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, "
                             f"got {pipeline_depth}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, "
                             f"got {max_inflight}")
        if admission not in ("block", "reject"):
            raise ValueError(f"admission must be 'block' or 'reject', "
                             f"got {admission!r}")
        if not os.path.exists(artifact_path):
            raise FileNotFoundError(
                f"artifact {artifact_path!r} does not exist; build it first "
                f"(e.g. via repro.serving.open_service)")
        if cache_config is None:
            cache_config = CacheConfig()
        self.artifact_path = artifact_path
        self.num_workers = num_workers
        self.cache_config = cache_config
        self.pipeline_depth = pipeline_depth
        self.max_inflight = max_inflight
        self.admission = admission
        self.kernel = kernel
        self.telemetry = telemetry
        #: Front-end registry: scatter/gather/inflight_wait spans and the
        #: queue-depth histogram live here; per-worker span histograms live
        #: in the workers and merge through ``ServingStats.merge`` (see
        #: :meth:`merged_stats`).  Recording happens under ``_lock`` — the
        #: registry itself is not thread-safe, the pipeline is.
        self.metrics = make_registry(telemetry)
        self.graph = graph
        self.stats = stats if stats is not None else ServingStats()
        self.stats.extra.setdefault("workers", num_workers)
        self.stats.extra.setdefault("kernel_requested", kernel)
        self.stats.extra.setdefault("artifact_path", artifact_path)
        self._ctx = multiprocessing.get_context(start_method)
        self._warm_timeout = warm_timeout
        self._reply_timeout = reply_timeout
        #: The slots: ``_workers[i].worker_id == i`` always.
        self._workers: List[Worker] = []
        #: The published routing table: every slot, until a fleet
        #: supervisor publishes one without a dead slot (fail-stop mode
        #: never replaces it).  Read and replaced under ``_lock``.
        self.table = RoutingEpoch(0, num_workers, range(num_workers))
        # Parsed-but-undelivered worker messages; consumed by exactly one
        # thread at a time (warm-up, then the collector, then the drain).
        self._result_backlog: collections.deque = collections.deque()
        # Endpoints replaced by install_worker: retired (out of the select
        # set) but closed only by close(), so their fd numbers cannot be
        # reused while the collector might still hold a stale reference.
        self._retired: List[Worker] = []
        # (result pipes, task pipes) the collector selects on.  Set to
        # None under ``_lock`` wherever an endpoint is installed; a dead
        # worker's result pipe drops out when it reaches EOF (see
        # _live_pipes).
        self._pipe_snapshot: Optional[Tuple[List, List]] = None
        self._next_probe = 0.0      # the clocked is_alive() backstop
        self._request_counter = 0
        self._started = False
        self._closed = False
        self._final_worker_stats: List[ServingStats] = []
        self._undrained_workers: List[int] = []
        # Pipeline state: one lock/condition guards tickets, per-worker
        # in-flight counts, stats waiters, the routing table and the
        # metrics registry; the collector thread completes tickets and
        # notifies.
        self._lock = threading.RLock()
        self._can_submit = threading.Condition(self._lock)
        self._tickets: Dict[int, _BatchTicket] = {}
        self._inflight: Dict[int, int] = {}
        self._stats_waiters: List[Dict] = []
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()
        self._failure: Optional[ShardError] = None
        self._close_lock = threading.Lock()
        # Fleet mode: a FleetSupervisor decides respawns and publishes
        # the routing table.  Imported lazily so the base sharded path
        # never touches the fleet module.
        self._fleet = None
        if fleet is not None:
            from .fleet import FleetConfig, FleetSupervisor
            if not isinstance(fleet, FleetConfig):
                raise ValueError(f"fleet must be a FleetConfig or None, "
                                 f"got {fleet!r}")
            if num_workers < 2:
                raise ValueError(
                    f"fleet mode needs num_workers >= 2 (siblings take a "
                    f"dead worker's share), got {num_workers}")
            self._fleet = FleetSupervisor(self, fleet)
            self.stats.extra.setdefault("fleet", True)

    # ==================================================================
    # slots: what the fleet supervisor sees and drives (it is handed
    # ``lock`` once; every other member here is called with it held,
    # except install_worker and worker_died, which take it themselves)
    # ==================================================================
    @property
    def lock(self) -> threading.Condition:
        return self._can_submit

    @property
    def workers(self) -> List[Worker]:
        return self._workers

    @property
    def serving(self) -> List[Worker]:
        """The slots a scatter may target."""
        return [w for w in self._workers if w.state == "alive"]

    @property
    def closed(self) -> bool:
        """No more work will be served: closed, or a failure is latched
        (the first waiter to see it closes the service)."""
        return self._closed or self._failure is not None

    def _spawn(self, worker_id: int) -> Worker:
        """Spawn the process for slot ``worker_id``; the caller installs it."""
        return Worker.spawn(self._ctx, worker_id, self.artifact_path,
                            self.cache_config, self.kernel, self.telemetry)

    def install_worker(self, worker_id: int) -> bool:
        """Spawn a fresh ``warming`` worker into a dead slot; its
        ``ready`` arrives through the collector.  The spawn runs
        outside the lock, only the swap is locked.  False once closed."""
        fresh = self._spawn(worker_id)
        fresh.state = "warming"
        with self._can_submit:
            if self._closed:
                fresh.stop()
                fresh.close()
                return False
            old = self._workers[worker_id]
            old.retire()
            self._retired.append(old)
            self._workers[worker_id] = fresh
            self._pipe_snapshot = None
            self._inflight[worker_id] = 0
        return True

    def worker_died(self, worker: Worker, why: str) -> None:
        """The one death path: ``worker`` will never answer again.

        Reached from the collector's scan (:meth:`_scan_liveness`), from a
        task write that found no reader (:meth:`_finish_sends`) and from
        the supervisor's hang detector; idempotent per endpoint, so it
        does not matter who gets here first.  Marks the slot dead, zeroes
        its window and asks the supervisor — if there is one — whether
        the fleet can go on.  It is the only place that chooses between
        recovering (re-scatter what the slot still owed) and latching;
        static mode differs only in supplying the error itself.
        """
        with self._can_submit:
            if (self.closed or worker.state != "alive"
                    or self._workers[worker.worker_id] is not worker):
                return      # teardown, known, or a respawn replaced it
            worker.state = "dead"
            self._inflight[worker.worker_id] = 0
            if self._fleet is None:
                error = ShardError(f"worker {worker.worker_id} died ({why})")
            else:
                error = self._fleet.worker_died(worker.worker_id, why)
            if error is not None:
                self.fail(error)
                return
            self._reassign(worker.worker_id)
            self._can_submit.notify_all()

    def _reassign(self, slot: int) -> None:
        """The one re-scatter (lock held): everything tickets still list
        under ``slot`` — a dead worker's unanswered shards (FIFO
        bookkeeping says exactly which those are) or the deferred
        pseudo-slot's stash — goes to the current table's slots, or into
        the stash when nothing is routable; pending stats requests get a
        placeholder for a worker that will never answer them."""
        table = self.table
        for ticket in list(self._tickets.values()):
            shards = ticket.outstanding.pop(slot, None)
            if not shards:
                continue
            items = [item for shard in shards for item in shard]
            if not table.routable:
                ticket.outstanding.setdefault(_DEFERRED_SLOT,
                                              []).append(items)
                continue
            for target, shard in table.assign(items):
                ticket.outstanding.setdefault(target, []).append(shard)
                self._inflight[target] = self._inflight.get(target, 0) + 1
                # Never waits (this may be the collector thread): the
                # collector finishes what a full pipe does not take, and
                # a sibling that is dead too is caught by the next scan.
                self._workers[target].query(ticket.request_id, ticket.kind,
                                            shard, ticket.text)
        self._fill_stats(slot, ServingStats(), every=True)

    def fail(self, error: ShardError) -> None:
        """Fail-stop latch: every current and future caller sees ``error``."""
        with self._can_submit:
            if self._failure is None:
                if not error.pending_request_ids:
                    # Record which submitted batches were lost so callers
                    # can retry precisely instead of replaying everything.
                    error.pending_request_ids = tuple(sorted(self._tickets))
                self._failure = error
            for ticket in self._tickets.values():
                ticket.error = self._failure
                ticket.done.set()
            self._tickets.clear()
            for waiter in self._stats_waiters:
                waiter["error"] = self._failure
                waiter["done"].set()
            self._stats_waiters.clear()
            self._can_submit.notify_all()

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> "ShardedRoutingService":
        """Spawn the workers and block until every one has warmed up."""
        if self._closed:
            raise ShardError("sharded service is closed")
        if self._started:
            return self
        for worker_id in range(self.num_workers):
            self._workers.append(self._spawn(worker_id))
        ready = 0
        load_seconds: List[float] = []
        deadline = time.monotonic() + self._warm_timeout
        while ready < self.num_workers:
            message = self._next_message(
                timeout=min(0.1, max(0.01, deadline - time.monotonic())))
            if message is None:
                if time.monotonic() >= deadline:
                    self._abort()
                    raise ShardError(
                        f"only {ready}/{self.num_workers} workers warmed "
                        f"up within {self._warm_timeout}s")
                continue
            if message[0] == "failed":
                self._abort()
                raise ShardError(
                    f"worker {message[1]} failed to load "
                    f"{self.artifact_path!r}: {message[2]}")
            if message[0] == "ready":
                ready += 1
                if message[2] is not None:
                    load_seconds.append(message[2])
        if load_seconds:
            self.stats.extra["worker_load_seconds_max"] = max(load_seconds)
        self._inflight = {w.worker_id: 0 for w in self._workers}
        self._collector_stop.clear()
        self._collector = threading.Thread(
            target=_collector_main,
            args=(weakref.ref(self), self._collector_stop),
            name="repro-shard-collector", daemon=True)
        self._collector.start()
        self._started = True
        if self._fleet is not None:
            self._fleet.start()
        return self

    def close(self, drain: bool = True,
              timeout: float = 30.0) -> List[ServingStats]:
        """Shut the workers down; returns their final stats when drained.

        With ``drain=True`` the front-end first waits for every in-flight
        ticket to complete (no submitted batch is abandoned), then each
        live worker finishes its queued work, sends a final stats
        snapshot, and exits; stragglers past ``timeout`` are terminated.
        ``drain=False`` terminates immediately (the fail-stop path).
        Idempotent; after closing, queries raise :class:`ShardError`.
        """
        with self._close_lock:
            if self._closed:
                return list(self._final_worker_stats)
            self._closed = True
            if not self._started:
                return []
            if self._fleet is not None:
                # Stop the supervisor first: no respawn may race the
                # teardown below.
                self._fleet.stop()
            deadline = time.monotonic() + timeout
            if drain:
                # In-flight tickets complete through the collector before
                # any worker is asked to exit.
                with self._can_submit:
                    while (self._tickets and self._failure is None
                           and time.monotonic() < deadline):
                        self._can_submit.wait(timeout=0.1)
            self._stop_collector()
            final_stats: List[ServingStats] = []
            if drain:
                expecting = {w.worker_id for w in self._workers
                             if w.is_alive() and w.shutdown()}
                while expecting and time.monotonic() < deadline:
                    message = self._next_message(timeout=0.05)
                    if message is None:
                        continue
                    # Late "ok"/"stats" replies from interrupted requests
                    # are skipped; only the final per-worker snapshot is
                    # kept.
                    if message[0] == "bye":
                        final_stats.append(message[2])
                        expecting.discard(message[1])
                # Stragglers past the deadline get terminated below and
                # their final snapshots are lost; record who, so
                # merged_stats can say its totals are incomplete instead of
                # silently under-counting.  Dead slots never made it into
                # ``expecting`` (their process was gone) and are expected
                # to be missing.
                self._undrained_workers = sorted(expecting)
            # Drained workers were asked to exit and get a moment to; on
            # the fail-stop path nobody was asked, so don't wait.
            for worker in self._workers + self._retired:
                worker.stop(grace=5.0 if drain else 0.0)
                worker.close()
            self._retired = []
            self._final_worker_stats = final_stats
            # Wake anyone still blocked in submit/wait with a clear error.
            with self._can_submit:
                if self._tickets or self._stats_waiters:
                    self.fail(self._failure or ShardError(
                        "sharded service closed with batches in flight"))
                self._can_submit.notify_all()
            return list(final_stats)

    def _stop_collector(self) -> None:
        self._collector_stop.set()
        if (self._collector is not None
                and self._collector is not threading.current_thread()):
            self._collector.join(timeout=5.0)
        self._collector = None

    def _abort(self) -> None:
        """Fail-stop: kill every worker without draining."""
        self.close(drain=False)

    def __enter__(self) -> "ShardedRoutingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __del__(self) -> None:
        # Implicit teardown of a still-running front-end is a bug in the
        # caller (worker processes and their final stats are silently
        # discarded), so say so instead of swallowing it — the same
        # contract as an unclosed file or socket.
        try:
            if self._started and not self._closed:
                warnings.warn(f"unclosed {self!r}: ShardedRoutingService "
                              f"was garbage-collected while its workers "
                              f"were still running; call close() or use it "
                              f"as a context manager",
                              ResourceWarning, source=self, stacklevel=2)
                self.close(drain=False)
        except BaseException:
            pass

    @property
    def is_running(self) -> bool:
        if not self._started or self._closed:
            return False
        if self._fleet is not None:
            # Fleet mode survives individual deaths: running means at
            # least one routable worker (the supervisor is respawning the
            # rest, or has latched a FleetError if it cannot).
            return self._failure is None and any(
                w.is_alive() for w in self.serving)
        return all(w.is_alive() for w in self._workers)

    # ==================================================================
    # collector: completes tickets from the per-worker result pipes
    # ==================================================================
    def _next_message(self, timeout: float):
        """The next worker→parent message, or ``None`` after ``timeout``.

        Thin wrapper over :func:`~repro.serving.worker._poll_channels`
        against the current pipe snapshot.  Consumed by one thread at a
        time: ``start()`` during warm-up, the collector while serving,
        and ``close()`` during the drain (the collector itself snapshots
        and polls directly so it never holds the service while blocked).
        """
        channels, senders = self._live_pipes()
        return _poll_channels(channels, self._result_backlog, timeout,
                              senders)

    def _live_pipes(self) -> Tuple[List, List]:
        """``(result pipes, task pipes)`` of the current workers.

        Cached: a message costs no lock and no list build.  Rebuilt after
        an invalidation (an endpoint was installed) or once a result pipe
        in the snapshot is exhausted — EOF from a dead worker, or a
        respawn retiring it — which would otherwise read as ready
        forever.
        """
        snapshot = self._pipe_snapshot
        if snapshot is None or any(c.exhausted for c in snapshot[0]):
            with self._lock:
                spawned = [w for w in self._workers if w.process is not None]
                snapshot = (
                    [w.results for w in spawned if not w.results.exhausted],
                    [w.tasks for w in spawned if not w.tasks.exhausted])
                self._pipe_snapshot = snapshot
        return snapshot

    def _scan_liveness(self) -> None:
        """Notice workers that died without a word (OOM kill, segfault),
        serving or still warming — see :meth:`Worker.lost` for the signal.
        Called on every collector pass; the ``is_alive()`` backstop inside
        it is clocked to one probe per 0.1 s."""
        if self._fleet is None:
            with self._lock:
                if not self._tickets and not self._stats_waiters:
                    # Static mode fail-stops, so an idle dead worker is
                    # left for the submit that finds it (which still
                    # returns its ticket, completed with the error).
                    return
        now = time.monotonic()
        probe = now >= self._next_probe
        if probe:
            self._next_probe = now + 0.1
        for worker in self._workers:
            state = worker.state
            why = worker.lost(probe) if state in ("alive", "warming") else None
            if why is None:
                continue
            if state == "alive":
                self.worker_died(worker, why)
            else:
                with self._can_submit:
                    self._warm_up_failed(worker, f"died while warming ({why})")

    def _finish_sends(self, workers: Sequence[Worker],
                      deadline: float) -> None:
        """Wait, holding no service lock, for frames just queued for
        ``workers`` to fit into their pipes, and report dead workers.

        The wait is the submitter's backpressure for a worker that is not
        reading yet.  It must happen outside ``_can_submit``: the
        collector needs that lock to retire results, a worker blocked
        writing results does not read tasks, and a submitter blocked on
        that worker's full task pipe with the lock held would close the
        cycle.
        """
        for worker in workers:
            if not worker.finish_sends(deadline):
                self.worker_died(worker, "its task pipe has no reader")

    def _dispatch(self, message) -> None:
        tag, worker_id = message[0], message[1]
        if tag == "ok":
            _, _, request_id, indexed = message
            with self._can_submit:
                ticket = self._tickets.get(request_id)
                if ticket is None:
                    return  # late reply from an aborted request
                shards = ticket.outstanding.get(worker_id)
                if not shards:
                    # Late reply from a worker whose shard was already
                    # re-scattered to a sibling after its (apparent)
                    # death; the sibling's answers are identical, so
                    # dropping this one is safe either way.
                    return
                for index, value in indexed:
                    ticket.results[index] = value
                # Workers answer their task queue in FIFO order, so this
                # reply retires the oldest outstanding shard.
                shards.pop(0)
                if not shards:
                    del ticket.outstanding[worker_id]
                self._inflight[worker_id] = max(
                    0, self._inflight.get(worker_id, 0) - 1)
                if not ticket.outstanding:
                    del self._tickets[request_id]
                    ticket.done.set()
                self._can_submit.notify_all()
            return
        if tag == "error":
            _, _, request_id, summary, worker_tb = message
            self.fail(ShardError(
                f"worker {worker_id} failed answering batch: {summary}",
                worker_traceback=worker_tb))
            return
        with self._can_submit:
            worker = self._workers[worker_id]
            if tag == "stats":
                self._fill_stats(worker_id, message[2])
            elif self._fleet is None or self.closed:
                return  # nobody to tell (start() consumed its own warm-up)
            elif tag == "pong":
                self._fleet.pong(worker_id)
            elif tag == "ready" and worker.state == "warming":
                # A respawned worker finished warming: route to it,
                # starting with what was deferred.
                worker.state = "alive"
                self._fleet.worker_ready(worker_id)
                self._reassign(_DEFERRED_SLOT)
                self._can_submit.notify_all()
            elif tag == "failed":
                self._warm_up_failed(worker, message[2])

    def _warm_up_failed(self, worker: Worker, summary: str) -> None:
        """A warming worker said ``failed`` or exited first (lock held): its
        slot is dead again; the supervisor retries, drops it or latches."""
        if worker.state != "warming" or self.closed:
            return
        worker.state = "dead"
        error = self._fleet.worker_failed(worker.worker_id, summary)
        if error is not None:
            self.fail(error)

    def _fill_stats(self, worker_id: int, snapshot: ServingStats,
                    every: bool = False) -> None:
        """``snapshot`` answers the oldest stats waiter still missing
        ``worker_id`` (a stats request enqueues one message per worker
        and workers reply FIFO) — or ``every`` such waiter, with the
        placeholder of a worker that died and will answer none, so
        :meth:`worker_stats` completes instead of timing out (lock held).
        """
        for waiter in list(self._stats_waiters):
            if worker_id in waiter["remaining"]:
                waiter["remaining"].discard(worker_id)
                waiter["snapshots"][worker_id] = snapshot
                if not waiter["remaining"]:
                    self._stats_waiters.remove(waiter)
                    waiter["done"].set()
                if not every:
                    return

    # ==================================================================
    # queries (order-preserving scatter/gather, pipelined)
    # ==================================================================
    def route_batch(self, pairs: Sequence[_Pair]) -> List:
        """Route a batch; answers come back in input order."""
        return self.wait_batch(self.submit_batch("route", pairs))

    def distance_batch(self, pairs: Sequence[_Pair]) -> List[float]:
        """Distance estimates for a batch; answers in input order."""
        return self.wait_batch(self.submit_batch("distance", pairs))

    def submit_texts(self, kind: str, pairs: Sequence[_Pair]) -> _BatchTicket:
        """:meth:`submit_batch` for a ``ServerSession``: the ticket resolves
        to each answer's canonical v1 text, from the worker that caches it."""
        return self._submit(kind, pairs, True)

    def submit_batch(self, kind: str, pairs: Sequence[_Pair]) -> _BatchTicket:
        """Scatter one batch without waiting for its answers.

        Returns a ticket for :meth:`wait_batch`.  Applies admission
        control first: when ``pipeline_depth`` batches are already in
        flight, or any target worker is at its ``max_inflight`` window,
        the call blocks (``admission="block"``, timed into the
        ``inflight_wait`` span) or raises
        :class:`~repro.serving.wire.BackpressureError`
        (``admission="reject"``).  Thread-safe: the network server's
        sessions submit concurrently.
        """
        return self._submit(kind, pairs, False)

    def _submit(self, kind: str, pairs: Sequence[_Pair],
                text: bool) -> _BatchTicket:
        if self._closed:
            raise ShardError("sharded service is closed")
        if not self._started:
            self.start()
        pairs = list(pairs)
        deadline = time.monotonic() + self._reply_timeout
        with self._can_submit:
            if self._failure is not None:
                raise self._failure
            if not pairs:
                self._count_batch(kind, 0)
                return _BatchTicket(0, kind, text, 0)
            scatter_start = time.perf_counter()
            table = self.table
            assignments = (table.assign(enumerate(pairs)) if table.routable
                           else [])
            assign_seconds = time.perf_counter() - scatter_start
            wait_start = time.perf_counter()
            while True:
                if self._failure is not None:
                    raise self._failure
                if self._closed:
                    raise ShardError("sharded service is closed")
                if table is not self.table:
                    # A death or a rejoin published a new table while this
                    # submitter waited: never scatter through a stale one.
                    table = self.table
                    assignments = (table.assign(enumerate(pairs))
                                   if table.routable else [])
                targets = [worker_id for worker_id, _ in assignments]
                depth_ok = len(self._tickets) < self.pipeline_depth
                window_ok = all(self._inflight.get(w, 0) < self.max_inflight
                                for w in targets)
                if table.routable and depth_ok and window_ok:
                    break
                if self.admission == "reject":
                    raise BackpressureError(
                        f"pipeline full ({len(self._tickets)}/"
                        f"{self.pipeline_depth} batches in flight, "
                        f"per-worker window {self.max_inflight}); retry "
                        f"later or use admission='block'")
                if not self._can_submit.wait(timeout=0.2) \
                        and time.monotonic() >= deadline:
                    raise ShardError(
                        f"admission control made no progress within "
                        f"{self._reply_timeout}s")
            waited = time.perf_counter() - wait_start
            # Counted only once admitted: a bounced submission was not served.
            self._count_batch(kind, len(pairs))
            self._request_counter += 1
            request_id = self._request_counter
            ticket = _BatchTicket(request_id, kind, text, len(pairs),
                                  {worker_id: [shard]
                                   for worker_id, shard in assignments})
            self._tickets[request_id] = ticket
            enqueue_start = time.perf_counter()
            recipients = [self._workers[worker_id]
                          for worker_id, _ in assignments]
            for worker, (worker_id, shard) in zip(recipients, assignments):
                self._inflight[worker_id] = \
                    self._inflight.get(worker_id, 0) + 1
                worker.query(request_id, kind, shard, text)
            if self.metrics.enabled:
                # scatter = assign + enqueue; the admission wait is its
                # own span so backpressure is visible, not folded in.
                self.metrics.histogram("scatter").observe(
                    assign_seconds
                    + (time.perf_counter() - enqueue_start))
                self.metrics.histogram("inflight_wait").observe(waited)
                self.metrics.histogram("queue_depth", lo=1.0,
                                       hi=4096.0).observe(len(self._tickets))
        self._finish_sends(recipients, deadline)
        return ticket

    def _count_batch(self, kind: str, size: int) -> None:
        self.stats.queries += size
        if kind == "route":
            self.stats.route_queries += size
        else:
            self.stats.distance_queries += size
        self.stats.batches += 1
        self.stats.batched_queries += size

    def wait_batch(self, ticket: _BatchTicket) -> List:
        """Block until one submitted batch completes; results in input
        order.  Worker failures and reply timeouts fail-stop the service,
        exactly as on the sequential path."""
        deadline = time.monotonic() + self._reply_timeout
        gather_start = time.perf_counter()
        while not ticket.done.wait(timeout=0.2):
            if time.monotonic() >= deadline:
                self.fail(ShardError(
                    f"no worker reply within {self._reply_timeout}s"))
                self._abort()
                raise self._failure
        if ticket.error is not None:
            error = ticket.error
            self._abort()
            raise error
        if self.metrics.enabled:
            with self._lock:
                self.metrics.histogram("gather").observe(
                    time.perf_counter() - gather_start)
        return ticket.results

    # ==================================================================
    # stats
    # ==================================================================
    def worker_stats(self) -> List[ServingStats]:
        """Per-worker stats snapshots (final snapshots once closed).

        Safe while batches are in flight: the request is tagged through
        the collector, so replies cannot be confused with query answers.
        """
        if self._closed or not self._started:
            return list(self._final_worker_stats)
        with self._can_submit:
            if self._failure is not None:
                raise self._failure
            # Only serving workers are asked; dead/warming slots get
            # placeholders below so the list stays aligned with the slot
            # order.  The death path fills in for a worker that dies
            # mid-request, so this cannot hang on a slot that will never
            # answer.
            queried = [w for w in self.serving if w.is_alive()]
            waiter = {"remaining": {w.worker_id for w in queried},
                      "snapshots": {}, "done": threading.Event(),
                      "error": None}
            if waiter["remaining"]:
                self._stats_waiters.append(waiter)
            else:
                waiter["done"].set()
            for worker in queried:
                worker.request_stats()
        deadline = time.monotonic() + self._reply_timeout
        self._finish_sends(queried, deadline)
        while not waiter["done"].wait(timeout=0.2):
            if time.monotonic() >= deadline:
                self.fail(ShardError(
                    f"no stats reply within {self._reply_timeout}s"))
                self._abort()
                raise self._failure
        if waiter["error"] is not None:
            error = waiter["error"]
            self._abort()
            raise error
        return [waiter["snapshots"].get(worker.worker_id, ServingStats())
                for worker in self._workers]

    def merged_stats(self) -> ServingStats:
        """One aggregate :class:`ServingStats` over all workers.

        Counters are the sums of the per-worker counters
        (:meth:`ServingStats.merge`); ``build_seconds`` is the parent's (the
        workers only ever load), and the front-end provenance (worker count,
        artifact path, pipeline knobs) is folded into ``extra``.
        """
        merged = ServingStats.merge(self.worker_stats())
        if merged.build_seconds is None:
            merged.build_seconds = self.stats.build_seconds
        if merged.artifact_bytes is None:
            merged.artifact_bytes = self.stats.artifact_bytes
        merged.extra["workers"] = self.num_workers
        merged.extra["artifact_path"] = self.artifact_path
        merged.extra["scatter_batches"] = self.stats.batches
        merged.extra["pipeline"] = {"depth": self.pipeline_depth,
                                    "max_inflight": self.max_inflight,
                                    "admission": self.admission}
        if self.metrics.enabled:
            # Fold the front-end's own spans (scatter/gather/inflight_wait
            # and the queue-depth histogram) into the per-worker telemetry
            # the merge already summed.
            with self._lock:
                front_end = self.metrics.export()
            merged.extra["telemetry"] = merge_exports(
                [merged.extra.get("telemetry", {}), front_end])
        if self._fleet is not None:
            merged.extra["fleet"] = self._fleet.status()
        if self._undrained_workers:
            merged.extra["undrained_workers"] = list(self._undrained_workers)
        return merged

    def query_stats(self) -> ServingStats:
        """Aggregate stats over all workers (the QueryBackend accessor)."""
        return self.merged_stats()

    def describe(self) -> str:
        return self.merged_stats().describe()

    def __repr__(self) -> str:
        state = ("running" if self.is_running
                 else "closed" if self._closed else "cold")
        return (f"ShardedRoutingService(workers={self.num_workers}, "
                f"artifact={self.artifact_path!r}, {state})")
