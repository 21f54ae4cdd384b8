"""Multi-process sharded serving: fan one query stream across worker processes.

:class:`~repro.serving.service.RoutingService` is bound to a single Python
process, so the GIL caps its route throughput no matter how good the cache
hit rate is.  The artifact layer already makes a built hierarchy shareable
across processes — versioned, checksummed, query-identical on reload — which
makes the multi-process step cheap: build once in the parent, ``save``, and
let every worker ``load`` the same artifact and answer its slice of the
stream with a local :class:`RoutingService`.

:class:`ShardedRoutingService` keeps one hard invariant: its answers are
list-for-list identical to a single-process :class:`RoutingService` on the
same workload.  Sharding changes *where* a query is answered, never *what*
the answer is.  Partitioning is deterministic
(:func:`~repro.serving.partitioners.partition_pairs`): ``round_robin`` balances
load exactly, ``hash_pair`` sends every occurrence of a pair to the same
shard so hot pairs warm exactly one shard's cache.

Sharding buys two things:

* **CPU parallelism** — N workers route on N cores (processes, not threads,
  so the GIL is out of the picture);
* **aggregate cache capacity** — N workers with per-worker LRU capacity C
  hold N·C results; a stream whose distinct-pair set thrashes one bounded
  cache can fit entirely in the sharded caches
  (``benchmarks/bench_shard_scaling.py`` measures exactly this regime).

Scatter/gather is **pipelined** (the PR-8 transport refactor): the
front-end may keep several batches in flight at once.  :meth:`submit_batch`
partitions a batch, applies admission control, and writes each shard
straight onto its worker's task pipe without waiting for answers; a
background *collector* thread multiplexes the per-worker reply pipes and
completes tickets as workers answer; :meth:`wait_batch` blocks on one
ticket.  Both directions use the same private, single-writer framed pipe
(:class:`_FramedPipe`) — kill-safe by construction: there is no
cross-process lock a dying worker could poison and no feeder thread
between a ``put`` and the pipe.  A task write never blocks while a
service lock is held: what a full pipe does not take is finished by the
submitter after it releases the lock, or by the collector, and a write
that finds the worker dead enters the same death path as a liveness poll
(the fail-stop latch, or the fleet's re-scatter).
``route_batch`` / ``distance_batch`` stay strictly synchronous
(submit + wait), so sequential callers see exactly the old behaviour, while
pipelined drivers (a network session's reader thread, concurrent sessions,
the benchmarks) overlap batch serialization with worker compute and keep
every worker's task pipe non-empty.  Two knobs bound the pipeline:
``pipeline_depth`` caps front-end-wide outstanding batches and
``max_inflight`` caps per-worker outstanding batches; at either bound
``admission="block"`` delays the submitter (the ``inflight_wait`` telemetry
span) and ``admission="reject"`` raises
:class:`~repro.serving.wire.BackpressureError` instead.

Worker lifecycle: spawn → warm (load the artifact, signal ready) → serve
query batches (order-preserving scatter/gather) → drain and shut down, each
worker returning its final :class:`~repro.serving.cache.ServingStats`, which
:meth:`ServingStats.merge` folds into one aggregate.  Workers are daemonic;
an unexpected worker exception fail-stops the whole front-end (all workers
are shut down, every in-flight ticket completes with a
:class:`ShardError`).
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import pickle
import select
import threading
import time
import traceback
import warnings
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.build_runner import check_build_workers
from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import make_registry, merge_exports
from .cache import ServingStats
from .config import CacheConfig
from .partitioners import make_partitioner
from .service import RoutingService, answer_batch
from .wire import BackpressureError
from .workloads import stable_node_hash

__all__ = ["ShardedRoutingService", "ShardError", "BackpressureError"]

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


class _FramedPipe:
    """One end of a one-way pipe carrying length-framed pickles.

    Every worker has two of these pipes, each with exactly one writing
    process and one reading process: *tasks* (front-end → worker) and
    *results* (worker → front-end).  A ``multiprocessing.Queue`` is *not*
    kill-safe in either direction: it moves every message through a
    feeder thread that takes a cross-process lock, and a SIGKILL landing
    while a worker's feeder holds the shared result queue's write lock
    leaves it acquired forever, silently wedging every sibling's replies —
    the exact failure mode the fleet supervisor exists to survive.  A
    private pipe has no lock to poison: a kill mid-write only truncates
    the dying worker's own last result frame, a kill mid-read only loses
    the task frame it was reading, and the front-end discards both pipes
    with the dead worker (tickets say which shards to re-scatter).
    Writing from the calling thread also means no feeder thread and no
    scheduler hop between ``put`` and the pipe.

    Writer end — :meth:`put` frames one message and writes it.  On the
    front-end's task pipes the fd is non-blocking: what a full pipe does
    not take stays queued here, in order, and :meth:`flush` sends more
    once ``select`` reports the pipe writable, so ``put`` never blocks a
    thread that holds a service lock.  A worker's result pipe is blocking
    and ``put`` returns with the frame written.  A write to a pipe whose
    reader is gone raises ``OSError`` and marks the end ``exhausted``.

    Reader end — :meth:`read_ready` drains whatever bytes the pipe holds
    with one ``read`` (the front-end calls it only after ``select``
    reports readability, so it never blocks there) and returns the
    complete messages parsed from them; a partial frame just stays in the
    buffer until the pipe is discarded with its dead peer.  :meth:`get`
    is the worker's blocking read of its next task.
    """

    __slots__ = ("_conn", "_buffer", "_backlog", "_unsent", "_send_lock",
                 "exhausted")

    def __init__(self, conn) -> None:
        self._conn = conn
        self._buffer = bytearray()
        self._backlog: collections.deque = collections.deque()
        self._unsent = bytearray()
        self._send_lock = threading.Lock()
        self.exhausted = False

    def fileno(self) -> int:
        return self._conn.fileno()

    # -- writer end -----------------------------------------------------
    @property
    def pending(self) -> bool:
        """True while bytes of an earlier ``put`` still wait for room."""
        return bool(self._unsent)

    def put(self, message) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        frame = len(payload).to_bytes(4, "big") + payload
        with self._send_lock:
            if not self._unsent:
                frame = frame[self._write(frame):]
            # Behind an unfinished frame (or the tail a full pipe did not
            # take): kept in order for the next flush.
            self._unsent += frame

    def flush(self) -> None:
        with self._send_lock:
            del self._unsent[:self._write(self._unsent)]

    def _write(self, data) -> int:
        """Write as much of ``data`` as the pipe takes; bytes written."""
        sent = 0
        try:
            fd = self._conn.fileno()
            with memoryview(data) as view:
                while sent < len(view):
                    sent += os.write(fd, view[sent:])
        except BlockingIOError:
            pass        # pipe full: the rest goes out on a later flush
        except OSError:
            # The read end is gone (dead worker) or this end was closed.
            self.exhausted = True
            del self._unsent[:]
            raise
        return sent

    # -- reader end -----------------------------------------------------
    def read_ready(self) -> List:
        messages: List = []
        try:
            chunk = os.read(self._conn.fileno(), 1 << 16)
        except (OSError, ValueError):
            self.exhausted = True
            return messages
        if not chunk:
            # EOF: every copy of the write end is gone; nothing more can
            # arrive, so drop the pipe from the select set.
            self.exhausted = True
        self._buffer.extend(chunk)
        while len(self._buffer) >= 4:
            size = int.from_bytes(self._buffer[:4], "big")
            if len(self._buffer) - 4 < size:
                break
            payload = bytes(self._buffer[4:4 + size])
            del self._buffer[:4 + size]
            messages.append(pickle.loads(payload))
        return messages

    def get(self):
        """Block until the next message; ``EOFError`` once the writer is
        gone and everything it sent has been handed out."""
        while not self._backlog:
            if self.exhausted:
                raise EOFError("pipe closed by its writer")
            self._backlog.extend(self.read_ready())
        return self._backlog.popleft()

    def close(self) -> None:
        # Under the send lock, so no write is using the fd while it closes.
        with self._send_lock:
            self.exhausted = True
            del self._unsent[:]
            try:
                self._conn.close()
            except OSError:
                pass


def _poll_channels(channels, backlog, timeout: float, senders=()):
    """The next message from ``channels`` into/out of ``backlog``, or None.

    Module-level on purpose: the collector thread blocks here holding
    only the pipe lists and the backlog deque — never the service —
    so dropping the last external service reference still triggers
    ``__del__`` promptly (the unclosed-service ``ResourceWarning``
    contract).  Multiplexes with ``select`` and parses frames without
    ever blocking on a single pipe, so a worker killed mid-write can
    never wedge the caller (complete messages parse; its half-written
    frame dies with its channel).  ``senders`` are the task pipes: one
    with unsent bytes is flushed as soon as it has room, here, so the
    thread that drains results can never itself be stuck behind a full
    task pipe.
    """
    if backlog:
        return backlog.popleft()
    unsent = [pipe for pipe in senders if pipe.pending]
    if not channels and not unsent:
        time.sleep(min(timeout, 0.05))
        return None
    try:
        ready, writable, _ = select.select(channels, unsent, [], timeout)
    except (OSError, ValueError):
        # A pipe was closed under us (worker respawn swapped it
        # out); the caller retries against a fresh snapshot.
        return None
    for pipe in writable:
        try:
            pipe.flush()
        except OSError:
            pass    # dead worker: the pipe is now exhausted, liveness acts
    for channel in ready:
        backlog.extend(channel.read_ready())
    if backlog:
        return backlog.popleft()
    return None


def _shard_worker(worker_id: int, artifact_path: str,
                  cache_config: CacheConfig, kernel: str, telemetry: bool,
                  task_conn, result_conn,
                  cover_artifact_path: Optional[str] = None,
                  slice_spec: Optional[Tuple[int, int]] = None) -> None:
    """Worker main loop (module-level so it stays picklable under spawn).

    Each worker applies the :class:`CacheConfig` locally — cache policy,
    capacity, and the (per-worker by construction) online hot-set policy;
    explicit hot sets are rejected by the front-end, since every worker
    would pin every pair while serving only its own partition.  The query
    ``kernel`` selector is likewise applied per worker against its own
    loaded artifact (``auto`` resolves to ``columnar`` on v2 artifacts).

    Protocol (all messages are tuples; the first element is the tag):

    * in  ``("query", request_id, kind, [(index, pair), ...])``
      out ``("ok", worker_id, request_id, [(index, result), ...])`` or
      ``("error", worker_id, request_id, summary, traceback_text)``
    * in  ``("stats",)``    → out ``("stats", worker_id, ServingStats)``
    * in  ``("ping", seq)`` → out ``("pong", worker_id, seq)``
    * in  ``("shutdown",)`` → out ``("bye", worker_id, ServingStats)``, exit

    The task pipe is FIFO, so several ``query`` messages may be queued at
    once (the front-end's per-worker in-flight window); the worker simply
    answers them in order — pipelining needs no worker-side changes, and
    the front-end relies on the FIFO order to know *which* queries a dead
    worker had not yet answered.

    ``slice_spec = (shard, workers)`` says ``artifact_path`` is the
    sub-artifact slice covering sources whose stable hash maps to
    ``shard`` of ``workers``.  Queries outside that slice (possible only
    in fleet mode, where siblings cover a dead worker's partition) are
    answered from ``cover_artifact_path`` — the full parent artifact,
    loaded lazily on the first out-of-slice query so the common all-alive
    path never pays for it.  Both services share one artifact build, so a
    covered answer is bit-identical to the home shard's.

    Warm-up emits ``("ready", worker_id, load_seconds)`` on success or
    ``("failed", worker_id, summary)`` if the artifact cannot be loaded.
    Tasks arrive over ``task_conn`` and replies leave over ``result_conn``,
    this worker's two private pipes (see :class:`_FramedPipe` for why
    neither is a shared queue).  The worker also exits if the task pipe
    reaches EOF: every write end is closed, so no task can ever arrive.
    """
    tasks = _FramedPipe(task_conn)
    results = _FramedPipe(result_conn)
    try:
        service = RoutingService.load(artifact_path,
                                      cache_config=cache_config,
                                      kernel=kernel, telemetry=telemetry)
    except BaseException as exc:
        results.put(("failed", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    service.stats.extra["worker_id"] = worker_id
    cover_service: Optional[RoutingService] = None
    own_shard, own_workers = slice_spec if slice_spec else (None, None)

    def split(indexed_pairs):
        """(own, other) — other is non-empty only for out-of-slice sources."""
        if own_shard is None or cover_artifact_path is None:
            return indexed_pairs, []
        own, other = [], []
        for item in indexed_pairs:
            if stable_node_hash(item[1][0]) % own_workers == own_shard:
                own.append(item)
            else:
                other.append(item)
        return own, other

    def snapshot() -> ServingStats:
        stats = service.query_stats()
        if cover_service is None:
            return stats
        # Fold the cover service's counters into a copy (never the live
        # stats object — repeated snapshots must not compound).
        cover = cover_service.query_stats()
        merged = dataclasses.replace(stats, extra=dict(stats.extra))
        for name in ("queries", "route_queries", "distance_queries",
                     "batches", "batched_queries", "cache_hits",
                     "cache_misses", "hot_hits"):
            setattr(merged, name, getattr(merged, name)
                    + getattr(cover, name))
        merged.extra["cover_queries"] = cover.queries
        if telemetry:
            merged.extra["telemetry"] = merge_exports(
                [stats.extra.get("telemetry", {}),
                 cover.extra.get("telemetry", {})])
        return merged

    results.put(("ready", worker_id, service.stats.load_seconds))
    while True:
        try:
            message = tasks.get()
        except EOFError:
            return
        tag = message[0]
        if tag == "shutdown":
            # query_stats() refreshes the hierarchy-level snapshots (pivot
            # cache, kernel groups) so the merged stats see final values.
            results.put(("bye", worker_id, snapshot()))
            return
        if tag == "stats":
            results.put(("stats", worker_id, snapshot()))
            continue
        if tag == "ping":
            results.put(("pong", worker_id, message[1]))
            continue
        if tag != "query":
            results.put(("error", worker_id, None,
                         f"unknown command {tag!r}", ""))
            continue
        _, request_id, kind, indexed_pairs = message
        try:
            own, other = split(indexed_pairs)
            indexed_values = []
            if own:
                values = answer_batch(service, kind,
                                      [pair for _, pair in own])
                indexed_values.extend(
                    (index, value) for (index, _), value in zip(own, values))
            if other:
                if cover_service is None:
                    cover_service = RoutingService.load(
                        cover_artifact_path, cache_config=cache_config,
                        kernel=kernel, telemetry=telemetry)
                values = answer_batch(cover_service, kind,
                                      [pair for _, pair in other])
                indexed_values.extend(
                    (index, value) for (index, _), value
                    in zip(other, values))
        except Exception as exc:
            results.put(("error", worker_id, request_id,
                         f"{type(exc).__name__}: {exc}",
                         traceback.format_exc()))
            continue
        results.put(("ok", worker_id, request_id, indexed_values))


def _collector_main(service_ref, stop: threading.Event) -> None:
    """Collector thread body (module-level, weakref-based on purpose).

    The thread must not pin the front-end alive: a bound-method target
    would hold a strong reference forever and ``__del__`` — the unclosed-
    service ``ResourceWarning`` contract — could never fire.  The service
    is re-derefed only for the microseconds a snapshot is taken or a
    message dispatched; while blocked in ``select`` the thread holds
    nothing but the pipe lists and the backlog deque.
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
        if message is None:
            service._check_liveness()
        else:
            service._dispatch(message)
        del service


class _WorkerHandle:
    """Parent-side record of one worker: its process and the parent ends
    of its two private pipes — ``tasks`` (written) and ``channel``
    (results, read).  Both are ``None`` on a placeholder that only
    reserves a slot index.

    ``state`` is the supervisor's slot lifecycle (always ``"alive"``
    outside fleet mode): ``alive`` → serving; ``warming`` → respawned,
    loading its artifact; ``dead`` → exited unexpectedly, awaiting respawn;
    ``parked`` → scaled down deliberately (its final stats survive in
    ``final_stats``).
    """

    __slots__ = ("worker_id", "process", "tasks", "channel", "state",
                 "final_stats")

    def __init__(self, worker_id, process,
                 tasks: Optional[_FramedPipe] = None,
                 channel: Optional[_FramedPipe] = None):
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.channel = channel
        self.state = "alive"
        self.final_stats: Optional[ServingStats] = None


#: Pseudo worker id holding shards that could not be routed because no
#: worker was alive at retry time; the supervisor re-dispatches them when
#: a respawn completes.  Never collides with real ids (always >= 0).
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

    __slots__ = ("request_id", "kind", "results", "outstanding",
                 "done", "error")

    def __init__(self, request_id: int, kind: str, size: int,
                 outstanding: Optional[Dict[int, List]] = None) -> None:
        self.request_id = request_id
        self.kind = kind
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
    partitioner:
        A name from the partitioner registry (``round_robin`` /
        ``hash_pair`` / ``hash_source`` built in — see
        :mod:`repro.serving.partitioners`).
    cache_config:
        Full per-worker cache behaviour (policy, capacity, hot-set policy)
        as a :class:`~repro.serving.config.CacheConfig`; each worker caches
        only its own partition, so aggregate capacity is ``num_workers *
        cache_config.capacity``.  Defaults to ``CacheConfig()``.
    sub_artifact_paths:
        Optional per-shard sub-artifact paths (one per worker, shard
        order — see
        :func:`~repro.serving.artifacts.write_shard_artifacts`): worker
        ``w`` loads ``sub_artifact_paths[w]`` instead of the shared
        artifact, holding only its partition's tables.  Requires a
        partitioner that routes every query to its source's shard
        (``partitions_by_source``, e.g. ``"hash_source"``) — the slices
        are only complete for those queries, and the identity invariant
        would otherwise break.
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
    """

    def __init__(self, artifact_path: str, num_workers: int = 2,
                 partitioner: str = "round_robin",
                 cache_config: Optional[CacheConfig] = None,
                 sub_artifact_paths: Optional[Sequence[str]] = None,
                 pipeline_depth: int = 8, max_inflight: int = 4,
                 admission: str = "block",
                 start_method: Optional[str] = None,
                 warm_timeout: float = 120.0, reply_timeout: float = 300.0,
                 graph: Optional[WeightedGraph] = None,
                 stats: Optional[ServingStats] = None,
                 kernel: str = "auto", telemetry: bool = False,
                 fleet=None, build_workers: int = 1) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        check_build_workers(build_workers)   # used later, on fleet respawn
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, "
                             f"got {pipeline_depth}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, "
                             f"got {max_inflight}")
        if admission not in ("block", "reject"):
            raise ValueError(f"admission must be 'block' or 'reject', "
                             f"got {admission!r}")
        # Resolving the partitioner up front also validates the name (the
        # registry raises "unknown partition strategy ..." for typos).
        self._partitioner = make_partitioner(partitioner, num_workers)
        if not os.path.exists(artifact_path):
            raise FileNotFoundError(
                f"artifact {artifact_path!r} does not exist; build it first "
                f"(e.g. via repro.serving.open_service)")
        if sub_artifact_paths is not None:
            sub_artifact_paths = list(sub_artifact_paths)
            if len(sub_artifact_paths) != num_workers:
                raise ValueError(
                    f"got {len(sub_artifact_paths)} sub-artifact paths for "
                    f"{num_workers} workers (need exactly one per worker, "
                    f"in shard order)")
            if not getattr(self._partitioner, "partitions_by_source", False):
                raise ValueError(
                    f"sub-artifacts slice tables by source node, so the "
                    f"partitioner must route every query to its source's "
                    f"shard (partitions_by_source, e.g. 'hash_source'); "
                    f"got {partitioner!r}")
            self._validate_sub_artifacts(artifact_path, sub_artifact_paths)
        if cache_config is None:
            cache_config = CacheConfig()
        if cache_config.hot_set == "explicit":
            # Workers apply the cache config independently, so an explicit
            # pair list would be recomputed and pinned N times while each
            # pair is only ever routed to one shard — reject it rather than
            # silently multiply warm-up cost and memory by the worker count.
            # Online promotion is per-worker by construction and stays
            # allowed.
            raise ValueError(
                "explicit hot sets are not supported for sharded serving "
                "(every worker would pin every pair); pin per worker via a "
                "custom policy or use hot_set='online'")
        self.artifact_path = artifact_path
        self.num_workers = num_workers
        self.partitioner = partitioner
        self.cache_config = cache_config
        self.sub_artifact_paths = sub_artifact_paths
        self.pipeline_depth = pipeline_depth
        self.max_inflight = max_inflight
        self.admission = admission
        self.kernel = kernel
        self.telemetry = telemetry
        #: Process-pool width for sub-artifact slice regeneration (the
        #: fleet respawn path); never affects query answers.
        self.build_workers = build_workers
        #: Front-end registry: scatter/gather/inflight_wait spans and the
        #: queue-depth histogram live here; per-worker span histograms live
        #: in the workers and merge through ``ServingStats.merge`` (see
        #: :meth:`merged_stats`).  Recording happens under ``_lock`` — the
        #: registry itself is not thread-safe, the pipeline is.
        self.metrics = make_registry(telemetry)
        self.graph = graph
        self.stats = stats if stats is not None else ServingStats()
        self.stats.extra.setdefault("workers", num_workers)
        self.stats.extra.setdefault("partitioner", partitioner)
        self.stats.extra.setdefault("kernel_requested", kernel)
        self.stats.extra.setdefault("artifact_path", artifact_path)
        self.stats.extra.setdefault("sub_artifacts",
                                    sub_artifact_paths is not None)
        self._ctx = multiprocessing.get_context(start_method)
        self._warm_timeout = warm_timeout
        self._reply_timeout = reply_timeout
        self._workers: List[_WorkerHandle] = []
        # Parsed-but-undelivered worker messages; consumed by exactly one
        # thread at a time (warm-up, then the collector, then the drain).
        self._result_backlog: collections.deque = collections.deque()
        # Channels of respawn-replaced workers: kept open (but out of the
        # select set) until close(), so their fd numbers cannot be reused
        # while the collector might still hold a stale reference.
        self._retired_channels: List[_FramedPipe] = []
        # (result channels, task pipes) the collector selects on.  Set to
        # None under ``_lock`` wherever a handle is installed (spawn,
        # respawn); a parked or dead worker's channel drops out when it
        # reaches EOF (see _live_pipes).
        self._pipe_snapshot: Optional[Tuple[List, List]] = None
        self._request_counter = 0
        self._started = False
        self._closed = False
        self._final_worker_stats: List[ServingStats] = []
        self._undrained_workers: List[int] = []
        # Pipeline state: one lock/condition guards tickets, per-worker
        # in-flight counts, stats waiters, the partitioner and the metrics
        # registry; the collector thread completes tickets and notifies.
        self._lock = threading.RLock()
        self._can_submit = threading.Condition(self._lock)
        self._tickets: Dict[int, _BatchTicket] = {}
        self._inflight: Dict[int, int] = {}
        self._stats_waiters: List[Dict] = []
        self._collector: Optional[threading.Thread] = None
        self._collector_stop = threading.Event()
        self._failure: Optional[ShardError] = None
        self._close_lock = threading.Lock()
        # Fleet mode: a FleetSupervisor owns the worker set — liveness,
        # respawn, rebalancing and scaling — and replaces the static
        # partitioner with its epoch-versioned routing table.  Imported
        # lazily so the base sharded path never touches the fleet module.
        self._fleet = None
        if fleet is not None:
            from .fleet import FleetConfig, FleetSupervisor
            if fleet is True:
                fleet = FleetConfig()
            if not isinstance(fleet, FleetConfig):
                raise ValueError(f"fleet must be a FleetConfig (or True for "
                                 f"defaults), got {fleet!r}")
            if num_workers < 2:
                raise ValueError(
                    f"fleet mode needs num_workers >= 2 (siblings cover a "
                    f"dead worker's partition), got {num_workers}")
            if not getattr(self._partitioner, "partitions_by_source", False):
                raise ValueError(
                    f"fleet mode routes by source hash (the epoch table "
                    f"must agree with sub-artifact slicing), so the "
                    f"partitioner must partition by source "
                    f"(e.g. 'hash_source'); got {partitioner!r}")
            self._fleet = FleetSupervisor(self, fleet)
            self.stats.extra.setdefault("fleet", True)

    @staticmethod
    def _validate_sub_artifacts(artifact_path: str,
                                sub_artifact_paths: List[str]) -> None:
        """Header-only provenance check of caller-supplied slices.

        Each slice must exist, declare the expected ``{shard, workers}``
        provenance, and *derive from this artifact*: the slicer copies the
        pivot and intern sections verbatim, so their header checksums must
        match the parent's.  This catches the silent-staleness trap — an
        artifact rebuilt in place while old slices linger on disk would
        otherwise serve the previous hierarchy's tables without any error.
        """
        from .artifacts import artifact_info

        workers = len(sub_artifact_paths)
        parent = artifact_info(artifact_path)
        for shard, sub_path in enumerate(sub_artifact_paths):
            if not os.path.exists(sub_path):
                raise FileNotFoundError(
                    f"sub-artifact {sub_path!r} does not exist; "
                    f"materialise the slices first (repro.serving."
                    f"write_shard_artifacts)")
            info = artifact_info(sub_path)
            provenance = info.metadata.get("sub_artifact")
            if (not isinstance(provenance, dict)
                    or provenance.get("shard") != shard
                    or provenance.get("workers") != workers):
                raise ValueError(
                    f"{sub_path!r} is not the shard-{shard}-of-{workers} "
                    f"sub-artifact its position implies (header says "
                    f"{provenance!r}); pass write_shard_artifacts' paths "
                    f"in shard order")
            for section in ("nodes", "pivots"):
                if (info.sections[section]["sha256"]
                        != parent.sections[section]["sha256"]):
                    raise ValueError(
                        f"{sub_path!r} was sliced from a different build "
                        f"of {artifact_path!r} (section {section!r} "
                        f"differs); re-run write_shard_artifacts — stale "
                        f"slices would silently serve the old tables")

    # ==================================================================
    # worker lifecycle
    # ==================================================================
    def _spawn_worker(self, worker_id: int) -> _WorkerHandle:
        """Spawn one worker process; the caller installs the handle.

        Slot ``worker_id`` loads its sub-artifact slice when one exists for
        it (dynamic fleet slots past the base set always load the full
        artifact).  In fleet mode a sliced worker also gets the parent
        artifact as its cover path, so it can answer out-of-slice queries
        while a sibling is down.
        """
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        # Only this end: O_NONBLOCK belongs to the open file description,
        # and the worker's read end of the same pipe is another one.
        os.set_blocking(task_writer.fileno(), False)
        if (self.sub_artifact_paths is not None
                and worker_id < len(self.sub_artifact_paths)):
            worker_artifact = self.sub_artifact_paths[worker_id]
            slice_spec = (worker_id, len(self.sub_artifact_paths))
            cover = self.artifact_path if self._fleet is not None else None
        else:
            worker_artifact = self.artifact_path
            slice_spec = None
            cover = None
        process = self._ctx.Process(
            target=_shard_worker,
            args=(worker_id, worker_artifact, self.cache_config,
                  self.kernel, self.telemetry, task_reader,
                  result_writer, cover, slice_spec),
            daemon=True, name=f"repro-shard-{worker_id}")
        process.start()
        # The child owns these ends now; dropping the parent's copies keeps
        # the fd table bounded across respawns and lets a write to a dead
        # worker fail (no reader left) instead of filling the pipe.
        task_reader.close()
        result_writer.close()
        return _WorkerHandle(worker_id, process, _FramedPipe(task_writer),
                             _FramedPipe(result_reader))

    def start(self) -> "ShardedRoutingService":
        """Spawn the workers and block until every one has warmed up."""
        if self._closed:
            raise ShardError("sharded service is closed")
        if self._started:
            return self
        for worker_id in range(self.num_workers):
            self._workers.append(self._spawn_worker(worker_id))
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
        self._inflight = {h.worker_id: 0 for h in self._workers}
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
                # Stop the supervisor first: no respawn or scale decision
                # may race the teardown below.
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
                expecting = set()
                for handle in self._workers:
                    if (handle.process.is_alive()
                            and self._send(handle, ("shutdown",))):
                        expecting.add(handle.worker_id)
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
                # merged_stats can say its totals are incomplete instead
                # of silently under-counting.  Workers the fleet already
                # retired carry their snapshot on the handle (parked
                # workers sent "bye" when scaled down) — fold those in;
                # dead slots never made it into ``expecting`` (their
                # process was gone) and are expected to be missing.
                for handle in self._workers:
                    if handle.final_stats is not None:
                        final_stats.append(handle.final_stats)
                self._undrained_workers = sorted(expecting)
            if not drain:
                # Fail-stop path: nobody was asked to exit, so don't wait.
                for handle in self._workers:
                    if handle.process.is_alive():
                        handle.process.terminate()
            for handle in self._workers:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            self._final_worker_stats = final_stats
            for handle in self._workers:
                for pipe in (handle.tasks, handle.channel):
                    if pipe is not None:
                        pipe.close()
            for channel in self._retired_channels:
                channel.close()
            self._retired_channels = []
            # Wake anyone still blocked in submit/wait with a clear error.
            with self._can_submit:
                if self._tickets and self._failure is None:
                    self._failure = ShardError(
                        "sharded service closed with batches in flight",
                        pending_request_ids=tuple(sorted(self._tickets)))
                for ticket in self._tickets.values():
                    ticket.error = self._failure
                    ticket.done.set()
                self._tickets.clear()
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
                h.state == "alive" and h.process.is_alive()
                for h in self._workers)
        return all(h.process.is_alive() for h in self._workers)

    # ==================================================================
    # collector: completes tickets from the per-worker reply pipes
    # ==================================================================
    def _next_message(self, timeout: float):
        """The next worker→parent message, or ``None`` after ``timeout``.

        Thin wrapper over :func:`_poll_channels` against the current pipe
        snapshot.  Consumed by one thread at a time: ``start()`` during
        warm-up, the collector while serving, and ``close()`` during the
        drain (the collector itself snapshots and polls directly so it
        never holds the service while blocked).
        """
        channels, senders = self._live_pipes()
        return _poll_channels(channels, self._result_backlog, timeout,
                              senders)

    def _live_pipes(self) -> Tuple[List[_FramedPipe], List[_FramedPipe]]:
        """``(result channels, task pipes)`` of the current workers.

        Cached: a message costs no lock and no list build.  Rebuilt after
        an invalidation (a handle was installed) or once a channel in the
        snapshot is exhausted — EOF from a parked or dead worker, or a
        respawn retiring it — which would otherwise read as ready forever.
        """
        snapshot = self._pipe_snapshot
        if snapshot is None or any(c.exhausted for c in snapshot[0]):
            with self._lock:
                snapshot = (
                    [h.channel for h in self._workers if h.channel is not None
                     and not h.channel.exhausted],
                    [h.tasks for h in self._workers if h.tasks is not None
                     and not h.tasks.exhausted])
                self._pipe_snapshot = snapshot
        return snapshot

    # ==================================================================
    # task pipes: the submitting thread writes, nobody blocks under a lock
    # ==================================================================
    @staticmethod
    def _send(handle: _WorkerHandle, message) -> bool:
        """Frame ``message`` onto ``handle``'s task pipe; never blocks.

        Safe under ``_can_submit`` — which is what keeps a worker's frames
        in the order the lock handed out its slots: what a full pipe does
        not take stays queued in the pipe object and goes out through
        :meth:`_finish_sends` or the collector.  False when the worker is
        gone (its pipe is then ``exhausted``); the error never escapes.
        """
        try:
            handle.tasks.put(message)
        except OSError:
            return False
        return True

    def _finish_sends(self, handles: Sequence[_WorkerHandle],
                      deadline: float) -> None:
        """Wait, holding no service lock, for frames just queued for
        ``handles`` to fit into their pipes, and report dead workers.

        The wait is the submitter's backpressure for a worker that is not
        reading yet.  It must happen outside ``_can_submit``: the
        collector needs that lock to retire results, a worker blocked
        writing results does not read tasks, and a submitter blocked on
        that worker's full task pipe with the lock held would close the
        cycle.  The collector flushes the same pipes whenever it wakes,
        so frames queued by threads that cannot wait (the collector
        itself, re-scattering a dead worker's shards) still leave.
        """
        for handle in handles:
            pipe = handle.tasks
            try:
                while pipe.pending and time.monotonic() < deadline:
                    select.select([], [pipe], [], 0.2)
                    pipe.flush()
            except (OSError, ValueError):
                pass    # reader gone, or the pipe was closed under us
            if pipe.exhausted:
                self._worker_lost(handle)

    def _worker_lost(self, handle: _WorkerHandle) -> None:
        """A task write found no reader: enter the worker-death path now
        instead of waiting for the next liveness poll."""
        with self._lock:
            if self._closed or self._workers[handle.worker_id] is not handle:
                return      # teardown, or a respawn already replaced it
        if self._fleet is not None:
            self._fleet.on_worker_death(handle.worker_id,
                                        "task pipe has no reader")
        else:
            self._latch_failure(ShardError(
                f"worker {handle.worker_id} died (its task pipe has no "
                f"reader)"))

    def _check_liveness(self) -> None:
        """Notice workers that died without replying (OOM kill, segfault)."""
        if self._fleet is not None:
            # The supervisor recovers instead of latching: re-scatter the
            # dead slot's unanswered shards to siblings now (the collector
            # calls this between replies, well inside the heartbeat) and
            # leave respawn to the beat thread.
            self._fleet.poll_liveness()
            return
        with self._lock:
            waiting = bool(self._tickets) or bool(self._stats_waiters)
        if not waiting:
            return
        dead = [h.worker_id for h in self._workers
                if not h.process.is_alive()]
        if not dead:
            return
        # Grace read: the worker may have replied just before dying and
        # the bytes may still be sitting in its pipe.
        message = self._next_message(timeout=0.5)
        if message is None:
            self._latch_failure(ShardError(
                f"worker(s) {dead} died without replying"))
            return
        self._dispatch(message)

    def _dispatch(self, message) -> None:
        tag = message[0]
        if tag == "ok":
            _, worker_id, request_id, indexed = message
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
        if self._fleet is not None and tag in ("pong", "ready", "failed",
                                               "bye"):
            # Supervisor traffic: heartbeat replies and the lifecycle of
            # respawned / scaled workers (initial warm-up "ready"s are
            # consumed directly by start(), before the collector runs).
            self._fleet.on_message(message)
            return
        if tag == "error":
            _, worker_id, request_id, summary, worker_tb = message
            self._latch_failure(ShardError(
                f"worker {worker_id} failed answering batch: {summary}",
                worker_traceback=worker_tb))
            return
        if tag == "stats":
            _, worker_id, snapshot = message
            with self._can_submit:
                # Stats requests enqueue one ("stats",) per worker and
                # workers reply FIFO, so a reply belongs to the oldest
                # waiter still missing this worker.
                for waiter in self._stats_waiters:
                    if worker_id in waiter["remaining"]:
                        waiter["remaining"].discard(worker_id)
                        waiter["snapshots"][worker_id] = snapshot
                        if not waiter["remaining"]:
                            self._stats_waiters.remove(waiter)
                            waiter["done"].set()
                        break
            return
        # "ready"/"failed" replays or stray "bye" frames: nothing to do.

    def _latch_failure(self, error: ShardError) -> None:
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
    # queries (order-preserving scatter/gather, pipelined)
    # ==================================================================
    def route_batch(self, pairs: Sequence[_Pair]) -> List:
        """Route a batch; answers come back in input order."""
        return self.wait_batch(self.submit_batch("route", pairs))

    def distance_batch(self, pairs: Sequence[_Pair]) -> List[float]:
        """Distance estimates for a batch; answers in input order."""
        return self.wait_batch(self.submit_batch("distance", pairs))

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
                return _BatchTicket(0, kind, 0)
            scatter_start = time.perf_counter()
            epoch = None
            assignments: List[Tuple[int, List]] = []
            if self._fleet is None:
                shards = self._partitioner.partition(pairs)
                assignments = [(handle.worker_id, shard)
                               for handle, shard
                               in zip(self._workers, shards) if shard]
            elif self._fleet.has_routable:
                epoch, assignments = self._fleet.partition(pairs)
            partition_seconds = time.perf_counter() - scatter_start
            wait_start = time.perf_counter()
            while True:
                if self._failure is not None:
                    raise self._failure
                if self._closed:
                    raise ShardError("sharded service is closed")
                if self._fleet is not None:
                    # Never race a migration or a death: the routing table
                    # is epoch-versioned and partitioning happens under
                    # the same lock that publishes it, so re-partition if
                    # the epoch moved while this submitter waited.  (The
                    # static-partitioner path partitions exactly once —
                    # round_robin is stateful — and its worker set never
                    # changes.)
                    routable = self._fleet.has_routable
                    if routable and epoch != self._fleet.epoch:
                        epoch, assignments = self._fleet.partition(pairs)
                else:
                    routable = True
                targets = [worker_id for worker_id, _ in assignments]
                depth_ok = len(self._tickets) < self.pipeline_depth
                window_ok = all(self._inflight.get(w, 0) < self.max_inflight
                                for w in targets)
                if routable and depth_ok and window_ok:
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
            ticket = _BatchTicket(request_id, kind, len(pairs),
                                  {worker_id: [shard]
                                   for worker_id, shard in assignments})
            self._tickets[request_id] = ticket
            enqueue_start = time.perf_counter()
            handles = [self._workers[worker_id]
                       for worker_id, _ in assignments]
            for handle, (worker_id, shard) in zip(handles, assignments):
                self._inflight[worker_id] = \
                    self._inflight.get(worker_id, 0) + 1
                self._send(handle, ("query", request_id, kind, shard))
            if self.metrics.enabled:
                # scatter = partition + enqueue; the admission wait is its
                # own span so backpressure is visible, not folded in.
                self.metrics.histogram("scatter").observe(
                    partition_seconds
                    + (time.perf_counter() - enqueue_start))
                self.metrics.histogram("inflight_wait").observe(waited)
                self.metrics.histogram("queue_depth", lo=1.0,
                                       hi=4096.0).observe(len(self._tickets))
        self._finish_sends(handles, deadline)
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
                self._latch_failure(ShardError(
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
            # Only alive workers are asked; dead/warming/parked slots get
            # placeholders below so the list stays aligned with the slot
            # order (the fleet rebalancer indexes it by shard).  The fleet
            # death handler scrubs waiters for workers that die
            # mid-request, so this cannot hang on a slot that will never
            # answer.
            queried = [h for h in self._workers
                       if h.state == "alive" and h.process.is_alive()]
            waiter = {"remaining": {h.worker_id for h in queried},
                      "snapshots": {}, "done": threading.Event(),
                      "error": None}
            if waiter["remaining"]:
                self._stats_waiters.append(waiter)
            else:
                waiter["done"].set()
            for handle in queried:
                self._send(handle, ("stats",))
        deadline = time.monotonic() + self._reply_timeout
        self._finish_sends(queried, deadline)
        while not waiter["done"].wait(timeout=0.2):
            if time.monotonic() >= deadline:
                self._latch_failure(ShardError(
                    f"no stats reply within {self._reply_timeout}s"))
                self._abort()
                raise self._failure
        if waiter["error"] is not None:
            error = waiter["error"]
            self._abort()
            raise error
        out: List[ServingStats] = []
        for handle in self._workers:
            snapshot = waiter["snapshots"].get(handle.worker_id)
            if snapshot is None:
                snapshot = (handle.final_stats
                            if handle.final_stats is not None
                            else ServingStats())
            out.append(snapshot)
        return out

    def merged_stats(self) -> ServingStats:
        """One aggregate :class:`ServingStats` over all workers.

        Counters are the sums of the per-worker counters
        (:meth:`ServingStats.merge`); ``build_seconds`` is the parent's (the
        workers only ever load), and the front-end provenance (worker count,
        partitioner, artifact path, pipeline knobs) is folded into
        ``extra``.
        """
        merged = ServingStats.merge(self.worker_stats())
        if merged.build_seconds is None:
            merged.build_seconds = self.stats.build_seconds
        if merged.artifact_bytes is None:
            merged.artifact_bytes = self.stats.artifact_bytes
        merged.extra["workers"] = self.num_workers
        merged.extra["partitioner"] = self.partitioner
        merged.extra["artifact_path"] = self.artifact_path
        merged.extra["sub_artifacts"] = self.sub_artifact_paths is not None
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
                f"partitioner={self.partitioner!r}, "
                f"artifact={self.artifact_path!r}, {state})")
