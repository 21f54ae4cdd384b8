"""Shard workers: the framed pipes, the worker process, its parent-side endpoint.

Everything that crosses a process boundary in sharded serving lives here,
once: :class:`_FramedPipe` is the wire (length-framed pickles over a
private one-way pipe), :func:`_shard_worker` is the process at the far
end and documents the message protocol, :func:`_poll_channels` is the
``select`` loop that multiplexes many workers' pipes, and :class:`Worker`
is the parent-side endpoint — the only code that builds a request tuple
or touches a pipe.  The front-end (:mod:`repro.serving.sharded`) owns
slots, tickets and windows and talks to :class:`Worker` objects; the
fleet supervisor (:mod:`repro.serving.fleet`) decides policy and talks to
the front-end.  A worker on another host would be a different endpoint
class, not a change to either.
"""

from __future__ import annotations

import collections
import os
import pickle
import select
import threading
import time
import traceback
from typing import List, Optional

from .config import CacheConfig
from .service import RoutingService, answer_batch
from .wire import encode_answer_texts

__all__ = ["Worker"]


class _FramedPipe:
    """One end of a one-way pipe carrying length-framed pickles.

    Every worker has three of these pipes, each with one writing process
    and one reading process: *tasks* and *heartbeat* (front-end → worker)
    and *results* (worker → front-end).  A ``multiprocessing.Queue`` is
    *not* kill-safe in either direction: it moves every message through a
    feeder thread that takes a cross-process lock, and a SIGKILL landing
    while a worker's feeder holds the shared result queue's write lock
    leaves it acquired forever, silently wedging every sibling's replies —
    the exact failure mode the fleet supervisor exists to survive.  A
    private pipe has no lock to poison: a kill mid-write only truncates
    the dying worker's own last result frame, a kill mid-read only loses
    the task frame it was reading, and the front-end discards the pipes
    with the dead worker (tickets say which shards to re-scatter).
    Writing from the calling thread also means no feeder thread and no
    scheduler hop between ``put`` and the pipe.

    Writer end — :meth:`put` frames one message and writes it.  On the
    front-end's ends the fd is non-blocking: what a full pipe does not
    take stays queued here, in order, and :meth:`flush` sends more
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
    # The backlog is emptied before any pipe is read again, which is what
    # lets Worker.lost read a pipe's EOF as "everything was handed out".
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
                  task_conn, heartbeat_conn, result_conn) -> None:
    """Worker main loop (module-level so it stays picklable under spawn).

    Each worker loads the full artifact and applies the
    :class:`CacheConfig` locally — its result caches hold only the pairs
    scattered to it.  ``kernel`` is only validated (it selects nothing).

    Protocol (all messages are tuples; the first element is the tag):

    * in  ``("query", request_id, kind, [(index, pair), ...], text)``
      out ``("ok", worker_id, request_id, [(index, result), ...])`` or
      ``("error", worker_id, request_id, summary, traceback_text)``;
      ``text`` false asks for result *objects* (in-process callers, a
      session's distances), true for each result's canonical v1 wire text,
      which a ``ServerSession`` splices into its reply as it is: the worker
      owns the result cache, so it builds a route's text once and keeps it
      with the entry (:func:`~repro.serving.wire.encode_answer_texts`)
    * in  ``("stats",)``    → out ``("stats", worker_id, ServingStats)``
    * in  ``("ping", seq)`` on the heartbeat pipe → out ``("pong",
      worker_id, seq)`` from :func:`_answer_pings`, never behind queries
    * in  ``("shutdown",)`` → out ``("bye", worker_id, ServingStats)``, exit

    The task pipe is FIFO, so several ``query`` messages may be queued at
    once (the front-end's per-worker in-flight window); the worker simply
    answers them in order — pipelining needs no worker-side changes, and
    the front-end relies on the FIFO order to know *which* queries a dead
    worker had not yet answered.

    Warm-up emits ``("ready", worker_id, load_seconds)`` on success or
    ``("failed", worker_id, summary)`` if the artifact cannot be loaded.
    Tasks arrive over ``task_conn``, pings over ``heartbeat_conn``,
    replies leave over ``result_conn`` (private pipes: see
    :class:`_FramedPipe` for why none is a shared queue).  The worker
    exits if the task pipe reaches EOF: no task can ever arrive.
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
    results.put(("ready", worker_id, service.stats.load_seconds))
    busy = threading.Event()
    threading.Thread(target=_answer_pings,
                     args=(worker_id, _FramedPipe(heartbeat_conn), results,
                           busy),
                     name="repro-shard-pings", daemon=True).start()
    while True:
        busy.clear()
        try:
            message = tasks.get()
        except EOFError:
            return
        busy.set()
        tag = message[0]
        if tag == "shutdown":
            # query_stats() refreshes the telemetry export so the merged
            # stats see final values.
            results.put(("bye", worker_id, service.query_stats()))
            return
        if tag == "stats":
            results.put(("stats", worker_id, service.query_stats()))
            continue
        if tag != "query":
            results.put(("error", worker_id, None,
                         f"unknown command {tag!r}", ""))
            continue
        _, request_id, kind, indexed_pairs, text = message
        try:
            values = answer_batch(service, kind,
                                  [pair for _, pair in indexed_pairs])
            if text:
                values = encode_answer_texts(kind, values, service.metrics)
            indexed_values = [(index, value) for (index, _), value
                              in zip(indexed_pairs, values)]
        except Exception as exc:
            results.put(("error", worker_id, request_id,
                         f"{type(exc).__name__}: {exc}",
                         traceback.format_exc()))
            continue
        results.put(("ok", worker_id, request_id, indexed_values))


def _answer_pings(worker_id: int, pings: _FramedPipe, results: _FramedPipe,
                  busy: threading.Event) -> None:
    """Ping thread: pongs each ping while the worker makes progress — its
    main loop is idle (``busy`` clear) or has used CPU since the last pong.

    A long shard keeps pongs coming (this thread takes the GIL at the
    interpreter's switch interval); a stopped process, or a main loop
    blocked mid-task, sends none.  ``put`` holds the result pipe's send
    lock per frame, so the two writers never interleave.
    """
    # The main loop's CPU time: the process's less this thread's own.
    answered_at = time.process_time() - time.thread_time()
    try:
        while True:
            seq = pings.get()[1]
            spent = time.process_time() - time.thread_time()
            # Past a millisecond: the two clock reads themselves jitter.
            if not busy.is_set() or spent - answered_at > 1e-3:
                answered_at = spent
                results.put(("pong", worker_id, seq))
    except (EOFError, OSError):
        pass


class Worker:
    """Parent-side endpoint of one worker: its process and the parent ends
    of its private pipes — ``tasks`` and ``heartbeat`` (written) and
    ``results`` (read).

    ``state`` is the slot lifecycle, written by the front-end only:
    ``alive`` → serving; ``warming`` → respawned, loading its artifact;
    ``dead`` → exited unexpectedly or hung, awaiting a respawn (forever,
    under a spent or zero respawn budget).

    The four requests frame one message onto the task pipe (a ping onto
    the heartbeat pipe) and never block, so they are safe under the
    service lock — which keeps a worker's frames in the order the lock
    handed out its window slots: what a full pipe does not take stays
    queued in the pipe object and goes out through :meth:`finish_sends`
    or the collector's flush.  Each returns False when the reader is
    gone (the pipe is then ``exhausted``); the ``OSError`` never escapes.
    """

    __slots__ = ("worker_id", "process", "tasks", "heartbeat", "results",
                 "state")

    def __init__(self, worker_id: int, process=None,
                 tasks: Optional[_FramedPipe] = None,
                 heartbeat: Optional[_FramedPipe] = None,
                 results: Optional[_FramedPipe] = None,
                 state: str = "dead") -> None:
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.heartbeat = heartbeat
        self.results = results
        self.state = state

    @classmethod
    def spawn(cls, ctx, worker_id: int, artifact_path: str,
              cache_config: CacheConfig, kernel: str,
              telemetry: bool) -> "Worker":
        """Start one worker process (see :func:`_shard_worker` for the
        arguments) and return its endpoint; ``ready`` arrives later."""
        task_reader, task_writer = ctx.Pipe(duplex=False)
        beat_reader, beat_writer = ctx.Pipe(duplex=False)
        result_reader, result_writer = ctx.Pipe(duplex=False)
        # Only these ends: O_NONBLOCK belongs to the open file description,
        # and the worker's read end of the same pipe is another one.
        os.set_blocking(task_writer.fileno(), False)
        os.set_blocking(beat_writer.fileno(), False)
        process = ctx.Process(
            target=_shard_worker,
            args=(worker_id, artifact_path, cache_config, kernel, telemetry,
                  task_reader, beat_reader, result_writer),
            daemon=True, name=f"repro-shard-{worker_id}")
        process.start()
        # The child owns these ends now; dropping the parent's copies keeps
        # the fd table bounded across respawns, lets a write to a dead
        # worker fail (no reader left) instead of filling the pipe, and
        # makes the result pipe's EOF mean exactly "the worker is gone".
        for end in (task_reader, beat_reader, result_writer):
            end.close()
        return cls(worker_id, process, _FramedPipe(task_writer),
                   _FramedPipe(beat_writer), _FramedPipe(result_reader),
                   state="alive")

    # -- requests (the only place a request tuple is built) --------------
    def _send(self, message, pipe: Optional[_FramedPipe] = None) -> bool:
        try:
            (pipe or self.tasks).put(message)
        except OSError:
            return False
        return True

    def query(self, request_id: int, kind: str, shard: List,
              text: bool) -> bool:
        return self._send(("query", request_id, kind, shard, text))

    def request_stats(self) -> bool:
        return self._send(("stats",))

    def ping(self, seq: int) -> bool:
        return self._send(("ping", seq), self.heartbeat)

    def shutdown(self) -> bool:
        return self._send(("shutdown",))

    def finish_sends(self, deadline: float) -> bool:
        """Wait (the caller holds no service lock) until the frames queued
        by earlier requests fit into the pipe; False if the reader is
        gone.  The collector flushes the same pipe whenever it wakes, so
        frames queued by threads that cannot wait still leave."""
        pipe = self.tasks
        try:
            while pipe.pending and time.monotonic() < deadline:
                select.select([], [pipe], [], 0.2)
                pipe.flush()
        except (OSError, ValueError):
            pass    # reader gone, or the pipe was closed under us
        return not pipe.exhausted

    # -- lifecycle --------------------------------------------------------
    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def lost(self, probe: bool) -> Optional[str]:
        """Why nothing more can arrive from this worker, or ``None``.

        The signal is the result pipe's EOF: its only writer is gone and
        every frame it completed has been parsed (and, since the poll
        loop empties its backlog before it reads again, dispatched) by
        the time ``exhausted`` is set — a reply written just before the
        death is delivered, never raced.  ``probe`` adds the backstop for
        a write end that leaked into some other process: the process has
        exited and the pipe holds nothing unread.  (``is_alive()`` alone
        is not the signal: right at EOF it races the reaper.)
        """
        if self.results.exhausted:
            return "its result pipe reached EOF"
        if (probe and not self.process.is_alive()
                and not select.select([self.results], [], [], 0)[0]):
            return "its process exited"
        return None

    def stop(self, grace: float = 0.0) -> None:
        """Reap the process, killing it if it outlives ``grace`` (SIGKILL:
        a hung worker may be stopped, and a stopped process ignores
        SIGTERM until continued)."""
        if self.process is None:
            return
        if grace:
            self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)

    def retire(self) -> None:
        """Take a replaced endpoint out of service without closing what
        the collector may be mid-``select`` on: closing the result fd now
        could hand its number to the replacement's pipe.  ``exhausted``
        removes it from the select set; the front-end calls :meth:`close`
        at teardown.  Late replies are droppable (the slot's shards were
        already re-scattered); a half-written frame dies with the pipe.
        """
        if self.tasks is not None:
            self.tasks.close()
            self.heartbeat.close()
            self.results.exhausted = True

    def close(self) -> None:
        for pipe in (self.tasks, self.heartbeat, self.results):
            if pipe is not None:
                pipe.close()
