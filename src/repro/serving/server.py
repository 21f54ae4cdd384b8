"""The long-lived network server: ``QueryBackend`` on a TCP socket.

Layer three of the transport refactor.  :class:`RoutingServer` owns one
opened backend (local or sharded) and serves any number of concurrent
:class:`~repro.serving.session.ServerSession` clients over it with two
threads per connection — the session's reader (the thread started here,
which reads, decodes and starts answers) and the reply writer it spawns
(which resolves, encodes and sends them in arrival order).  This is the
stdlib-only sibling of an asyncio front-end, chosen because the backend
work (pickle + IPC + routing-table lookups) releases the GIL at every
blocking boundary and because it keeps the session code identical between
tests (in-memory streams) and production (sockets).

Concurrent sessions never corrupt a shared backend, and the server has no
say in how: it hands every session the same backend and the same lock,
and the session's one serve loop does the rest —

* a **local** :class:`RoutingService` is single-threaded by construction
  (LRU mutation), so its batches run under that one
  lock, in each session's writer — clients still overlap their decoding
  and wire time with each other's compute;
* a **sharded** front-end advertises ``submit_batch`` / ``wait_batch``
  (the pipelined scatter/gather, internally synchronised), so readers
  feed the worker pipeline concurrently, and its ``pipeline_depth``
  bound makes a submitter wait when the pipeline is full.

Graceful shutdown honours in-flight work: :meth:`close` stops accepting,
waits up to ``drain_timeout`` for busy sessions — ``busy`` covers every
outstanding reply up to and including its write, so the ``answers`` frame
of a batch already computed still goes out — then disconnects idle
sessions and joins every thread.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional

from ..obs.metrics import make_registry, merge_exports
from .cache import ServingStats
from .config import ServingConfig
from .session import ServerSession
from .wire import parse_endpoint

__all__ = ["RoutingServer"]


class _SessionRecord:
    __slots__ = ("session", "thread", "sock")

    def __init__(self, session, thread, sock):
        self.session = session
        self.thread = thread
        self.sock = sock


class RoutingServer:
    """Serve one opened backend to many network clients.

    Parameters
    ----------
    backend:
        Any :class:`~repro.serving.backend.QueryBackend`; the server does
        *not* close it (the caller that opened it owns its lifetime).
    endpoint:
        ``"host:port"`` to bind; port ``0`` binds an ephemeral port —
        read :attr:`address` after :meth:`start` for the real one.
    config:
        The resolved :class:`ServingConfig`, advertised to every client
        during config negotiation.
    drain_timeout:
        Upper bound on waiting for busy sessions during graceful close.
    """

    def __init__(self, backend, endpoint: str = "127.0.0.1:0", *,
                 config: Optional[ServingConfig] = None,
                 server_name: str = "repro-serve",
                 telemetry: bool = False,
                 drain_timeout: float = 10.0) -> None:
        self.backend = backend
        self.host, self.port = parse_endpoint(endpoint)
        self.config = config
        self.server_name = server_name
        self.telemetry = telemetry
        self.drain_timeout = drain_timeout
        self.metrics = make_registry(telemetry)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: List[_SessionRecord] = []
        self._session_exports: List[Dict] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        #: Shared by every session: serialises calls into a backend that
        #: has no submit/wait pair (see ServerSession).
        self._backend_lock = threading.Lock()
        self.sessions_served = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound ``"host:port"`` (the real port, once started)."""
        return f"{self.host or '127.0.0.1'}:{self.port}"

    def start(self) -> "RoutingServer":
        if self._closed:
            raise RuntimeError("server is closed")
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host or "127.0.0.1", self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True)
        self._accept_thread.start()
        self._started = True
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed — shutting down
            thread = threading.Thread(
                target=self._run_session, args=(sock, addr),
                name=f"repro-serve-{addr[0]}:{addr[1]}", daemon=True)
            with self._lock:
                if self._stop.is_set():
                    sock.close()
                    return
                record = _SessionRecord(None, thread, sock)
                self._sessions.append(record)
                self.sessions_served += 1
            thread.start()

    def _run_session(self, sock: socket.socket, addr) -> None:
        peer = f"{addr[0]}:{addr[1]}"
        session = None
        try:
            # Replies are small frames written back to back; Nagle would
            # hold each behind the previous one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            session = ServerSession(
                self.backend, rfile, wfile, lock=self._backend_lock,
                config=self.config, server_name=self.server_name,
                peer=peer, telemetry=self.telemetry)
            with self._lock:
                for record in self._sessions:
                    if record.sock is sock:
                        record.session = session
            session.serve()
        except Exception:
            pass  # session errors must never take the server down
        finally:
            try:
                sock.close()
            except OSError:
                pass
            with self._lock:
                self._sessions = [record for record in self._sessions
                                  if record.sock is not sock]
                if session is not None and session.metrics.enabled:
                    self._session_exports.append(session.metrics.export())

    def close(self, drain: bool = True) -> None:
        """Stop accepting, drain busy sessions, join everything (idempotent).

        ``drain=True`` lets every session write the replies it still
        owes (bounded by ``drain_timeout``); idle sessions are
        disconnected immediately — their next read sees a clean EOF.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._listener is not None:
            # close() alone does not wake an accept() blocked in another
            # thread on Linux; shutdown() makes it return with an error.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            deadline = time.monotonic() + self.drain_timeout
            while time.monotonic() < deadline:
                with self._lock:
                    busy = [record for record in self._sessions
                            if record.session is not None
                            and record.session.busy]
                if not busy:
                    break
                time.sleep(0.02)
        with self._lock:
            records = list(self._sessions)
        for record in records:
            try:
                record.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                record.sock.close()
            except OSError:
                pass
        for record in records:
            record.thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "RoutingServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> ServingStats:
        """Backend stats plus server-side provenance and per-session wire
        telemetry (merged additively, like shard workers)."""
        stats = self.backend.query_stats()
        stats.extra["server"] = {"address": self.address,
                                 "sessions_served": self.sessions_served}
        with self._lock:
            exports = list(self._session_exports)
            exports.extend(record.session.metrics.export()
                           for record in self._sessions
                           if record.session is not None
                           and record.session.metrics.enabled)
        if exports or self.metrics.enabled:
            stats.extra["telemetry"] = merge_exports(
                [stats.extra.get("telemetry", {})] + exports
                + [self.metrics.export()])
        return stats

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "listening" if self._started else "cold")
        return f"RoutingServer({self.address}, {state})"
