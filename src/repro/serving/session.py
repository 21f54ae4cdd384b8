"""Session layer: the ``QueryBackend`` protocol over any byte stream.

Layer two of the transport refactor (:mod:`repro.serving.wire` is the
frame layer below, :mod:`repro.serving.server` the socket server above):

* :class:`ServerSession` drives one connected client — handshake, query
  dispatch into a real :class:`~repro.serving.backend.QueryBackend`,
  stats snapshots, graceful close — over a pair of binary streams.
* :class:`ClientSession` is the mirror image and *is itself* a
  :class:`~repro.serving.backend.QueryBackend`: ``route_batch`` /
  ``distance_batch`` / ``query_stats`` / ``close`` plus context
  management, so code written against the protocol cannot tell a remote
  backend from a local one (and the acceptance tests pin that remote
  answers are list-for-list identical).

Both ends are transport-agnostic: anything with blocking ``read`` /
``write`` / ``flush`` works (socket makefiles in production,
``io.BytesIO`` pairs in tests).

Both ends pipeline.  The client keeps up to ``window`` query frames in
flight before it insists on reading answers back; answers are matched by
request id, and the time spent blocked on a full window is recorded under
the ``inflight_wait`` telemetry span.  The server side of a session is
two stages joined by a bounded FIFO of reply thunks: the reader decodes
frame ``i+1`` and starts its answer while the writer is still waiting
for, encoding or sending answer ``i``.  What bounds the overlap is the
smaller of the client's ``window`` and the backend's ``pipeline_depth``
(the FIFO's size); what it never changes is the order — every reply of
every kind leaves in the order its request arrived — or the error model:
a bad request or a refused batch is an ``error`` frame in that request's
own slot.

The writer builds no object tree for an ``answers`` frame: it splices
each answer's canonical text onto the envelope
(:func:`~repro.serving.wire.splice_frame`).  A sharded front-end hands
route texts over ready-made (``submit_texts``: its workers encode a route
once, where it is cached); distances and any other backend's answers
arrive as objects and the reply thunk encodes them with the same encoder.
On the client, a well-framed but malformed ``answers`` frame fails its own
request with :class:`~repro.serving.wire.FrameError`; the session goes on.

Config negotiation: the server's ``welcome`` frame carries its resolved
:class:`~repro.serving.config.ServingConfig` (``to_dict`` form), so the
client learns the graph spec, batch shaping and cache posture of the
backend it is talking to; :attr:`ClientSession.graph` regenerates the
served graph locally from that spec for workload generation.

Shutdown mirrors the PR-4 resource contract: a :class:`ClientSession`
that is garbage-collected while still connected emits a
:class:`ResourceWarning` naming the endpoint, exactly like an unclosed
``ShardedRoutingService`` names its workers.
"""

from __future__ import annotations

import dataclasses
import functools
import queue
import socket
import threading
import warnings
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import make_registry, merge_exports
from .cache import ServingStats
from .config import ServingConfig
from .service import answer_batch
from .wire import (
    PROTOCOL_VERSION,
    FrameError,
    ProtocolVersionError,
    RemoteError,
    SessionClosedError,
    WireError,
    check_hello,
    decode_answers,
    encode_answer_texts,
    hello_message,
    pack_pairs,
    parse_endpoint,
    read_frame,
    unpack_pairs,
    write_frame,
)

__all__ = ["ServerSession", "ClientSession"]

_Pair = Tuple[Hashable, Hashable]
#: What a reply thunk yields: the message and, for ``answers``, the values'
#: canonical texts to splice onto it (``None``: the message is whole).
_Reply = Tuple[Dict[str, Any], Optional[List[str]]]


#: Reply-FIFO bound for a backend that has no ``pipeline_depth`` of its own
#: (a local service); equals the client's default ``window``, beyond which
#: a single client cannot put more requests in flight anyway.
LOCAL_PIPELINE_DEPTH = 8


class ServerSession:
    """One client's lifetime on the server side: a two-stage pipeline.

    The thread that calls :meth:`serve` is the *reader*: it reads and
    decodes a frame, starts its answer, and appends a reply thunk to a
    bounded FIFO.  One *writer* thread drains the FIFO strictly in arrival
    order: resolve the thunk, splice, write the frame.  So while the
    writer waits for batch ``i`` (or splices and sends it), the reader has
    already decoded and started batches ``i+1 ..`` — a client's ``window``
    finally overlaps work inside the server.  Every reply kind goes
    through the same FIFO (``answers``, per-request ``error``,
    ``stats_reply``, ``bye``), which is what keeps protocol v1's "replies
    in arrival order" true.

    "Starts its answer" is the only backend-dependent step: a backend with
    the ``submit_batch`` / ``wait_batch`` pair (the sharded front-end) is
    submitted to at once and the thunk waits on the ticket; any other
    backend is single-threaded by construction, so the thunk makes the
    call itself, under ``lock``, when the writer reaches it.  The FIFO
    holds at most the backend's ``pipeline_depth`` replies
    (:data:`LOCAL_PIPELINE_DEPTH` without one); the reader blocks there,
    which is the session's backpressure on a client that sends faster
    than answers leave.

    The two threads record disjoint metrics (reads vs. serialisation and
    sends), so the session's registry needs no lock.

    Parameters
    ----------
    backend:
        The :class:`QueryBackend` answering this session's batches.
    rfile / wfile:
        Blocking binary streams (typically ``socket.makefile``).
    lock:
        Serialises calls into a backend without ``submit_batch`` — the
        network server passes one lock shared by all its sessions;
        defaults to a private one.
    config:
        The resolved :class:`ServingConfig` advertised to the client in
        the ``welcome`` frame (config negotiation).
    peer:
        Label for diagnostics (``"host:port"`` of the client).
    """

    def __init__(self, backend, rfile, wfile, *,
                 lock: Optional[threading.Lock] = None,
                 config: Optional[ServingConfig] = None,
                 server_name: str = "repro-serve", peer: str = "?",
                 telemetry: bool = False) -> None:
        self.backend = backend
        self.rfile = rfile
        self.wfile = wfile
        self.config = config
        self.server_name = server_name
        self.peer = peer
        self.metrics = make_registry(telemetry)
        self._lock = lock if lock is not None else threading.Lock()
        self._pipelined = (hasattr(backend, "submit_batch")
                           and hasattr(backend, "wait_batch"))
        #: ``submit_batch`` whose ticket resolves to the answers' canonical
        #: texts (the sharded front-end has it; its workers encode).
        self._submit_texts = (getattr(backend, "submit_texts", None)
                              if self._pipelined else None)
        #: Reply thunks in arrival order; ``None`` ends the writer.
        self._replies: queue.Queue = queue.Queue(
            getattr(backend, "pipeline_depth", LOCAL_PIPELINE_DEPTH))
        #: Set by the reader between reading a request and queueing its
        #: reply, so ``busy`` has no gap while an answer is being started.
        self._starting = False
        #: The writer's first transport failure; ends the session.
        self._write_error: Optional[Exception] = None
        #: Queries/batches answered by this session (ride along in every
        #: ``answers`` frame as the incremental ServingStats block).
        self.served_queries = 0
        self.served_batches = 0

    @property
    def busy(self) -> bool:
        """True while any reply is outstanding — started, queued, or being
        written.  The server's graceful close waits for this to clear, so
        a computed answer is never cut off between compute and send."""
        return self._starting or self._replies.unfinished_tasks > 0

    def _send(self, message: Dict[str, Any],
              texts: Optional[List[str]] = None) -> None:
        write_frame(self.wfile, message, self.metrics, texts)

    def _stats_dict(self) -> Dict[str, Any]:
        stats = self.backend.query_stats()
        return stats.as_dict()

    def handshake(self) -> bool:
        """Run the hello/welcome exchange; False when the client was
        rejected (an ``error`` frame has then already been sent)."""
        hello = read_frame(self.rfile, self.metrics)
        problem = check_hello(hello)
        if problem is not None:
            code = ("protocol-version"
                    if "protocol version" in problem else "bad-hello")
            self._send({"type": "error", "code": code, "message": problem})
            return False
        welcome: Dict[str, Any] = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server": self.server_name,
            "config": self.config.to_dict() if self.config else None,
        }
        self._send(welcome)
        return True

    def serve(self) -> None:
        """Serve until the client closes (``close`` frame or disconnect).

        Bad requests are answered with per-request ``error`` frames and
        the session survives; only transport failures end it.  Whatever
        ends the reading — ``close``, EOF, a corrupt frame — every reply
        already queued is still resolved and written before this returns.
        """
        if not self.handshake():
            return
        writer = threading.Thread(target=self._write_replies, daemon=True,
                                  name=f"repro-serve-writer-{self.peer}")
        writer.start()
        try:
            self._read_requests()
        finally:
            self._replies.put(None)
            writer.join()

    # -- stage one: read, decode, start ---------------------------------
    def _read_requests(self) -> None:
        while self._write_error is None:
            try:
                message = read_frame(self.rfile, self.metrics)
            except SessionClosedError:
                return  # client went away without a close frame
            self._starting = True
            try:
                kind = message.get("type")
                if kind == "query":
                    reply = self._start_query(message)
                elif kind == "stats":
                    reply = self._stats_reply
                elif kind == "close":
                    reply = self._bye
                else:
                    reply = _constant(_error_message(
                        "bad-request", f"unknown message type {kind!r}"))
                self._replies.put(reply)
            finally:
                self._starting = False
            if kind == "close":
                return

    def _stats_reply(self) -> _Reply:
        return {"type": "stats_reply", "stats": self._stats_dict()}, None

    def _bye(self) -> _Reply:
        """Always a ``bye``: a backend that cannot give its stats (a
        fail-stopped sharded service) sends ``null`` in their place."""
        try:
            stats = self._stats_dict()
        except Exception:
            stats = None
        return {"type": "bye", "stats": stats,
                "served": {"queries": self.served_queries,
                           "batches": self.served_batches}}, None

    def _start_query(self, message: Dict[str, Any]) -> Callable[[], _Reply]:
        """Start one batch; the returned thunk yields its reply: the
        ``answers`` envelope and the answers' canonical texts — ready-made
        from ``submit_texts``, else encoded here, outside ``lock``."""
        request_id = message.get("id")
        query_kind = message.get("kind")
        if query_kind not in ("route", "distance"):
            return _constant(_error_message(
                "bad-request", f"unknown query kind {query_kind!r}",
                id=request_id))
        try:
            pairs = unpack_pairs(message.get("pairs", []))
        except FrameError as exc:
            return _constant(_error_message("bad-request", str(exc),
                                            id=request_id))
        # Ready-made texts only where a memo makes them free (routes): a
        # float is cheaper to spell here than to pickle as a worker's str.
        encoded = query_kind == "route" and self._submit_texts is not None
        if self._pipelined:
            submit = (self._submit_texts if encoded
                      else self.backend.submit_batch)
            try:
                ticket = submit(query_kind, pairs)
            except Exception as exc:
                return _constant(_failure_message(request_id, exc))
            resolve = functools.partial(self.backend.wait_batch, ticket)
        else:
            resolve = functools.partial(self._locked_call, query_kind, pairs)
        count = len(pairs)      # the thunk need not keep the pairs alive

        def reply() -> _Reply:
            try:
                texts = resolve()
                if not encoded:
                    texts = encode_answer_texts(query_kind, texts,
                                                self.metrics)
            except Exception as exc:
                return _failure_message(request_id, exc), None
            self.served_queries += count
            self.served_batches += 1
            return {"type": "answers", "id": request_id, "kind": query_kind,
                    "served": {"queries": self.served_queries,
                               "batches": self.served_batches}}, texts
        return reply

    def _locked_call(self, kind: str, pairs: Sequence[_Pair]) -> List:
        with self._lock:
            return answer_batch(self.backend, kind, pairs)

    # -- stage two: resolve, encode, write ------------------------------
    def _write_replies(self) -> None:
        while True:
            reply = self._replies.get()
            try:
                if reply is None:
                    return
                if self._write_error is None:
                    try:
                        message, texts = reply()
                    except Exception as exc:
                        # The reply cannot be built (the stats of a
                        # fail-stopped backend): say so in its slot.
                        message, texts = _failure_message(None, exc), None
                    try:
                        self._send(message, texts)
                    except WireError as exc:
                        # The reply cannot be framed (oversize) and nothing
                        # of it was written: say so in its slot instead.
                        self._send(_error_message("backend", str(exc),
                                                  id=message.get("id")))
            except Exception as exc:
                # Only a failing send gets here: the peer is gone (or the
                # stream is unusable).  Stop writing, but keep taking
                # thunks so the reader can never block on a full FIFO; it
                # stops at its next frame.
                self._write_error = exc
            finally:
                self._replies.task_done()


def _constant(message: Dict[str, Any]) -> Callable[[], _Reply]:
    return lambda: (message, None)


def _error_message(code: str, text: str, **fields) -> Dict[str, Any]:
    return {"type": "error", "code": code, "message": text, **fields}


def _failure_message(request_id, exc: Exception) -> Dict[str, Any]:
    """The per-request ``error`` frame for a backend exception."""
    return _error_message("backend", f"{type(exc).__name__}: {exc}",
                          id=request_id)


class ClientSession:
    """A remote :class:`QueryBackend` over a byte-stream transport.

    Open one with :meth:`connect` (TCP) or construct directly over any
    stream pair (tests use in-memory pipes).  Satisfies the full backend
    protocol; ``window`` bounds how many query frames may be in flight
    before :meth:`submit` blocks reading answers (``window=1`` degenerates
    to strict request/reply).
    """

    def __init__(self, rfile, wfile, *, endpoint: str = "stream",
                 client_name: str = "repro-client", window: int = 8,
                 telemetry: bool = False,
                 sock: Optional[socket.socket] = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.rfile = rfile
        self.wfile = wfile
        self.endpoint = endpoint
        self.window = window
        self.metrics = make_registry(telemetry)
        self._sock = sock
        self._closed = False
        self._next_id = 0
        #: request_id -> query kind, in submission order (the server
        #: answers in arrival order, so the head is always next).
        self._pending: "OrderedDict[int, str]" = OrderedDict()
        self._results: Dict[int, Any] = {}
        self._served: Dict[str, int] = {"queries": 0, "batches": 0}
        self._final_stats: Optional[ServingStats] = None
        self._graph: Optional[WeightedGraph] = None
        self.remote_config: Optional[Dict[str, Any]] = None
        self.protocol = PROTOCOL_VERSION
        self.server_name: Optional[str] = None
        write_frame(self.wfile, hello_message(client_name), self.metrics)
        welcome = self._read_message()
        if welcome.get("type") == "error":
            self._teardown()
            if welcome.get("code") == "protocol-version":
                raise ProtocolVersionError(welcome.get("message", ""))
            raise RemoteError(welcome.get("code", "error"),
                              welcome.get("message", ""))
        if welcome.get("type") != "welcome":
            self._teardown()
            raise FrameError(f"expected welcome, got "
                             f"{welcome.get('type')!r}")
        self.protocol = welcome.get("protocol", PROTOCOL_VERSION)
        self.server_name = welcome.get("server")
        self.remote_config = welcome.get("config")

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    @classmethod
    def connect(cls, endpoint: str, *, timeout: float = 10.0,
                reply_timeout: float = 300.0,
                client_name: str = "repro-client", window: int = 8,
                telemetry: bool = False) -> "ClientSession":
        """Open a TCP session to ``"host:port"``.

        ``timeout`` bounds connection establishment; ``reply_timeout``
        bounds any single blocking read afterwards, so a dead server
        raises instead of hanging forever.
        """
        host, port = parse_endpoint(endpoint)
        sock = socket.create_connection((host or "127.0.0.1", port),
                                        timeout=timeout)
        sock.settimeout(reply_timeout)
        try:
            # Queries are small frames sent back to back while the window
            # fills; Nagle would hold each behind the previous one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return cls(sock.makefile("rb"), sock.makefile("wb"),
                       endpoint=endpoint, client_name=client_name,
                       window=window, telemetry=telemetry, sock=sock)
        except BaseException:
            sock.close()
            raise

    def _teardown(self) -> None:
        self._closed = True
        for stream in (self.wfile, self.rfile):
            try:
                stream.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def close(self) -> None:
        """Graceful end of session (idempotent): drain in-flight answers,
        send ``close``, keep the server's final stats from its ``bye``."""
        if self._closed:
            return
        try:
            while self._pending:
                self._read_answer()
            write_frame(self.wfile, {"type": "close"}, self.metrics)
            bye = self._read_message()
            if bye.get("type") == "bye":
                try:
                    self._final_stats = ServingStats.from_dict(
                        bye.get("stats"))
                except ValueError:
                    pass  # null (no stats to give), or unreadable: keep none
        except (WireError, OSError):
            pass  # the peer may already be gone; close is best-effort
        finally:
            self._teardown()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        # Same contract as an unclosed ShardedRoutingService: implicit
        # teardown of a live session is a caller bug — name the endpoint
        # so the leak is findable.
        try:
            if not self._closed:
                warnings.warn(
                    f"unclosed ClientSession to {self.endpoint}: call "
                    f"close() or use it as a context manager",
                    ResourceWarning, source=self, stacklevel=2)
                self._teardown()
        except BaseException:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "connected"
        return (f"ClientSession(endpoint={self.endpoint!r}, "
                f"window={self.window}, {state})")

    # ------------------------------------------------------------------
    # wire plumbing
    # ------------------------------------------------------------------
    def _read_message(self) -> Dict[str, Any]:
        try:
            return read_frame(self.rfile, self.metrics)
        except socket.timeout:
            self._teardown()
            raise WireError(f"no reply from {self.endpoint} within the "
                            f"socket timeout") from None
        except SessionClosedError:
            self._teardown()
            raise SessionClosedError(
                f"server at {self.endpoint} closed the connection "
                f"mid-session") from None

    def _read_answer(self) -> None:
        """Consume one reply frame, resolving the oldest pending request."""
        message = self._read_message()
        kind = message.get("type")
        if kind == "answers":
            request_id = message.get("id")
            pending_kind = self._pending.pop(request_id, None)
            if pending_kind is None:
                raise FrameError(f"answers for unknown request "
                                 f"{request_id!r}")
            served = message.get("served")
            try:
                if isinstance(served, dict):
                    # Incremental ServingStats: the session-so-far counters
                    # ride along in every answers frame.
                    self._served.update({key: int(value)
                                         for key, value in served.items()})
                outcome = decode_answers(pending_kind,
                                         message.get("values", []))
            except (TypeError, ValueError, OverflowError) as exc:
                outcome = FrameError(f"malformed served block: {exc}")
            except FrameError as exc:
                # The stream is still in step: only this request fails.
                outcome = exc
            self._results[request_id] = outcome
            return
        if kind == "error":
            request_id = message.get("id")
            code = message.get("code", "error")
            exc = RemoteError(code, message.get("message", ""))
            if request_id is not None and request_id in self._pending:
                self._pending.pop(request_id)
                self._results[request_id] = exc
                return
            self._teardown()
            raise exc
        raise FrameError(f"unexpected reply type {kind!r}")

    # ------------------------------------------------------------------
    # pipelined query surface
    # ------------------------------------------------------------------
    def submit(self, kind: str, pairs: Sequence[_Pair]) -> int:
        """Send one query batch; returns its request id without waiting.

        Blocks (reading answers) only when ``window`` requests are
        already in flight — that wait is the ``inflight_wait`` span.
        """
        if self._closed:
            raise SessionClosedError(
                f"session to {self.endpoint} is closed")
        if kind not in ("route", "distance"):
            raise ValueError(f"kind must be route or distance, got {kind!r}")
        with self.metrics.span("inflight_wait"):
            while len(self._pending) >= self.window:
                self._read_answer()
        self._next_id += 1
        request_id = self._next_id
        write_frame(self.wfile, {"type": "query", "id": request_id,
                                 "kind": kind, "pairs": pack_pairs(pairs)},
                    self.metrics)
        self._pending[request_id] = kind
        return request_id

    def gather(self, request_id: int) -> List:
        """Results for one submitted batch (blocking until they arrive).

        An id that is neither in flight nor answered — never submitted, or
        already gathered — raises ``KeyError`` at once: no reply will ever
        carry it, so waiting would only burn ``reply_timeout`` and tear
        down a healthy session.
        """
        while request_id not in self._results:
            if self._closed:
                raise SessionClosedError(
                    f"session to {self.endpoint} is closed")
            if request_id not in self._pending:
                raise KeyError(
                    f"request id {request_id!r} is not in flight on this "
                    f"session (never submitted, or already gathered)")
            self._read_answer()
        outcome = self._results.pop(request_id)
        if isinstance(outcome, WireError):
            raise outcome
        return outcome

    # ------------------------------------------------------------------
    # QueryBackend protocol
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Optional[WeightedGraph]:
        """The served graph, regenerated locally from the negotiated
        ``graph_spec`` (``None`` when the server did not advertise one)."""
        if self._graph is None:
            spec = (self.remote_config or {}).get("graph_spec")
            if spec:
                from .specs import parse_graph_spec
                self._graph = parse_graph_spec(spec)
        return self._graph

    def route_batch(self, pairs: Sequence[_Pair]) -> List:
        return self.gather(self.submit("route", pairs))

    def distance_batch(self, pairs: Sequence[_Pair]) -> List[float]:
        return self.gather(self.submit("distance", pairs))

    def query_stats(self) -> ServingStats:
        """The server backend's stats, with this session's wire telemetry
        folded into ``extra`` (``wire`` counters + client-side spans)."""
        if self._closed:
            # A copy: the fold below must not compound in the cached bye.
            stats = (dataclasses.replace(self._final_stats,
                                         extra=dict(self._final_stats.extra))
                     if self._final_stats is not None else ServingStats())
        else:
            while self._pending:   # stats_reply follows pending answers
                self._read_answer()
            write_frame(self.wfile, {"type": "stats"}, self.metrics)
            reply = self._read_message()
            if reply.get("type") == "error":
                # The backend has no stats to give (it fail-stopped); the
                # stream is still in step, so the session goes on.
                raise RemoteError(reply.get("code", "error"),
                                  reply.get("message", ""))
            if reply.get("type") != "stats_reply":
                raise FrameError(f"expected stats_reply, got "
                                 f"{reply.get('type')!r}")
            try:
                stats = ServingStats.from_dict(reply.get("stats", {}))
            except ValueError as exc:
                # The frame was read whole, so the stream is still in
                # step: only this request fails, the session goes on.
                raise FrameError(f"malformed stats_reply: {exc}") from None
        wire: Dict[str, Any] = {"endpoint": self.endpoint,
                                "protocol": self.protocol,
                                "window": self.window,
                                "session_queries": self._served["queries"],
                                "session_batches": self._served["batches"]}
        if self.metrics.enabled:
            export = self.metrics.export()
            for name in ("wire_frames_sent", "wire_bytes_sent",
                         "wire_frames_received", "wire_bytes_received"):
                if name in export:
                    wire[name] = export[name]["value"]
            stats.extra["telemetry"] = merge_exports(
                [stats.extra.get("telemetry", {}), export])
        stats.extra["wire"] = wire
        return stats
