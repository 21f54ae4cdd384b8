"""Message layer: versioned, length-prefixed frames for networked serving.

The transport refactor splits networked serving into three layers; this is
the bottom one.  A *frame* is the unit of transmission::

    +-------+----------------+----------------------------------+
    | magic | payload length |  canonical JSON message payload  |
    |  2 B  |  4 B big-end.  |  (sorted keys, compact, UTF-8)   |
    +-------+----------------+----------------------------------+

Every frame carries one *message*: a JSON object with a ``"type"`` key.
The protocol is a strict request/reply handshake followed by a query
stream (clients may pipeline several ``query`` frames before reading the
matching ``answers`` frames; the server answers in arrival order):

========== ============ ====================================================
type       direction    meaning
========== ============ ====================================================
hello      client→server protocol version + client name (config negotiate)
welcome    server→client negotiated version, resolved ``ServingConfig``
query      client→server one query batch: ``id``, ``kind``, packed pairs
answers    server→client matching results + incremental serving counters
stats      client→server request a full ``ServingStats`` snapshot
stats_reply server→client the snapshot (``ServingStats.as_dict()`` form)
error      server→client typed failure; ``code`` selects the client error
close      client→server end of session (server drains, then replies)
bye        server→client final per-session stats; the stream then closes
========== ============ ====================================================

Serialization is *canonical* — sorted keys, compact separators — so a
message has exactly one byte representation and frames are reproducible
across interpreter runs (tests and trace tooling rely on this).  Node
identifiers survive the JSON round trip exactly: tuples (grid coordinates
and the like) are tagged (:func:`pack_node` / :func:`unpack_node`) rather
than silently becoming lists.  Route answers travel as compact
:class:`~repro.routing.tables.RouteTrace` records and are rebuilt
field-for-field, which is what makes a remote backend's answers
list-for-list identical to a local one's.  A route record's keys are
``s``/``t`` (endpoints), ``p`` (path), ``d`` (delivered), ``w`` (weight),
``e`` (estimate) and ``f``, which is reserved: v1 keeps the key so its
frames do not change, always writes ``0`` there and refuses any other
value on read; a binary v2 wire can drop it.

An ``answers`` frame has two encoders that produce the same bytes.
:func:`encode_answers` + :func:`encode_frame` serialize the object tree:
the definition of the format, what tools and the benchmark harness call,
and the oracle the tests compare against.  :func:`encode_answer_texts` +
:func:`splice_frame` are what a session uses: an answer's text is as pure
a function of (artifact, pair) as the answer, so a route's is built once,
where the route is cached, and joined into the envelope (a distance, a
float, is spelled by whoever writes the frame).

Failures are typed, never hangs: a short read mid-frame raises
:class:`FrameError` (truncated), a bad magic or an absurd length prefix
raises :class:`FrameError` (corrupt), a clean EOF *between* frames raises
:class:`SessionClosedError`, and a handshake version mismatch raises
:class:`ProtocolVersionError`.  All derive from :class:`WireError`.

Telemetry rides along: :func:`write_frame` times canonical serialization
(``serialize`` span) separately from the socket write (``wire_send``
span) and counts frames/bytes in both directions, so ``--json`` sessions
report where wire time goes.
"""

from __future__ import annotations

import json
import struct
from math import isfinite
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..routing.tables import RouteTrace

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "WireError",
    "FrameError",
    "ProtocolVersionError",
    "SessionClosedError",
    "BackpressureError",
    "RemoteError",
    "encode_message",
    "decode_payload",
    "encode_frame",
    "write_frame",
    "read_frame",
    "pack_node",
    "unpack_node",
    "pack_pairs",
    "unpack_pairs",
    "encode_answers",
    "encode_answer_texts",
    "splice_frame",
    "decode_answers",
    "parse_endpoint",
    "hello_message",
    "check_hello",
]

#: Current wire protocol version.  Bump on any incompatible change to the
#: frame layout or message schema; ``SUPPORTED_VERSIONS`` lists everything
#: a server will still speak (see the README protocol table).
PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = (1,)

#: Frame header: 2-byte magic + 4-byte big-endian payload length.  The
#: magic makes a desynchronised or corrupted stream fail fast as a typed
#: :class:`FrameError` instead of a multi-gigabyte bogus read.
_MAGIC = b"RW"
_HEADER = struct.Struct(">2sI")

#: Default upper bound on one frame's payload.  Generous for query batches
#: (a 10k-pair route batch is well under 1 MiB) while keeping a corrupted
#: length prefix from ever looking plausible.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(RuntimeError):
    """Base class for every transport/session failure."""


class FrameError(WireError):
    """A frame could not be read: truncated payload, bad magic, an absurd
    length prefix, or undecodable message bytes."""


class ProtocolVersionError(WireError):
    """The peers do not share a protocol version."""


class SessionClosedError(WireError):
    """The byte stream ended (or the session was closed) between frames —
    a peer disconnect, not a corrupted frame."""


class BackpressureError(WireError):
    """Admission control rejected new work because queue depth is at its
    bound (``admission="reject"``)."""


class RemoteError(WireError):
    """The server reported a failure; ``code`` is its machine-readable
    class (``"bad-request"``, ``"backend"``, ``"backpressure"``, ...)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# ======================================================================
# canonical (de)serialization
# ======================================================================

#: The one canonical text encoder.  ``allow_nan`` stays on deliberately:
#: distance estimates are legitimately ``inf`` for pairs outside every
#: bunch, and Python's JSON codec round-trips ``Infinity`` losslessly.
_canonical_text = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


def encode_message(message: Dict[str, Any]) -> bytes:
    """Canonical payload bytes: sorted keys, compact separators, UTF-8."""
    return _canonical_text(message).encode("utf-8")


def decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an int beyond the digit limit, too deep a nest
        raise FrameError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError(f"frame payload is not a typed message: "
                         f"{type(message).__name__}")
    return message


def _frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"message of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte frame bound")
    return _HEADER.pack(_MAGIC, len(payload)) + payload


def encode_frame(message: Dict[str, Any]) -> bytes:
    return _frame(encode_message(message))


def splice_frame(envelope: Dict[str, Any], texts: Sequence[str]) -> bytes:
    """``encode_frame({**envelope, "values": [...]})``, byte for byte, from
    the values' canonical texts.  ``"values"`` must sort after every key of
    the non-empty envelope (``id``, ``kind``, ``served``, ``type``)."""
    head = encode_message(envelope)
    try:
        values = ",".join(texts).encode("utf-8")
    except TypeError as exc:    # a backend handed over something else
        raise FrameError(f"answers are not canonical texts: {exc}") from None
    return _frame(b"".join((head[:-1], b',"values":[', values, b"]}")))


def write_frame(stream, message: Dict[str, Any], metrics=NULL_REGISTRY,
                texts: Optional[Sequence[str]] = None) -> int:
    """Serialize and send one frame; returns the bytes written.

    ``stream`` is any blocking binary writer (``socket.makefile("wb")``,
    ``io.BytesIO``).  Serialization cost and wire cost are timed into
    separate spans so sessions can tell encoding from transmission.
    With ``texts``, ``message`` is the envelope of :func:`splice_frame`.
    """
    with metrics.span("serialize"):
        frame = (encode_frame(message) if texts is None
                 else splice_frame(message, texts))
    with metrics.span("wire_send"):
        stream.write(frame)
        stream.flush()
    metrics.counter("wire_frames_sent").inc()
    metrics.counter("wire_bytes_sent").inc(len(frame))
    return len(frame)


def _read_exact(stream, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            got = n - remaining
            raise FrameError(f"stream truncated mid-frame: wanted {n} "
                             f"bytes, got {got}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream, metrics=NULL_REGISTRY,
               max_frame_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Read one frame; blocks until a full message arrives.

    A clean EOF *before* any header byte is a peer disconnect
    (:class:`SessionClosedError`); anything short after that is a
    truncated frame; a wrong magic or an implausible length is a corrupt
    prefix (:class:`FrameError` either way).  Never hangs beyond the
    stream's own timeout semantics.
    """
    first = stream.read(1)
    if not first:
        raise SessionClosedError("connection closed by peer")
    header = first + _read_exact(stream, _HEADER.size - 1)
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (corrupt or "
                         f"desynchronised stream)")
    if length > max_frame_bytes:
        raise FrameError(f"frame length prefix {length} exceeds the "
                         f"{max_frame_bytes}-byte bound (corrupt prefix?)")
    payload = _read_exact(stream, length)
    metrics.counter("wire_frames_received").inc()
    metrics.counter("wire_bytes_received").inc(_HEADER.size + length)
    return decode_payload(payload)


# ======================================================================
# node / answer packing
# ======================================================================

_TUPLE_TAG = "__t"


def pack_node(node: Any) -> Any:
    """JSON-safe encoding of a node id that survives the round trip.

    Ints, floats, strings, bools and ``None`` pass through; tuples (grid
    coordinates etc.) are tagged recursively so :func:`unpack_node` can
    restore them as tuples rather than lists.
    """
    if isinstance(node, tuple):
        return {_TUPLE_TAG: [pack_node(item) for item in node]}
    if isinstance(node, (int, float, str, bool)) or node is None:
        return node
    raise WireError(f"node {node!r} of type {type(node).__name__} is not "
                    f"wire-encodable (int/float/str/bool/tuple only)")


def unpack_node(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) != {_TUPLE_TAG}:
            raise FrameError(f"malformed packed node {value!r}")
        return tuple(unpack_node(item) for item in value[_TUPLE_TAG])
    return value


def pack_pairs(pairs) -> List[List[Any]]:
    return [[pack_node(s), pack_node(t)] for s, t in pairs]


def unpack_pairs(packed) -> List[Tuple[Any, Any]]:
    try:
        return [(unpack_node(s), unpack_node(t)) for s, t in packed]
    except (TypeError, ValueError) as exc:
        raise FrameError(f"malformed pair list: {exc}") from None


def encode_answers(kind: str, values) -> List[Any]:
    """Pack a batch's answers for the wire (inverse of :func:`decode_answers`)."""
    if kind == "distance":
        return [float(value) for value in values]
    return [{
        "s": pack_node(trace.source),
        "t": pack_node(trace.target),
        "p": [pack_node(node) for node in trace.path],
        "d": trace.delivered,
        "w": trace.weight,
        "f": 0,
        "e": trace.estimate,
    } for trace in values]


def encode_answer_texts(kind: str, values, metrics=NULL_REGISTRY) -> List[str]:
    """Each answer's canonical text: exactly what :func:`encode_message`
    emits for its :func:`encode_answers` record.

    A route's text is built once and kept on the trace
    (``RouteTrace.wire_text``): whoever caches the trace encodes it on first
    use, a hit is a lookup, eviction drops it; ``route_answers_encoded``
    counts texts built.  A finite distance is ``float.__repr__``.
    """
    if kind == "distance":
        return [float.__repr__(value) if isfinite(value)
                else _canonical_text(value) for value in map(float, values)]
    texts = []
    built = 0
    for trace in values:
        text = trace.wire_text
        if text is None:
            text = trace.wire_text = _canonical_text(
                encode_answers(kind, (trace,))[0])
            built += 1
        texts.append(text)
    if built:
        metrics.counter("route_answers_encoded").inc(built)
    return texts


def decode_answers(kind: str, values) -> List[Any]:
    """Rebuild answers from the wire, field-for-field.

    Route answers come back as real :class:`RouteTrace` objects, so remote
    results compare equal (``==``, list-for-list) to local ones.  Anything
    that is not a well-formed answer list raises :class:`FrameError`.
    """
    try:
        if not isinstance(values, list):
            raise TypeError(f"values is a {type(values).__name__}")
        if kind == "distance":
            return [float(value) for value in values]
        traces = []
        for record in values:
            path = record["p"]
            if not isinstance(path, list):
                raise TypeError(f"path is a {type(path).__name__}")
            if type(record["f"]) is not int or record["f"] != 0:
                raise ValueError(f"reserved key f is {record['f']!r}, not 0")
            traces.append(RouteTrace(
                source=unpack_node(record["s"]),
                target=unpack_node(record["t"]),
                # only a tagged node (a plain dict off json.loads) needs it
                path=[unpack_node(node) if type(node) is dict else node
                      for node in path],
                delivered=record["d"],
                weight=record["w"],
                estimate=record["e"]))
        return traces
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FrameError(f"malformed {kind} answers: {exc}") from None


# ======================================================================
# endpoints
# ======================================================================

def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host may be empty = all
    interfaces for servers, localhost for clients)."""
    host, sep, port_text = endpoint.rpartition(":")
    if not sep:
        raise ValueError(f"endpoint {endpoint!r} is not HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"endpoint {endpoint!r} has a non-numeric port "
                         f"{port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"endpoint port {port} outside 0..65535")
    return host, port


def hello_message(client_name: str = "repro-client",
                  protocol: int = PROTOCOL_VERSION) -> Dict[str, Any]:
    return {"type": "hello", "protocol": protocol, "client": client_name}


def check_hello(message: Dict[str, Any]) -> Optional[str]:
    """Server-side handshake validation; an error string or ``None``."""
    if message.get("type") != "hello":
        return f"expected hello, got {message.get('type')!r}"
    if message.get("protocol") not in SUPPORTED_VERSIONS:
        return (f"unsupported protocol version {message.get('protocol')!r} "
                f"(server speaks {list(SUPPORTED_VERSIONS)})")
    return None
