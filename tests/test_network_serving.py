"""Transport layer: wire robustness, networked sessions, pipelined sharded.

Three layers under test, bottom up:

* the frame codec (:mod:`repro.serving.wire`) — every malformed byte
  stream must raise a *typed* error immediately, never hang or
  desynchronise;
* :class:`ClientSession` / :class:`ServerSession` /
  :class:`RoutingServer` — a networked backend must be list-for-list
  identical to the in-process service it fronts, for one client and for
  several concurrent ones, and must negotiate config/graph and fold wire
  telemetry into stats;
* the pipelined sharded front-end — ``submit_batch`` / ``wait_batch``
  with one bound on the batches in flight (``pipeline_depth``).
"""

import contextlib
import copy
import dataclasses
import gc
import io
import os
import pickle
import signal
import socket
import struct
import sys
import threading
import time
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import watchdog
from repro import graphs
from repro.obs.metrics import make_registry
from repro.serving import fleet as fleet_module
from repro.serving import worker as worker_module
from repro.serving import (
    BuildConfig,
    CacheConfig,
    ClientSession,
    FrameError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolVersionError,
    RemoteError,
    RoutingServer,
    ServerSession,
    ServingConfig,
    ServingStats,
    SessionClosedError,
    ShardError,
    ShardedRoutingService,
    WireError,
    open_service,
    parse_endpoint,
    read_frame,
    write_frame,
    zipf_workload,
)
from repro.routing.tables import RouteTrace
from repro.serving.wire import (
    check_hello,
    decode_answers,
    encode_answer_texts,
    encode_answers,
    encode_frame,
    encode_message,
    hello_message,
    pack_node,
    pack_pairs,
    splice_frame,
    unpack_node,
    unpack_pairs,
)
from repro.serving.workloads import bursty_workload, uniform_workload


@pytest.fixture(scope="module")
def net_graph():
    return graphs.erdos_renyi_graph(40, 0.12, graphs.uniform_weights(1, 30),
                                    seed=9)


@pytest.fixture(scope="module")
def net_config(net_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("net") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path, build=BuildConfig(seed=2),
                           graph_spec="er:n=40,p=0.12,seed=9,"
                                      "weights=uniform:1:30")
    open_service(config, graph=net_graph)
    return config


@pytest.fixture(scope="module")
def local_backend(net_config):
    return open_service(net_config)


@pytest.fixture(scope="module")
def server(local_backend, net_config):
    with RoutingServer(local_backend, "127.0.0.1:0",
                       config=net_config) as srv:
        yield srv


# ======================================================================
# frame codec robustness
# ======================================================================
class TestWireFrames:
    def test_round_trip(self):
        message = {"type": "query", "id": 3, "pairs": [[1, 2]]}
        stream = io.BytesIO(encode_frame(message))
        assert read_frame(stream) == message

    def test_canonical_encoding_is_key_order_independent(self):
        a = encode_message({"type": "x", "b": 1, "a": 2})
        b = encode_message({"a": 2, "b": 1, "type": "x"})
        assert a == b

    def test_truncated_payload_raises_frame_error(self):
        frame = encode_frame({"type": "close"})
        with pytest.raises(FrameError, match="truncated"):
            read_frame(io.BytesIO(frame[:-3]))

    def test_truncated_header_raises_frame_error(self):
        frame = encode_frame({"type": "close"})
        with pytest.raises(FrameError, match="truncated"):
            read_frame(io.BytesIO(frame[:3]))

    def test_bad_magic_raises_frame_error(self):
        frame = b"XX" + encode_frame({"type": "close"})[2:]
        with pytest.raises(FrameError, match="magic"):
            read_frame(io.BytesIO(frame))

    def test_absurd_length_prefix_raises_frame_error(self):
        header = struct.pack(">2sI", b"RW", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="length prefix"):
            read_frame(io.BytesIO(header + b"\x00" * 16))

    def test_clean_eof_between_frames_is_session_closed(self):
        with pytest.raises(SessionClosedError):
            read_frame(io.BytesIO(b""))

    def test_undecodable_payload_raises_frame_error(self):
        garbage = b"\xff\xfe not json"
        frame = struct.pack(">2sI", b"RW", len(garbage)) + garbage
        with pytest.raises(FrameError, match="undecodable"):
            read_frame(io.BytesIO(frame))

    def test_untyped_payload_raises_frame_error(self):
        payload = encode_message({"type": "x"}).replace(b'"type"', b'"nope"')
        frame = struct.pack(">2sI", b"RW", len(payload)) + payload
        with pytest.raises(FrameError, match="typed"):
            read_frame(io.BytesIO(frame))

    def test_oversize_message_refused_before_send(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"type": "blob", "data": "x" * (MAX_FRAME_BYTES + 1)})

    def test_write_frame_counts_bytes(self):
        stream = io.BytesIO()
        written = write_frame(stream, {"type": "close"})
        assert written == len(stream.getvalue())

    def test_tuple_nodes_survive_round_trip(self):
        nodes = [(1, 2), ((0, 1), 3), "v", 7, None]
        assert [unpack_node(pack_node(n)) for n in nodes] == nodes
        pairs = [((1, 2), (3, 4)), (0, 1)]
        assert unpack_pairs(pack_pairs(pairs)) == pairs

    def test_unencodable_node_raises(self):
        with pytest.raises(WireError, match="not\\s+wire-encodable"):
            pack_node(object())

    def test_malformed_packed_node_raises(self):
        with pytest.raises(FrameError, match="malformed"):
            unpack_node({"__t": [1], "extra": 2})

    def test_distance_answers_round_trip(self):
        values = [1.0, float("inf"), 2.5]
        assert decode_answers("distance",
                              encode_answers("distance", values)) == values

    @pytest.mark.parametrize("values", [["abc"], [None], [[1]], 5, None,
                                        {"0": 1.0}, [10 ** 400]])
    def test_malformed_distance_answers_raise_frame_error(self, values):
        # used to leak ValueError / TypeError: only the route branch was
        # inside the try
        with pytest.raises(FrameError, match="malformed distance answers"):
            decode_answers("distance", values)

    @pytest.mark.parametrize("values", [
        5, None, "abc",                                    # not a list
        [[1, 2, 3]], ["s"], [None], [7],                   # non-dict record
        [{"s": 1, "t": 2, "d": True, "w": 1.0, "f": 0, "e": 1.0}],  # no "p"
        [{"s": 1, "t": 2, "p": 5, "d": True, "w": 1.0, "f": 0, "e": 1.0}],
        [{"s": 1, "t": 2, "p": "12", "d": True, "w": 1.0, "f": 0, "e": 1.0}],
        [{"s": 1, "t": 2, "p": {"__t": [1]}, "d": True, "w": 1.0, "f": 0,
          "e": 1.0}],                                      # "p" not a list
        [{"s": 1, "t": 2, "p": [1, {"__t": [1], "x": 2}], "d": True,
          "w": 1.0, "f": 0, "e": 1.0}],                    # bad tagged node
        [{"s": {"t": [1]}, "t": 2, "p": [], "d": True, "w": 1.0, "f": 0,
          "e": 1.0}],
        [{"s": 1, "t": {"__t": 5}, "p": [], "d": True, "w": 1.0, "f": 0,
          "e": 1.0}],                                      # tag holds no list
        [{"s": 1, "t": 2, "p": [1, 2], "d": True, "w": 1.0, "f": 1,
          "e": 1.0}],                                      # reserved "f" not 0
    ])
    def test_malformed_route_answers_raise_frame_error(self, values):
        with pytest.raises(FrameError, match="malformed"):
            decode_answers("route", values)

    def test_route_decode_unpacks_tagged_nodes_only(self):
        trace = RouteTrace((0, 1), "v", [(0, 1), 7, "k", ((2, 3), None), "v"],
                           True, 4.0, 4.5)
        record = read_frame(io.BytesIO(encode_frame(
            {"type": "answers",
             "values": encode_answers("route", [trace])})))["values"]
        assert decode_answers("route", record) == [trace]

    @pytest.mark.parametrize("payload", [
        b"[" * 100000,                          # nesting beyond the stack
        b'{"type":"answers","id":' + b"9" * 5000 + b"}",   # int digit limit
    ])
    def test_payload_the_json_parser_refuses_is_a_frame_error(self, payload):
        frame = struct.pack(">2sI", b"RW", len(payload)) + payload
        with pytest.raises(FrameError, match="undecodable"):
            read_frame(io.BytesIO(frame))

    def test_parse_endpoint(self):
        assert parse_endpoint("localhost:80") == ("localhost", 80)
        assert parse_endpoint(":9000") == ("", 9000)
        for bad in ("nohost", "h:notaport", "h:70000"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)

    def test_check_hello(self):
        assert check_hello(hello_message()) is None
        assert "protocol version" in check_hello(hello_message(protocol=99))
        assert "expected hello" in check_hello({"type": "query"})


# ======================================================================
# handshake and session-level failure paths
# ======================================================================
#: What a server says after ``hello``: the head of every canned reply stream.
_WELCOME = encode_frame({"type": "welcome", "protocol": PROTOCOL_VERSION,
                         "server": "t", "config": None})


class TestHandshake:
    def test_server_rejects_wrong_version(self, local_backend, net_config):
        rfile = io.BytesIO(encode_frame(hello_message(protocol=99)))
        wfile = io.BytesIO()
        session = ServerSession(local_backend, rfile, wfile,
                                config=net_config)
        assert session.handshake() is False
        reply = read_frame(io.BytesIO(wfile.getvalue()))
        assert reply["type"] == "error"
        assert reply["code"] == "protocol-version"

    def test_server_rejects_non_hello_first_frame(self, local_backend):
        rfile = io.BytesIO(encode_frame({"type": "query", "id": 1}))
        wfile = io.BytesIO()
        session = ServerSession(local_backend, rfile, wfile)
        assert session.handshake() is False
        reply = read_frame(io.BytesIO(wfile.getvalue()))
        assert reply["code"] == "bad-hello"

    def test_client_raises_typed_error_on_version_mismatch(
            self, server, monkeypatch):
        import repro.serving.session as session_mod
        monkeypatch.setattr(session_mod, "hello_message",
                            lambda name: hello_message(name, protocol=99))
        with pytest.raises(ProtocolVersionError, match="99"):
            ClientSession.connect(server.address, timeout=5.0,
                                  reply_timeout=5.0)

    def test_client_rejects_non_welcome_reply(self, local_backend):
        rfile = io.BytesIO(encode_frame({"type": "stats_reply", "stats": {}}))
        with pytest.raises(FrameError, match="expected welcome"):
            ClientSession(rfile, io.BytesIO())

    def test_mid_stream_disconnect_raises_session_closed(
            self, local_backend, net_config, net_graph):
        # A server that vanishes after the welcome frame: the client's next
        # read hits a clean EOF and must raise, not hang.
        client = ClientSession(io.BytesIO(_WELCOME), io.BytesIO())
        nodes = net_graph.nodes()
        with pytest.raises(SessionClosedError, match="closed the connection"):
            client.distance_batch([(nodes[0], nodes[1])])
        client.close()

    def test_truncated_reply_mid_frame_raises_frame_error(self, net_graph):
        answers = encode_frame({"type": "answers", "id": 1,
                                "kind": "distance", "values": [1.0]})
        client = ClientSession(io.BytesIO(_WELCOME + answers[:-2]),
                               io.BytesIO())
        nodes = net_graph.nodes()
        with pytest.raises(FrameError, match="truncated"):
            client.distance_batch([(nodes[0], nodes[1])])
        client.close()

    @pytest.mark.parametrize("corrupt, error, match", [
        *[(corrupt, FrameError, "malformed") for corrupt in (
            {"served": {"queries": "many", "batches": 1}},  # not an integer
            {"served": {"queries": None}},
            {"served": {"queries": [1]}},
            {"served": {"queries": float("inf")}},
            {"values": ["abc"]}, {"values": [None]}, {"values": [[1]]},
            {"values": 5}, {"values": None})],
        # an error code this version has no class for (a peer that still
        # bounces at admission sends "backpressure") is a RemoteError
        # carrying the peer's code
        ({"type": "error", "code": "backpressure",
          "message": "pipeline full"}, RemoteError,
         r"\[backpressure\] pipeline full"),
    ])
    def test_malformed_answers_frame_fails_its_own_request_typed(
            self, corrupt, error, match):
        # A well-framed reply with hostile contents used to escape gather
        # as a bare ValueError/TypeError; now it is that request's
        # FrameError and, the stream being in step, the session goes on.
        bad = {"type": "answers", "id": 1, "kind": "distance",
               "values": [1.0], "served": {"queries": 1, "batches": 1}}
        good = dict(bad, id=2, values=[2.5],
                    served={"queries": 2, "batches": 2})
        client = ClientSession(
            io.BytesIO(_WELCOME + encode_frame({**bad, **corrupt})
                       + encode_frame(good)), io.BytesIO())
        first = client.submit("distance", [(0, 1)])
        second = client.submit("distance", [(0, 2)])
        assert client.gather(second) == [2.5]
        with pytest.raises(error, match=match) as raised:
            client.gather(first)
        assert getattr(raised.value, "code", None) == corrupt.get("code")
        with pytest.raises(KeyError):       # resolved, not left pending
            client.gather(first)
        client._teardown()

    def test_unclosed_client_session_warns_with_endpoint(self, server):
        client = ClientSession.connect(server.address, timeout=5.0,
                                       reply_timeout=5.0)
        endpoint = client.endpoint
        with pytest.warns(ResourceWarning,
                          match=f"unclosed ClientSession to {endpoint}"):
            del client
            gc.collect()

    def test_close_is_idempotent_and_blocks_further_queries(self, server):
        client = ClientSession.connect(server.address, timeout=5.0,
                                       reply_timeout=5.0)
        client.close()
        client.close()
        with pytest.raises(SessionClosedError):
            client.submit("distance", [])


# ======================================================================
# networked backend == local backend
# ======================================================================
def _batches(workload, batch_size=25):
    pairs = workload.pairs
    return [pairs[i:i + batch_size]
            for i in range(0, len(pairs), batch_size)]


class TestNetworkedIdentity:
    def test_single_client_routes_identical(self, server, local_backend,
                                            net_graph):
        workload = zipf_workload(net_graph.nodes(), 120, seed=5)
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            for batch in _batches(workload):
                assert client.route_batch(batch) == \
                    local_backend.route_batch(batch)
                assert client.distance_batch(batch) == \
                    local_backend.distance_batch(batch)

    def test_strict_request_reply_window_one(self, server, local_backend,
                                             net_graph):
        workload = uniform_workload(net_graph.nodes(), 60, seed=3)
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0, window=1) as client:
            for batch in _batches(workload, 20):
                assert client.distance_batch(batch) == \
                    local_backend.distance_batch(batch)

    def test_pipelined_submit_gather_out_of_order(self, server,
                                                  local_backend, net_graph):
        workload = zipf_workload(net_graph.nodes(), 80, seed=11)
        batches = _batches(workload, 10)
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0, window=8) as client:
            tickets = [client.submit("distance", batch) for batch in batches]
            # gather in reverse submission order: results still line up
            for ticket, batch in zip(reversed(tickets), reversed(batches)):
                assert client.gather(ticket) == \
                    local_backend.distance_batch(batch)

    def test_gather_of_unknown_id_raises_at_once(self, server, local_backend,
                                                 net_graph):
        """Never-hang contract: an id no reply will ever carry — never
        submitted, or already gathered — used to sit in ``_read_answer``
        for the whole ``reply_timeout`` and then tear the session down."""
        batch = uniform_workload(net_graph.nodes(), 10, seed=5).pairs
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            start = time.monotonic()
            with pytest.raises(KeyError, match="12345"):
                client.gather(12345)
            ticket = client.submit("distance", batch)
            expected = local_backend.distance_batch(batch)
            assert client.gather(ticket) == expected
            with pytest.raises(KeyError, match=str(ticket)):
                client.gather(ticket)
            # the socket was never touched: the session is still healthy
            assert client.gather(client.submit("distance", batch)) == expected
            assert time.monotonic() - start < 1.0

    def test_concurrent_clients_each_identical(self, server, local_backend,
                                               net_graph):
        nodes = net_graph.nodes()
        workloads = [zipf_workload(nodes, 80, seed=21),
                     uniform_workload(nodes, 80, seed=22),
                     bursty_workload(nodes, 80, seed=23)]
        expected = [[local_backend.route_batch(batch)
                     for batch in _batches(w, 16)] for w in workloads]
        failures = []

        def drive(workload, want):
            try:
                with ClientSession.connect(server.address, timeout=5.0,
                                           reply_timeout=30.0) as client:
                    got = [client.route_batch(batch)
                           for batch in _batches(workload, 16)]
                if got != want:
                    failures.append("answers diverged")
            except Exception as exc:   # noqa: BLE001 - surfaced below
                failures.append(repr(exc))

        threads = [threading.Thread(target=drive, args=(w, want))
                   for w, want in zip(workloads, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures

    def test_bad_query_kind_is_per_request_error(self, server):
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            with pytest.raises(ValueError, match="kind"):
                client.submit("teleport", [])
            # the session survives client-side validation
            assert client.distance_batch([]) == []

    def test_remote_backend_error_is_typed_and_survivable(self, server,
                                                          net_graph):
        nodes = net_graph.nodes()
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            with pytest.raises(RemoteError):
                client.distance_batch([("no-such-node", nodes[0])])
            # per-request error: later batches on the same session work
            assert len(client.distance_batch([(nodes[0], nodes[1])])) == 1


class TestNegotiationAndStats:
    def test_welcome_carries_resolved_config(self, server, net_config):
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            assert client.protocol == PROTOCOL_VERSION
            assert client.server_name == "repro-serve"
            assert client.remote_config["graph_spec"] == \
                net_config.graph_spec

    def test_client_graph_regenerated_from_spec(self, server, net_graph):
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            remote = client.graph
            assert remote.nodes() == net_graph.nodes()
            assert remote.num_edges == net_graph.num_edges

    def test_stats_round_trip_with_wire_extras(self, server, net_graph):
        nodes = net_graph.nodes()
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0) as client:
            client.distance_batch([(nodes[0], nodes[1]), (nodes[2],
                                                          nodes[3])])
            stats = client.query_stats()
            wire = stats.extra["wire"]
            assert wire["endpoint"] == server.address
            assert wire["protocol"] == PROTOCOL_VERSION
            assert wire["session_queries"] == 2
            assert wire["session_batches"] == 1

    def test_final_stats_preserved_after_close(self, server, net_graph):
        nodes = net_graph.nodes()
        client = ClientSession.connect(server.address, timeout=5.0,
                                       reply_timeout=30.0)
        client.distance_batch([(nodes[0], nodes[1])])
        client.close()
        stats = client.query_stats()   # served from the bye frame
        assert stats.extra["wire"]["session_queries"] == 1

    def test_stats_after_close_do_not_compound(self, server, net_graph):
        """The client's telemetry export used to be folded into the cached
        bye snapshot itself, so every call after ``close()`` added the
        client-side counters once more (frames sent read 3, 6, 9, ...)."""
        nodes = net_graph.nodes()
        client = ClientSession.connect(server.address, timeout=5.0,
                                       reply_timeout=30.0, telemetry=True)
        client.distance_batch([(nodes[0], nodes[1])])
        client.close()
        first = client.query_stats().as_dict()
        assert client.query_stats().as_dict() == first
        assert (first["extra"]["telemetry"]["wire_frames_sent"]["value"]
                == first["extra"]["wire"]["wire_frames_sent"])

    #: Stats payloads a peer may send that this version cannot read: the
    #: first is what a server from before PR 20 sends (two fields since
    #: removed), the rest are hostile bytes.
    MALFORMED_STATS = [
        pytest.param(dict(ServingStats().as_dict(), hot_hits=3,
                          warm_seconds=None), id="older-peer"),
        pytest.param({"queries": 1, "extra": 5}, id="extra-not-a-dict"),
        pytest.param(7, id="not-a-dict"),
        pytest.param({"queries": "abc"}, id="string-counter"),
        pytest.param({"queries": True, "load_seconds": [0.5]},
                     id="bool-counter"),
    ]

    @watchdog(30.0)
    @pytest.mark.parametrize("payload", MALFORMED_STATS)
    def test_malformed_stats_reply_is_typed_and_survivable(self, payload):
        # Used to escape as a bare ValueError / TypeError, or (a string
        # counter) to be accepted; the frame was read whole, so only this
        # request fails and the next one is answered.
        good = ServingStats(queries=4, build_seconds=0.5).as_dict()
        client = ClientSession(io.BytesIO(
            _WELCOME + encode_frame({"type": "stats_reply", "stats": payload})
            + encode_frame({"type": "stats_reply", "stats": good})),
            io.BytesIO())
        with pytest.raises(FrameError, match="malformed stats_reply"):
            client.query_stats()
        stats = client.query_stats()
        assert (stats.queries, stats.build_seconds) == (4, 0.5)
        client._teardown()

    @watchdog(30.0)
    @pytest.mark.parametrize("payload", MALFORMED_STATS)
    def test_malformed_bye_never_raises_from_close(self, payload):
        client = ClientSession(io.BytesIO(
            _WELCOME + encode_frame({"type": "bye", "stats": payload})),
            io.BytesIO())
        client.close()      # best-effort: no final stats, no exception
        assert client._final_stats is None
        assert client.query_stats().queries == 0

    def test_wire_telemetry_spans_present(self, server, net_graph):
        nodes = net_graph.nodes()
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0,
                                   telemetry=True) as client:
            client.distance_batch([(nodes[0], nodes[1])])
            stats = client.query_stats()
            telemetry = stats.extra["telemetry"]
            for span in ("serialize", "wire_send", "inflight_wait"):
                assert span in telemetry, span
            assert stats.extra["wire"]["wire_frames_sent"] >= 2

    def test_server_stats_track_sessions(self, server):
        before = server.sessions_served
        with ClientSession.connect(server.address, timeout=5.0,
                                   reply_timeout=30.0):
            pass
        stats = server.stats()
        assert stats.extra["server"]["address"] == server.address
        assert stats.extra["server"]["sessions_served"] > before


# ======================================================================
# connect-mode config plumbing (open_service returns a ClientSession)
# ======================================================================
class TestConnectConfig:
    def test_open_service_connect_returns_client_session(self, server,
                                                         local_backend,
                                                         net_graph):
        config = ServingConfig(connect=server.address)
        workload = zipf_workload(net_graph.nodes(), 40, seed=7)
        with open_service(config) as backend:
            assert isinstance(backend, ClientSession)
            for batch in _batches(workload, 20):
                assert backend.route_batch(batch) == \
                    local_backend.route_batch(batch)

    def test_connect_config_rejects_local_backend_fields(self):
        with pytest.raises(ValueError, match="workers=1"):
            ServingConfig(connect="h:1", workers=2)
        with pytest.raises(ValueError, match="graph and artifact"):
            ServingConfig(connect="h:1", graph_spec="path:n=4")

    def test_artifact_only_server_advertises_stored_graph_spec(
            self, net_config):
        from repro.serving.cli import advertised_config

        # an artifact-only deployment (no --graph): the spec that built
        # the artifact is recovered from its header for negotiation
        bare = ServingConfig(artifact_path=net_config.artifact_path,
                             build=net_config.build)
        assert advertised_config(bare).graph_spec == net_config.graph_spec
        # an explicit spec wins; a spec-less config without an artifact
        # passes through untouched
        assert advertised_config(net_config) is net_config
        assert advertised_config(ServingConfig(connect="h:1")).graph_spec \
            is None

    def test_session_without_advertised_graph_fails_clearly(
            self, local_backend):
        from repro.serving.cli import run_serving_session

        # a server that advertises no config at all: the client backend
        # has no graph, so workload generation must fail with guidance,
        # not an AttributeError deep in a generator
        with RoutingServer(local_backend, "127.0.0.1:0") as srv:
            config = ServingConfig(connect=srv.address)
            with pytest.raises(ValueError, match="advertise a graph spec"):
                run_serving_session(config)


def test_close_of_idle_server_wakes_accept_thread(local_backend):
    # close() must wake the accept() blocked in the accept thread (closing
    # the listener from another thread does not, on Linux) instead of
    # waiting out the 5 s join timeout with the thread still alive.
    srv = RoutingServer(local_backend, "127.0.0.1:0").start()
    time.sleep(0.2)     # let the accept thread block in accept()
    started = time.monotonic()
    srv.close()
    assert time.monotonic() - started < 1.0
    assert not srv._accept_thread.is_alive()


# ======================================================================
# pipelined sharded front-end
# ======================================================================
@pytest.fixture(scope="module")
def sharded_service(net_config, net_graph):
    config = dataclasses.replace(
        net_config, workers=2, cache=CacheConfig(capacity=512))
    service = open_service(config, graph=net_graph)
    assert isinstance(service, ShardedRoutingService)
    with service:
        yield service


@contextlib.contextmanager
def _frozen(service):
    """SIGSTOP every worker of ``service`` for the body.  A small batch
    submitted meanwhile fits the task pipes, so it is admitted at once and
    stays unanswered until the body ends: the answer is held, where a big
    batch only hoped to outlast the next statement."""
    pids = [worker.process.pid for worker in service.workers]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)


class TestPipelinedSharded:
    def test_submit_wait_matches_sequential(self, sharded_service,
                                            local_backend, net_graph):
        workload = zipf_workload(net_graph.nodes(), 100, seed=13)
        batches = _batches(workload, 10)
        tickets = [sharded_service.submit_batch("route", batch)
                   for batch in batches]
        for ticket, batch in zip(tickets, batches):
            assert sharded_service.wait_batch(ticket) == \
                local_backend.route_batch(batch)

    @watchdog(60.0)
    @pytest.mark.parametrize("batch_size", [32, 1])
    def test_admission_block_completes_beyond_depth(self, net_config,
                                                    net_graph, local_backend,
                                                    batch_size):
        """``pipeline_depth`` is the one bound on work in flight: with the
        workers stopped, ``depth`` submits return and the next one waits
        until they answer.  A 32-pair batch gives both workers a shard, a
        1-pair batch only one of them; neither gets past the bound."""
        config = dataclasses.replace(net_config, workers=2, pipeline_depth=2)
        pairs = uniform_workload(net_graph.nodes(), 3 * batch_size,
                                 seed=4).pairs
        batches = [pairs[lo:lo + batch_size]
                   for lo in range(0, len(pairs), batch_size)]
        third = {}
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs[:4])   # warm: spawn cost paid
            with _frozen(service):
                tickets = [service.submit_batch("distance", batch)
                           for batch in batches[:2]]
                submitter = threading.Thread(
                    target=lambda: third.update(ticket=service.submit_batch(
                        "distance", batches[2])), daemon=True)
                submitter.start()
                submitter.join(0.5)
                assert submitter.is_alive(), \
                    "a third batch was admitted past pipeline_depth=2"
            submitter.join(20.0)
            assert not submitter.is_alive()
            tickets.append(third["ticket"])
            got = [service.wait_batch(ticket) for ticket in tickets]
        assert got == [local_backend.distance_batch(batch)
                       for batch in batches]

    def test_merged_stats_report_pipeline_shape(self, sharded_service):
        stats = sharded_service.merged_stats()
        assert stats.extra["pipeline"] == {"depth": 8}

    def test_server_over_sharded_backend_identical(self, sharded_service,
                                                   local_backend, net_config,
                                                   net_graph):
        workloads = [zipf_workload(net_graph.nodes(), 60, seed=31),
                     bursty_workload(net_graph.nodes(), 60, seed=32)]
        expected = [[local_backend.route_batch(batch)
                     for batch in _batches(w, 12)] for w in workloads]
        failures = []
        with RoutingServer(sharded_service, "127.0.0.1:0",
                           config=net_config) as srv:
            def drive(workload, want):
                try:
                    with ClientSession.connect(srv.address, timeout=5.0,
                                               reply_timeout=30.0) as client:
                        got = [client.route_batch(batch)
                               for batch in _batches(workload, 12)]
                    if got != want:
                        failures.append("answers diverged")
                except Exception as exc:   # noqa: BLE001 - surfaced below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=drive, args=(w, want))
                       for w, want in zip(workloads, expected)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not failures, failures


# ======================================================================
# server-side session pipeline
# ======================================================================
class _Ticket:
    def __init__(self, number, kind, pairs):
        self.number = number
        self.kind = kind
        self.pairs = pairs
        self.done = threading.Event()


class FakePipelinedBackend:
    """A ``submit_batch`` / ``wait_batch`` backend that answers distance
    ``float(s + t)`` and records what the session did with it."""

    pipeline_depth = 8

    def __init__(self, delay=0.0, complete="at_once"):
        self.delay = delay
        self.complete = complete      # "at_once" | "manual"
        self.tickets = []
        self.events = []              # ("submit"|"wait"|"stats", number)
        self.in_flight = 0
        self.max_in_flight = 0
        self.fail = set()             # ticket numbers that fail at submit
        self._lock = threading.Lock()

    def submit_batch(self, kind, pairs):
        with self._lock:
            number = len(self.tickets) + 1
            ticket = _Ticket(number, kind, list(pairs))
            self.tickets.append(ticket)
            if number in self.fail:
                raise ShardError("sharded service is closed")
            self.events.append(("submit", number))
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        if self.complete == "at_once":
            ticket.done.set()
        return ticket

    def wait_batch(self, ticket):
        assert ticket.done.wait(timeout=20.0), "fake ticket never completed"
        time.sleep(self.delay)
        with self._lock:
            self.events.append(("wait", ticket.number))
            self.in_flight -= 1
        return [float(s + t) for s, t in ticket.pairs]

    def query_stats(self):
        with self._lock:
            self.events.append(("stats", len(self.tickets)))
        return ServingStats()


def _query(request_id, pairs, kind="distance"):
    return encode_frame({"type": "query", "id": request_id, "kind": kind,
                         "pairs": pack_pairs(pairs)})


def _serve_frames(backend, *frames):
    """Run one ServerSession over in-memory streams; its reply frames."""
    rfile = io.BytesIO(encode_frame(hello_message()) + b"".join(frames))
    wfile = io.BytesIO()
    ServerSession(backend, rfile, wfile).serve()
    replies = io.BytesIO(wfile.getvalue())
    out = []
    while True:
        try:
            out.append(read_frame(replies))
        except SessionClosedError:
            return out[1:]      # drop the welcome


class TestServerPipelining:
    @watchdog(30.0)
    @pytest.mark.parametrize("window,expected", [(8, None), (1, 1)])
    def test_one_client_keeps_tickets_in_flight(self, window, expected):
        backend = FakePipelinedBackend(delay=0.005)
        batches = [[(i, j) for j in range(4)] for i in range(16)]
        with RoutingServer(backend, "127.0.0.1:0") as srv:
            with ClientSession.connect(srv.address, timeout=5.0,
                                       reply_timeout=20.0,
                                       window=window) as client:
                tickets = [client.submit("distance", b) for b in batches]
                got = [client.gather(t) for t in tickets]
        assert got == [[float(s + t) for s, t in b] for b in batches]
        if expected is None:
            assert backend.max_in_flight >= 2
        else:
            assert backend.max_in_flight == expected

    @watchdog(30.0)
    def test_replies_keep_arrival_order_when_later_ticket_completes_first(
            self):
        backend = FakePipelinedBackend(complete="manual")

        def complete_in_reverse():
            while len(backend.tickets) < 3:
                time.sleep(0.005)
            for ticket in reversed(backend.tickets):
                ticket.done.set()
                time.sleep(0.02)

        completer = threading.Thread(target=complete_in_reverse, daemon=True)
        completer.start()
        replies = _serve_frames(
            backend, _query(11, [(1, 2)]), _query(12, [(3, 4)]),
            _query(13, [(5, 6)]), encode_frame({"type": "close"}))
        completer.join(timeout=10.0)
        assert [(r["type"], r.get("id")) for r in replies] == [
            ("answers", 11), ("answers", 12), ("answers", 13), ("bye", None)]
        assert [r["values"] for r in replies[:3]] == [[3.0], [7.0], [11.0]]
        # all three were submitted before the first was waited for
        assert backend.events[:3] == [("submit", 1), ("submit", 2),
                                      ("submit", 3)]

    @watchdog(30.0)
    def test_bad_request_and_failed_submit_are_errors_in_their_own_slot(
            self):
        backend = FakePipelinedBackend()
        backend.fail = {2}            # the second batch that reaches submit
        replies = _serve_frames(
            backend,
            _query(1, [(1, 1)]),
            _query(2, [(2, 2)], kind="teleport"),     # never reaches submit
            _query(3, [(3, 3)]),                      # its submit raises
            _query(4, [(4, 4)]),
            encode_frame({"type": "close"}))
        assert [(r["type"], r.get("id"), r.get("code")) for r in replies] == [
            ("answers", 1, None), ("error", 2, "bad-request"),
            ("error", 3, "backend"), ("answers", 4, None),
            ("bye", None, None)]
        assert "ShardError: sharded service is closed" in replies[2]["message"]
        # the session survived both: the bye still counts two served batches
        assert replies[-1]["served"] == {"queries": 2, "batches": 2}

    @watchdog(30.0)
    def test_stats_is_answered_after_the_answers_pending_before_it(self):
        backend = FakePipelinedBackend(delay=0.01)
        replies = _serve_frames(
            backend, _query(1, [(1, 1)]), _query(2, [(2, 2)]),
            encode_frame({"type": "stats"}), _query(3, [(3, 3)]),
            encode_frame({"type": "close"}))
        assert [(r["type"], r.get("id")) for r in replies] == [
            ("answers", 1), ("answers", 2), ("stats_reply", None),
            ("answers", 3), ("bye", None)]
        order = [event for event in backend.events if event[0] != "submit"]
        assert order[:4] == [("wait", 1), ("wait", 2), ("stats", 3),
                             ("wait", 3)]

    @watchdog(30.0)
    def test_eof_without_close_still_flushes_every_queued_reply(
            self, local_backend, net_graph):
        nodes = net_graph.nodes()
        batches = [[(nodes[i], nodes[i + 1])] for i in range(5)]
        for backend in (FakePipelinedBackend(delay=0.01), local_backend):
            if backend is local_backend:
                frames = [_query(i, b) for i, b in enumerate(batches)]
                want = [local_backend.distance_batch(b) for b in batches]
            else:
                frames = [_query(i, [(i, i)]) for i in range(5)]
                want = [[float(2 * i)] for i in range(5)]
            replies = _serve_frames(backend, *frames)       # no close frame
            assert [r["type"] for r in replies] == ["answers"] * 5
            assert [r["id"] for r in replies] == list(range(5))
            assert [r["values"] for r in replies] == want

    @watchdog(30.0)
    def test_unframeable_reply_is_an_error_in_its_slot(self, monkeypatch):
        # The writer is not the thread that reads, so a reply it cannot
        # frame must not end the session silently (the client would wait
        # out its reply timeout): it becomes that request's error.
        import repro.serving.wire as wire_mod
        frames = [_query(1, [(i, i) for i in range(12)]),
                  _query(2, [(i, i) for i in range(12)] * 40),
                  _query(3, [(5, 5)]),
                  encode_frame({"type": "close"})]
        # from here on only the 480-answer reply (~2 kB) is too large
        monkeypatch.setattr(wire_mod, "MAX_FRAME_BYTES", 1000)
        replies = _serve_frames(FakePipelinedBackend(), *frames)
        assert [(r["type"], r.get("id"), r.get("code")) for r in replies] \
            == [("answers", 1, None), ("error", 2, "backend"),
                ("answers", 3, None), ("bye", None, None)]
        assert "frame bound" in replies[1]["message"]

    @watchdog(120.0)
    def test_four_pipelined_large_route_batches_complete(
            self, sharded_service, local_backend, net_graph):
        # 10 000 pairs per worker per batch: every task frame and every
        # result frame is far larger than a pipe buffer, so a submitter
        # that waited for pipe room under the service lock — or a
        # collector that waited behind a task write — would deadlock here.
        pairs = zipf_workload(net_graph.nodes(), 20000, seed=17).pairs
        want = local_backend.route_batch(pairs)
        with RoutingServer(sharded_service, "127.0.0.1:0") as srv, \
                ClientSession.connect(srv.address, timeout=5.0,
                                      reply_timeout=100.0) as client:
            tickets = [client.submit("route", pairs) for _ in range(4)]
            for ticket in tickets:
                assert client.gather(ticket) == want
        assert not [t.name for t in threading.enumerate()
                    if "QueueFeederThread" in t.name]

    @watchdog(120.0)
    def test_concurrent_submitters_keep_task_frames_whole_and_ordered(
            self, sharded_service, local_backend, net_graph):
        # More submitting threads than cores, frames larger than a pipe
        # buffer (so most writes are partial and finished later, by the
        # submitter or by the collector) and a tiny switch interval: a
        # torn or reordered frame would crash a worker or misplace answers.
        size = 16000
        streams = [zipf_workload(net_graph.nodes(), 3 * size,
                                 seed=40 + i).pairs for i in range(4)]
        want = [[local_backend.distance_batch(s[lo:lo + size])
                 for lo in range(0, len(s), size)] for s in streams]
        got = [None] * len(streams)

        def drive(index):
            stream = streams[index]
            tickets = [sharded_service.submit_batch("distance",
                                                    stream[lo:lo + size])
                       for lo in range(0, len(stream), size)]
            got[index] = [sharded_service.wait_batch(t) for t in tickets]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                       for i in range(len(streams))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=100.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @watchdog(60.0)
    def test_worker_killed_between_submit_and_reply_is_a_typed_error(
            self, net_config, net_graph):
        config = dataclasses.replace(net_config, workers=2)
        pairs = zipf_workload(net_graph.nodes(), 20000, seed=3).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs[:4])       # spawn cost paid
            with RoutingServer(service, "127.0.0.1:0") as srv, \
                    ClientSession.connect(srv.address, timeout=5.0,
                                          reply_timeout=30.0) as client:
                ticket = client.submit("route", pairs)
                os.kill(service._workers[0].process.pid, signal.SIGKILL)
                started = time.monotonic()
                with pytest.raises(RemoteError, match="ShardError"):
                    client.gather(ticket)
                assert time.monotonic() - started < 20.0
                # fail-stop: later batches get the same typed error, and a
                # write to the dead worker's pipe never escapes as EPIPE
                with pytest.raises(RemoteError, match="ShardError"):
                    client.distance_batch(pairs[:4])

    @watchdog(30.0)
    def test_fail_stopped_service_answers_stats_and_close_at_once(
            self, net_config, net_graph):
        """A latched sharded service has no stats to give: ``stats`` is a
        typed ``error`` in its own slot, and ``close`` still gets its
        ``bye`` (with ``null`` stats) — neither waits out the client's
        reply timeout."""
        config = dataclasses.replace(net_config, workers=2)
        pairs = zipf_workload(net_graph.nodes(), 64, seed=3).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs[:4])
            with RoutingServer(service, "127.0.0.1:0") as srv:
                client = ClientSession.connect(srv.address, timeout=30.0,
                                               reply_timeout=30.0)
                try:
                    os.kill(service._workers[1].process.pid, signal.SIGKILL)
                    deadline = time.monotonic() + 5.0
                    while service.is_running and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert not service.is_running
                    started = time.monotonic()
                    with pytest.raises(RemoteError, match="ShardError") as err:
                        client.query_stats()
                    assert err.value.code == "backend"
                    assert time.monotonic() - started < 1.0
                    # the session goes on: a later query gets the typed error
                    with pytest.raises(RemoteError, match="ShardError"):
                        client.distance_batch(pairs)
                    started = time.monotonic()
                    client.close()
                    assert time.monotonic() - started < 1.0
                finally:
                    client.close()
                # the bye carried no stats: the closed session keeps none
                assert client.query_stats().queries == 0

    @watchdog(60.0)
    def test_submit_to_a_dead_worker_enters_the_death_path(
            self, net_config, net_graph, monkeypatch):
        config = dataclasses.replace(net_config, workers=2)
        pairs = zipf_workload(net_graph.nodes(), 64, seed=3).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs)
            # The collector's scan would latch the idle death first; with
            # it silenced the submit's write is the only thing that can.
            monkeypatch.setattr(service, "_scan_liveness", lambda: None)
            victim = service._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            # the write finds no reader: no BrokenPipeError escapes, the
            # latch is set by the submit itself, the wait raises it
            ticket = service.submit_batch("distance", pairs)
            assert isinstance(service._failure, ShardError)
            with pytest.raises(ShardError, match="worker 1 died"):
                service.wait_batch(ticket)

    @watchdog(60.0)
    def test_idle_death_latches_without_a_submit(self, net_config,
                                                 net_graph):
        """At ``respawn_limit=0`` nobody has to ask: the collector's scan
        finds an idle worker's death and latches it."""
        config = dataclasses.replace(net_config, workers=2)
        pairs = zipf_workload(net_graph.nodes(), 64, seed=3).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs)
            assert service.is_running
            os.kill(service._workers[1].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 1.0
            while service.is_running and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not service.is_running
            assert str(service._failure).startswith("worker 1 died (")

    @watchdog(60.0)
    def test_hung_worker_fails_typed_at_the_default_budget(
            self, net_config, net_graph, monkeypatch):
        """A worker that is alive but answers nothing is reported by the
        heartbeat and latched at the default ``respawn_limit=0``: the
        waiting batch fails with the slot named, within ``HANG_TIMEOUT``
        and not at ``reply_timeout`` (300 s)."""
        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 1.0)
        config = dataclasses.replace(net_config, workers=2,
                                     heartbeat_interval=0.05)
        assert config.reply_timeout == 300.0
        pairs = zipf_workload(net_graph.nodes(), 64, seed=3).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs)
            victim = service._workers[1].process
            # Stopped, the victim takes its share into its pipe and never
            # answers it, nor any ping.
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                ticket = service.submit_batch("distance", pairs)
                started = time.monotonic()
                with pytest.raises(ShardError, match=r"^worker 1 hung \("):
                    service.wait_batch(ticket)
                assert time.monotonic() - started < 3.0
                assert not victim.is_alive()
            finally:
                if victim.is_alive():
                    os.kill(victim.pid, signal.SIGKILL)

    @watchdog(60.0)
    def test_slow_shard_is_not_a_hang_at_the_default_budget(
            self, net_config, net_graph, local_backend, monkeypatch):
        """A worker answers pings ahead of its queued queries, so a shard
        that computes for longer than ``HANG_TIMEOUT`` is answered, not
        reported hung: at ``respawn_limit=0`` a false hang would fail-stop
        the whole service."""
        monkeypatch.setattr(fleet_module, "HANG_TIMEOUT", 1.0)
        answer_batch = worker_module.answer_batch

        def slow_answer_batch(service, kind, pairs):
            # Busy, not asleep: a long shard holds the GIL between the
            # interpreter's switch points, and so does this loop.
            until = time.monotonic() + 2.5
            while time.monotonic() < until:
                pass
            return answer_batch(service, kind, pairs)

        # Forked workers inherit the patched module.
        monkeypatch.setattr(worker_module, "answer_batch", slow_answer_batch)
        pairs = zipf_workload(net_graph.nodes(), 64, seed=3).pairs
        with ShardedRoutingService(net_config.artifact_path, num_workers=2,
                                   heartbeat_interval=0.05,
                                   start_method="fork") as service:
            started = time.monotonic()
            assert service.route_batch(pairs) == \
                local_backend.route_batch(pairs)
            assert time.monotonic() - started > 2.5
            assert service.is_running
            fleet = service.query_stats().extra["fleet"]
            assert (fleet["respawn_limit"], fleet["worker_deaths"]) == (0, 0)


    @watchdog(30.0)
    def test_busy_sibling_does_not_postpone_a_death(self, net_config,
                                                    net_graph):
        """The collector used to look for dead workers only after *every*
        worker had been silent for 0.1 s, so while a sibling kept
        answering, a killed worker's batch waited out ``reply_timeout``
        ("no worker reply within ...") instead of failing at once."""
        config = dataclasses.replace(net_config, workers=2,
                                     reply_timeout=10.0)
        pairs = zipf_workload(net_graph.nodes(), 400, seed=3).pairs
        stop = threading.Event()

        def keep_sibling_busy(service):
            # The rotation runs on across batches; rewound to an even count
            # first, a one-pair batch is worker 0's (the two-pair batch
            # below moves it by two), so worker 0 answers all of them.
            while not stop.is_set():
                with service.lock:
                    service._scattered -= service._scattered % 2
                try:
                    service.distance_batch(pairs[:1])
                except ShardError:
                    return

        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs)       # spawn cost paid
            victim = service._workers[1].process
            busy = threading.Thread(target=keep_sibling_busy,
                                    args=(service,), daemon=True)
            busy.start()
            try:
                # Stopped, the victim takes its share (position 1) into its
                # pipe (the write succeeds) but never reads it; then it dies.
                os.kill(victim.pid, signal.SIGSTOP)
                ticket = service.submit_batch("distance", pairs[:2])
                os.kill(victim.pid, signal.SIGKILL)
                started = time.monotonic()
                with pytest.raises(ShardError, match="worker 1 died"):
                    service.wait_batch(ticket)
                assert time.monotonic() - started < 2.0
            finally:
                stop.set()
                busy.join(timeout=10.0)
            assert not busy.is_alive()


class _SlowToEncode(list):
    """Distance answers whose encoding takes a while, like a large route
    batch's — the window the drain used to lose the frame in."""

    def __iter__(self):
        time.sleep(0.3)
        return super().__iter__()


class _ClosingBackend:
    """A local-style backend whose answer arrives while the server is
    already draining: the batch itself asks for ``close(drain=True)``."""

    def __init__(self):
        self.server = None
        self.closer = None

    def distance_batch(self, pairs):
        self.closer = threading.Thread(target=self.server.close,
                                       kwargs={"drain": True}, daemon=True)
        self.closer.start()
        time.sleep(0.1)             # close() is now polling ``busy``
        return _SlowToEncode(float(s + t) for s, t in pairs)

    route_batch = distance_batch

    def query_stats(self):
        return ServingStats()


@watchdog(30.0)
def test_drain_keeps_the_answer_computed_while_closing():
    """``busy`` used to clear before the answers frame was encoded and
    written, so ``close(drain=True)`` could shut the socket in between and
    the client lost a frame the server had promised to send."""
    backend = _ClosingBackend()
    backend.server = RoutingServer(backend, "127.0.0.1:0",
                                   drain_timeout=10.0).start()
    client = ClientSession.connect(backend.server.address, timeout=5.0,
                                   reply_timeout=10.0)
    try:
        assert client.distance_batch([(1, 2), (3, 4)]) == [3.0, 7.0]
    finally:
        client.close()
        backend.closer.join(timeout=15.0)
    assert not backend.closer.is_alive()


# ======================================================================
# an answer is encoded once, where it is cached; the frame is spliced
# ======================================================================
_NODES = st.recursive(
    st.one_of(st.integers(), st.text(), st.floats(), st.booleans(),
              st.none(), st.sampled_from(['a"b', "naïve ☃", "\\"])),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
_NUMBERS = st.one_of(st.floats(), st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from([float("inf"), float("-inf"),
                                      float("nan")]))
_TRACES = st.builds(
    RouteTrace, source=_NODES, target=_NODES,
    path=st.lists(_NODES, max_size=6), delivered=st.booleans(),
    weight=_NUMBERS, estimate=st.one_of(st.none(), _NUMBERS))


def _answers_frame(request_id, kind, values, queries, batches):
    """The reply frame the object-tree codec builds: the byte oracle."""
    return encode_frame({"type": "answers", "id": request_id, "kind": kind,
                         "values": encode_answers(kind, values),
                         "served": {"queries": queries, "batches": batches}})


class _RawClient:
    """A v1 client that keeps reply frames as the bytes they arrived in."""

    def __init__(self, address):
        host, port = parse_endpoint(address)
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.settimeout(30.0)
        self.rfile = self.sock.makefile("rb")
        self.send(encode_frame(hello_message("raw")))
        assert read_frame(io.BytesIO(self.read()))["type"] == "welcome"

    def send(self, *frames):
        self.sock.sendall(b"".join(frames))

    def read(self):
        header = self.rfile.read(6)
        return header + self.rfile.read(struct.unpack(">2sI", header)[1])

    def exchange(self, *frames):
        self.send(*frames)
        return [self.read() for _ in frames]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rfile.close()
        self.sock.close()


class _StrictPipelinedBackend:
    """``submit_batch(kind, pairs)`` and nothing else, answering in
    objects through a real service: what a third-party backend looks like."""

    pipeline_depth = 4

    def __init__(self, service):
        self.service = service

    def submit_batch(self, kind, pairs):
        return kind, list(pairs)

    def wait_batch(self, ticket):
        kind, pairs = ticket
        return (self.service.route_batch(pairs) if kind == "route"
                else self.service.distance_batch(pairs))

    def query_stats(self):
        return ServingStats()


class TestEncodeOnce:
    @watchdog(120.0)
    @settings(max_examples=150, deadline=None)
    @given(traces=st.lists(_TRACES, max_size=5),
           distances=st.lists(st.one_of(_NUMBERS, st.booleans()), max_size=8),
           request_id=st.one_of(st.none(), st.integers(), st.text()),
           served=st.fixed_dictionaries({"queries": st.integers(0),
                                         "batches": st.integers(0)}))
    def test_spliced_frame_equals_the_object_tree_codec(
            self, traces, distances, request_id, served):
        for kind, values in (("route", traces), ("distance", distances)):
            envelope = {"type": "answers", "id": request_id, "kind": kind,
                        "served": served}
            want = encode_frame({**envelope,
                                 "values": encode_answers(kind, values)})
            for _ in range(2):      # the second pass is all memo hits
                texts = encode_answer_texts(kind, values)
                assert splice_frame(envelope, texts) == want

    @watchdog(60.0)
    def test_raw_frames_identical_sharded_local_and_oracle_cold_and_warm(
            self, net_config, net_graph):
        pairs = zipf_workload(net_graph.nodes(), 90, seed=23).pairs
        batches = [pairs[:40], pairs[40:41], [], pairs[41:]]
        requests = [(index * 3, kind, batch)
                    for index, batch in enumerate(batches)
                    for kind in ("route", "distance")]
        requests[2] = ("two", ) + requests[2][1:]
        frames = [_query(request_id, batch, kind=kind)
                  for request_id, kind, batch in requests]
        with open_service(net_config) as oracle:
            answers = [oracle.route_batch(batch) if kind == "route"
                       else oracle.distance_batch(batch)
                       for _, kind, batch in requests]
        want, queries = [], 0
        for number, ((request_id, kind, batch), values) in enumerate(
                zip(requests * 2, answers * 2), start=1):
            queries += len(batch)
            want.append(_answers_frame(request_id, kind, values, queries,
                                       number))
        sharded_config = dataclasses.replace(net_config, workers=2)
        for config in (sharded_config, net_config):
            with open_service(config, graph=net_graph) as backend, \
                    RoutingServer(backend, "127.0.0.1:0") as srv, \
                    _RawClient(srv.address) as raw:
                cold = raw.exchange(*frames)
                warm = raw.exchange(*frames)
            assert cold + warm == want

    @watchdog(60.0)
    def test_backend_that_answers_in_objects_is_encoded_by_the_session(
            self, local_backend, net_graph):
        # TestServerPipelining's fakes keep submit_batch(kind, pairs); so
        # does this one, with route answers: same frames, encoded here.
        pairs = zipf_workload(net_graph.nodes(), 30, seed=5).pairs
        backend = _StrictPipelinedBackend(local_backend)
        rfile = io.BytesIO(encode_frame(hello_message())
                           + _query(1, pairs, kind="route")
                           + _query(2, pairs, kind="distance"))
        wfile = io.BytesIO()
        ServerSession(backend, rfile, wfile).serve()
        assert wfile.getvalue().endswith(
            _answers_frame(1, "route", local_backend.route_batch(pairs),
                           30, 1)
            + _answers_frame(2, "distance",
                             local_backend.distance_batch(pairs), 60, 2))

    @watchdog(30.0)
    def test_backend_handing_over_non_texts_is_an_error_in_its_slot(self):
        # submit_texts promises canonical texts; a backend that breaks the
        # promise must cost its own request, not the session (the writer is
        # not the thread that reads: a dead writer is a client-side hang).
        class Liar(FakePipelinedBackend):
            def submit_texts(self, kind, pairs):
                return self.submit_batch(kind, pairs)   # resolves to floats

        # The session asks for texts only for routes (where a memo can
        # hit); the distance batch takes submit_batch and is answered.
        replies = _serve_frames(Liar(), _query(1, [(1, 2)], kind="route"),
                                _query(2, [(1, 2)]),
                                encode_frame({"type": "close"}))
        assert [(r["type"], r.get("id"), r.get("code")) for r in replies] \
            == [("error", 1, "backend"), ("answers", 2, None),
                ("bye", None, None)]
        assert "canonical texts" in replies[0]["message"]

    @watchdog(60.0)
    def test_killed_worker_text_tickets_are_rescattered_as_texts(
            self, net_config, net_graph, local_backend):
        pairs = zipf_workload(net_graph.nodes(), 300, seed=31).pairs
        service = ShardedRoutingService(
            net_config.artifact_path, num_workers=3, reply_timeout=30.0,
            heartbeat_interval=0.05, respawn_limit=5)
        with service, RoutingServer(service, "127.0.0.1:0") as srv, \
                _RawClient(srv.address) as raw:
            victim = service._workers[0].process
            # Stopped, the victim takes its shard into the pipe but never
            # answers it; killed, its shard must reach siblings *as a
            # text-form request* or the splice would meet RouteTraces.
            os.kill(victim.pid, signal.SIGSTOP)
            raw.send(_query(9, pairs, kind="route"))
            deadline = time.monotonic() + 20.0
            while not service._tickets and time.monotonic() < deadline:
                time.sleep(0.005)
            assert [t.text for t in service._tickets.values()] == [True]
            os.kill(victim.pid, signal.SIGKILL)
            reply = raw.read()
            assert service._fleet.worker_deaths == 1
        assert reply == _answers_frame(9, "route",
                                       local_backend.route_batch(pairs),
                                       len(pairs), 1)

    @watchdog(90.0)
    def test_object_caller_and_session_share_one_front_end(
            self, sharded_service, local_backend, net_graph):
        pairs = zipf_workload(net_graph.nodes(), 400, seed=37).pairs
        want = local_backend.route_batch(pairs)
        failures = []

        def in_process():
            for _ in range(6):
                got = sharded_service.route_batch(pairs)
                if got != want or not all(type(t) is RouteTrace for t in got):
                    failures.append("in-process caller got wrong objects")

        caller = threading.Thread(target=in_process, daemon=True)
        with RoutingServer(sharded_service, "127.0.0.1:0") as srv, \
                ClientSession.connect(srv.address, timeout=5.0,
                                      reply_timeout=60.0) as client:
            caller.start()
            tickets = [client.submit("route", pairs) for _ in range(6)]
            for ticket in tickets:
                if client.gather(ticket) != want:
                    failures.append("session got wrong answers")
            caller.join(timeout=60.0)
        assert not caller.is_alive()
        assert not failures, failures

    @watchdog(30.0)
    def test_text_memo_is_invisible_and_a_hit_encodes_nothing(self):
        plain = RouteTrace((0, 1), "t", [(0, 1), 5, "t"], True, 7.5, 8.0)
        memoed = dataclasses.replace(plain)
        metrics = make_registry(True)
        first = encode_answer_texts("route", [memoed, memoed], metrics)
        assert memoed.wire_text == first[0] == first[1]
        assert metrics.export()["route_answers_encoded"]["value"] == 1
        assert encode_answer_texts("route", [memoed], metrics) == first[:1]
        assert metrics.export()["route_answers_encoded"]["value"] == 1
        assert plain.wire_text is None
        assert memoed == plain and repr(memoed) == repr(plain)
        assert memoed.as_dict() == plain.as_dict()
        assert [f.name for f in dataclasses.fields(memoed)] == [
            "source", "target", "path", "delivered", "weight", "estimate"]
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            blob = pickle.dumps(memoed, protocol)
            assert blob == pickle.dumps(plain, protocol)
            assert pickle.loads(blob).wire_text is None
        assert copy.copy(memoed).wire_text is None
        # the object-tree codec neither reads nor fills the memo
        memoed.wire_text = "stale"
        assert encode_answers("route", [memoed]) == \
            encode_answers("route", [plain])
        assert plain.wire_text is None

    @watchdog(60.0)
    def test_concurrent_writers_may_race_to_fill_the_same_memo(self):
        # Sessions over a local backend encode outside the shared lock, so
        # two writers can meet on one cached trace: both must get the text.
        traces = [RouteTrace(i, (i, "t"), list(range(i % 7)), True, 1.5 * i,
                             None) for i in range(300)]
        want = [encode_message(record).decode("ascii")
                for record in encode_answers("route", traces)]
        got = [None] * 6

        def encode(slot):
            got[slot] = encode_answer_texts("route", traces)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encode, args=(slot,),
                                        daemon=True) for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 6

    @watchdog(30.0)
    def test_text_memo_dies_with_its_cache_entry(self, net_config, net_graph):
        nodes = net_graph.nodes()
        config = dataclasses.replace(net_config, cache=CacheConfig(capacity=1))
        with open_service(config) as service:
            trace = service.route_batch([(nodes[0], nodes[1])])[0]
            encode_answer_texts("route", [trace])
            assert service.route_batch([(nodes[0], nodes[1])])[0].wire_text
            fate = weakref.ref(trace)
            del trace
            service.route_batch([(nodes[2], nodes[3])])     # evicts it
            gc.collect()
            assert fate() is None
            assert service.route_batch(
                [(nodes[0], nodes[1])])[0].wire_text is None

    @watchdog(60.0)
    def test_workers_encode_each_cached_route_once(self, net_config,
                                                   net_graph):
        pairs = zipf_workload(net_graph.nodes(), 500, seed=41).pairs
        # Round-robin: position i is worker i % 2's, so a pair has one
        # cache entry, and one text, per worker it lands on.
        homes = len({(index % 2, pair) for index, pair in enumerate(pairs)})
        config = dataclasses.replace(net_config, workers=2, telemetry=True)
        with open_service(config, graph=net_graph) as service:
            def encoded():
                telemetry = service.query_stats().extra["telemetry"]
                return telemetry.get("route_answers_encoded",
                                     {"value": 0})["value"]

            service.route_batch(pairs)          # object form: no encoding
            assert encoded() == 0
            texts = service.wait_batch(service.submit_texts("route", pairs))
            assert all(type(text) is str for text in texts)
            assert encoded() == homes > len(set(pairs))
            assert service.wait_batch(
                service.submit_texts("route", pairs)) == texts
            service.wait_batch(service.submit_texts("distance", pairs))
            assert encoded() == homes

    @watchdog(60.0)
    @pytest.mark.parametrize("backend_name", ["local_backend",
                                              "sharded_service"])
    def test_oversize_spliced_reply_is_an_error_carrying_its_id(
            self, backend_name, request, net_graph, monkeypatch):
        import repro.serving.wire as wire_mod
        backend = request.getfixturevalue(backend_name)
        pairs = zipf_workload(net_graph.nodes(), 600, seed=43).pairs
        frames = [_query("small", pairs[:3], kind="route"),
                  _query("large", pairs, kind="route"),
                  _query(3, pairs[:3], kind="route"),
                  encode_frame({"type": "close"})]
        # from here on only the 600-route reply (~50 kB) is too large
        monkeypatch.setattr(wire_mod, "MAX_FRAME_BYTES", 20000)
        replies = _serve_frames(backend, *frames)
        assert [(r["type"], r.get("id"), r.get("code")) for r in replies] \
            == [("answers", "small", None), ("error", "large", "backend"),
                ("answers", 3, None), ("bye", None, None)]
        assert "frame bound" in replies[1]["message"]
