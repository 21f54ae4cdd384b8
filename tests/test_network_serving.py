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
  with bounded in-flight windows and admission control.
"""

import dataclasses
import gc
import io
import struct
import threading
import time
import warnings

import pytest

from repro import graphs
from repro.serving import (
    BuildConfig,
    BackpressureError,
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
    SessionClosedError,
    ShardedRoutingService,
    WireError,
    open_service,
    parse_endpoint,
    read_frame,
    write_frame,
    zipf_workload,
)
from repro.serving.wire import (
    check_hello,
    decode_answers,
    encode_answers,
    encode_frame,
    encode_message,
    hello_message,
    pack_node,
    pack_pairs,
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
        welcome = encode_frame({"type": "welcome",
                                "protocol": PROTOCOL_VERSION,
                                "server": "t", "config": None})
        client = ClientSession(io.BytesIO(welcome), io.BytesIO())
        nodes = net_graph.nodes()
        with pytest.raises(SessionClosedError, match="closed the connection"):
            client.distance_batch([(nodes[0], nodes[1])])
        client.close()

    def test_truncated_reply_mid_frame_raises_frame_error(self, net_graph):
        welcome = encode_frame({"type": "welcome",
                                "protocol": PROTOCOL_VERSION,
                                "server": "t", "config": None})
        answers = encode_frame({"type": "answers", "id": 1,
                                "kind": "distance", "values": [1.0]})
        client = ClientSession(io.BytesIO(welcome + answers[:-2]),
                               io.BytesIO())
        nodes = net_graph.nodes()
        with pytest.raises(FrameError, match="truncated"):
            client.distance_batch([(nodes[0], nodes[1])])
        client.close()

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

    def test_admission_reject_raises_backpressure(self, net_config,
                                                  net_graph):
        config = dataclasses.replace(net_config, workers=2,
                                     pipeline_depth=1, admission="reject")
        pairs = zipf_workload(net_graph.nodes(), 400, seed=2).pairs
        with open_service(config, graph=net_graph) as service:
            service.distance_batch(pairs[:4])   # warm: spawn cost paid
            first = service.submit_batch("distance", pairs)
            # depth 1 is occupied until the collector drains `first`;
            # a second submission must bounce, not queue — and a bounced
            # submission was not served, so no counter may move.
            before = dataclasses.replace(service.stats)
            with pytest.raises(BackpressureError, match="pipeline full"):
                service.submit_batch("distance", pairs[:4])
            for name in ("queries", "route_queries", "distance_queries",
                         "batches", "batched_queries"):
                assert getattr(service.stats, name) == getattr(before, name)
            assert len(service.wait_batch(first)) == len(pairs)
            assert service.stats.queries == len(pairs) + 4
            merged = service.merged_stats()
            assert merged.queries == service.stats.queries
            assert merged.extra["scatter_batches"] == 2

    def test_admission_block_completes_beyond_depth(self, net_config,
                                                    net_graph):
        config = dataclasses.replace(net_config, workers=2,
                                     pipeline_depth=2, max_inflight=1)
        workload = uniform_workload(net_graph.nodes(), 120, seed=4)
        batches = _batches(workload, 8)
        with open_service(config, graph=net_graph) as service:
            tickets = [service.submit_batch("distance", batch)
                       for batch in batches]
            results = [service.wait_batch(ticket) for ticket in tickets]
        flat = [value for batch in results for value in batch]
        assert len(flat) == len(workload.pairs)

    def test_merged_stats_report_pipeline_shape(self, sharded_service):
        stats = sharded_service.merged_stats()
        pipeline = stats.extra["pipeline"]
        assert pipeline["depth"] == sharded_service.pipeline_depth
        assert pipeline["max_inflight"] == sharded_service.max_inflight
        assert pipeline["admission"] in ("block", "reject")

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
