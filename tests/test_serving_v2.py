"""Serving API v2: QueryBackend protocol, open_service, name tables."""

import dataclasses
import gc
import socket
import struct
import warnings

import pytest

from repro import graphs
from repro.serving import (
    BuildConfig,
    CacheConfig,
    ClientSession,
    GRAPH_FAMILIES,
    QUERY_KERNELS,
    QueryBackend,
    RoutingServer,
    RoutingService,
    ServingConfig,
    ShardedRoutingService,
    WORKLOADS,
    WORKLOAD_NAMES,
    WorkloadConfig,
    answer_batch,
    make_workload,
    open_service,
    parse_endpoint,
    parse_graph_spec,
    resolve_query_kernel,
)
from repro.serving import cli
from repro.serving.wire import encode_answers, encode_frame


@pytest.fixture(scope="module")
def v2_graph():
    return graphs.erdos_renyi_graph(30, 0.15, graphs.uniform_weights(1, 50),
                                    seed=17)


@pytest.fixture(scope="module")
def artifact_path(v2_graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("v2") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path, build=BuildConfig(seed=4))
    open_service(config, graph=v2_graph)
    return path


@pytest.fixture(scope="module")
def v2_config(artifact_path):
    return ServingConfig(artifact_path=artifact_path,
                         build=BuildConfig(seed=4))


class TestQueryBackendProtocol:
    def test_local_backend_satisfies_protocol(self, v2_config):
        backend = open_service(v2_config)
        assert isinstance(backend, QueryBackend)
        assert isinstance(backend, RoutingService)

    def test_sharded_backend_satisfies_protocol(self, v2_config, v2_graph):
        import dataclasses

        config = dataclasses.replace(v2_config, workers=2)
        backend = open_service(config, graph=v2_graph)
        try:
            assert isinstance(backend, QueryBackend)
            assert isinstance(backend, ShardedRoutingService)
        finally:
            backend.close()

    def test_local_context_manager_and_close_idempotent(self, v2_config):
        with open_service(v2_config) as backend:
            nodes = backend.graph.nodes()
            assert backend.route_batch([(nodes[0], nodes[1])])
        backend.close()
        backend.close()

    def test_query_stats_is_the_uniform_accessor(self, v2_config, v2_graph):
        import dataclasses

        pairs = [(v2_graph.nodes()[0], v2_graph.nodes()[5])] * 4
        local = open_service(v2_config)
        local.distance_batch(pairs)
        assert local.query_stats().distance_queries == 4
        with open_service(dataclasses.replace(v2_config, workers=2),
                          graph=v2_graph) as sharded:
            sharded.distance_batch(pairs)
            assert sharded.query_stats().distance_queries == 4


class TestOpenServiceIdentity:
    """Acceptance: every ``open_service`` backend answers identically to a
    directly constructed service."""

    @pytest.mark.parametrize("shape", WORKLOAD_NAMES)
    def test_local_backend_matches_v1_service(self, v2_graph, v2_config,
                                              shape):
        workload = make_workload(shape, v2_graph, 150, seed=9)
        v1 = RoutingService.build(v2_graph, k=3, seed=4)     # direct path
        v2 = open_service(v2_config)
        v1_routes = v1.route_batch(workload.pairs)
        v2_routes = v2.route_batch(workload.pairs)
        assert [t.path for t in v2_routes] == [t.path for t in v1_routes]
        assert [t.weight for t in v2_routes] == [t.weight for t in v1_routes]
        assert (v2.distance_batch(workload.pairs)
                == v1.distance_batch(workload.pairs))

    @pytest.mark.parametrize("shape", WORKLOAD_NAMES)
    def test_sharded_backend_matches_v1_sharded(self, v2_graph, v2_config,
                                                artifact_path, shape):
        import dataclasses

        workload = make_workload(shape, v2_graph, 120, seed=5)
        v1 = ShardedRoutingService(artifact_path, num_workers=2,
                                   graph=v2_graph)           # direct path
        with v1:
            v1_routes = v1.route_batch(workload.pairs)
            v1_dists = v1.distance_batch(workload.pairs)
        config = dataclasses.replace(v2_config, workers=2)
        with open_service(config, graph=v2_graph) as v2:
            v2_routes = v2.route_batch(workload.pairs)
            v2_dists = v2.distance_batch(workload.pairs)
        assert [t.path for t in v2_routes] == [t.path for t in v1_routes]
        assert v2_dists == v1_dists

    @pytest.fixture(scope="class")
    def bursty_batches(self, v2_graph):
        pairs = make_workload("bursty", v2_graph, 200, seed=3).pairs
        return [pairs[lo:lo + 50] for lo in range(0, len(pairs), 50)]

    @pytest.fixture(scope="class")
    def uncached(self, v2_config, bursty_batches):
        """What the per-pair path answers with no cache at all."""
        oracle = open_service(dataclasses.replace(
            v2_config, kernel="dict", cache=CacheConfig(capacity=0)))
        return {kind: [answer_batch(oracle, kind, batch)
                       for batch in bursty_batches]
                for kind in ("route", "distance")}

    @pytest.mark.parametrize("kind", ["route", "distance"])
    @pytest.mark.parametrize("backend", ["local", "sharded", "server"])
    @pytest.mark.parametrize("capacity", [0, 1, 4096])
    def test_answers_ignore_cache_size(self, v2_graph, v2_config,
                                       bursty_batches, uncached,
                                       capacity, backend, kind):
        """An answer is a pure function of (artifact, pair): the capacity
        decides which entries stay resident (at 1 a bursty stream evicts on
        nearly every miss), never what is answered — down to the bytes of
        an ``answers`` frame, since a ``wire_text`` rebuilt after an
        eviction is the same text."""
        shape = {} if backend == "local" else {"workers": 2}
        config = dataclasses.replace(
            v2_config, cache=CacheConfig(capacity=capacity), **shape)
        with open_service(config, graph=v2_graph) as service:
            if backend != "server":
                assert [answer_batch(service, kind, batch)
                        for batch in bursty_batches] == uncached[kind]
                return
            with RoutingServer(service, "127.0.0.1:0") as srv:
                sock = socket.create_connection(parse_endpoint(srv.address),
                                                timeout=5.0)
                sock.settimeout(30.0)
                replies = _Tee(sock.makefile("rb"))
                with ClientSession(replies, sock.makefile("wb"),
                                   sock=sock) as client:
                    answers = [client.gather(client.submit(kind, batch))
                               for batch in bursty_batches]
        assert answers == uncached[kind]
        # welcome, one answers frame per batch, bye: the middle is the same
        # bytes whatever the capacity, because it equals the one oracle.
        assert _frames(replies.seen)[1:-1] == [
            encode_frame({"type": "answers", "id": number, "kind": kind,
                          "values": encode_answers(kind, values),
                          "served": {"queries": 50 * number,
                                     "batches": number}})
            for number, values in enumerate(uncached[kind], start=1)]


class _Tee:
    """A read stream that keeps every byte it hands on."""

    def __init__(self, stream):
        self.stream = stream
        self.seen = bytearray()

    def read(self, size=-1):
        data = self.stream.read(size)
        self.seen += data
        return data

    def close(self):
        self.stream.close()


def _frames(raw):
    """Split a reply byte stream at its 6-byte ``>2sI`` frame headers."""
    frames, at = [], 0
    while at < len(raw):
        end = at + 6 + struct.unpack_from(">2sI", raw, at)[1]
        frames.append(bytes(raw[at:end]))
        at = end
    return frames


class TestResourceWarningOnImplicitTeardown:
    def test_del_of_running_service_warns(self, artifact_path):
        """Regression: __del__ of a still-running sharded service used to
        swallow everything silently; it must name the unclosed service."""
        service = ShardedRoutingService(artifact_path, num_workers=1).start()
        processes = [handle.process for handle in service._workers]
        with pytest.warns(ResourceWarning,
                          match="unclosed ShardedRoutingService"):
            del service
            gc.collect()
        for process in processes:
            process.join(timeout=10.0)
        assert not any(process.is_alive() for process in processes)

    def test_del_of_closed_service_is_silent(self, artifact_path):
        service = ShardedRoutingService(artifact_path, num_workers=1).start()
        service.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del service
            gc.collect()


class TestShardedConfigRejections:
    def test_unsaveable_sharded_build_rejected_before_building(
            self, v2_graph, tmp_path):
        """Regression: workers>1 + save_artifact=False with no artifact on
        disk used to pay the full build and then crash on the missing
        file."""
        import time

        config = ServingConfig(
            artifact_path=str(tmp_path / "never-written.artifact"),
            workers=2, save_artifact=False)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="save_artifact=False"):
            open_service(config, graph=v2_graph)
        assert time.perf_counter() - start < 1.0   # rejected pre-build


class TestNameTables:
    """Workloads, query kernels and graph families are plain dicts owned by
    the modules that fill them; a typo anywhere still fails loudly, listing
    what is available."""

    @pytest.mark.parametrize("noun, table, lookup", [
        ("workload", WORKLOADS,
         lambda graph: make_workload("zipff", graph, 5)),
        ("query kernel", QUERY_KERNELS,
         lambda graph: resolve_query_kernel("vectorised", None)),
        ("graph family", GRAPH_FAMILIES,
         lambda graph: parse_graph_spec("err:n=5")),
    ], ids=["workload", "kernel", "graph"])
    def test_unknown_name_lists_the_available_ones(self, v2_graph, noun,
                                                   table, lookup):
        assert type(table) is dict and table
        with pytest.raises(ValueError) as error:
            lookup(v2_graph)
        message = str(error.value)
        assert message.startswith(f"unknown {noun} ")
        assert message.endswith("available: " + ", ".join(sorted(table)))

    @pytest.mark.parametrize("flag, value, table", [
        ("--workload", "zipff", WORKLOADS),
        ("--kernel", "vectorised", QUERY_KERNELS),
    ], ids=["workload", "kernel"])
    def test_cli_typo_exits_with_the_choices(self, capsys, flag, value,
                                             table):
        with pytest.raises(SystemExit) as exited:
            cli.main(["--graph", "er:n=10,p=0.3", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{value}'" in err
        assert all(repr(name) in err for name in table)

    def test_cli_graph_typo_names_the_families(self):
        with pytest.raises(ValueError, match="unknown graph family 'err'.*"
                                             "available: ba, er, fattree"):
            cli.main(["--graph", "err:n=10", "--queries", "1"])
