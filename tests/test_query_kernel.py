"""A loaded artifact answers exactly as its built original.

Every hierarchy, built or loaded, selects levels through
``CompactRoutingHierarchy._select_levels`` over plain dicts; a loaded
artifact decodes its pivot and bunch tables into those dicts at load.
These tests pin that the loaded copy is indistinguishable from the build —
list for list, across workload shapes, batch sizes, graph families, build
modes, input orderings, duplicate, self and unknown-node pairs, and
deployment shapes (local and sharded) — that the
``kernel=`` names are still validated while selecting nothing, and that the
record tables read back what was encoded.  Both answer list for list as
the per-pair query reference in ``tests/helpers.py`` does.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import graphs
from repro.routing import build_compact_routing
from repro.routing.tables import OffsetRecordTable, RecordTableError
from repro.serving import (
    BuildConfig,
    CacheConfig,
    QUERY_KERNELS,
    ServingConfig,
    load_hierarchy,
    make_workload,
    open_service,
    parse_graph_spec,
    resolve_query_kernel,
)
from repro.serving.artifacts import _decode_rows, save_hierarchy

from helpers import (IDENTITY_STREAMS, disconnected_er, distance_reference,
                     route_reference)

HIERARCHY_MODES = ("budget", "spd", "truncated")
GRAPH_SPECS = ("er:n=60,p=0.08,seed=1", "road:rows=8,cols=8",
               "powerlaw:n=80,seed=1", "fattree:k=4")


@pytest.fixture(scope="module")
def kernel_graph():
    return graphs.erdos_renyi_graph(70, 0.1, graphs.uniform_weights(1, 20),
                                    seed=5)


@pytest.fixture(scope="module")
def artifact_path(kernel_graph, tmp_path_factory):
    """One format-2 artifact every test serves from."""
    path = str(tmp_path_factory.mktemp("kernel") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path,
                           build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0))
    open_service(config, graph=kernel_graph).close()
    return path


@pytest.fixture(scope="module")
def built(kernel_graph):
    """The in-memory build of the same config: the identity oracle."""
    config = ServingConfig(build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0))
    return open_service(config, graph=kernel_graph)


def open_with(artifact_path, kernel="auto", **overrides):
    config = ServingConfig(artifact_path=artifact_path,
                           build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0),
                           kernel=kernel)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return open_service(config)


class TestLoadedEqualsBuilt:
    @pytest.mark.parametrize("shape,params", IDENTITY_STREAMS)
    def test_distance_batch(self, artifact_path, built, kernel_graph, shape,
                            params):
        pairs = make_workload(shape, kernel_graph, 400, seed=9,
                              **params).pairs
        with open_with(artifact_path) as loaded:
            assert built.distance_batch(pairs) == loaded.distance_batch(pairs)

    @pytest.mark.parametrize("shape,params", IDENTITY_STREAMS)
    def test_route_batch(self, artifact_path, built, kernel_graph, shape,
                         params):
        pairs = make_workload(shape, kernel_graph, 150, seed=3,
                              **params).pairs
        with open_with(artifact_path) as loaded:
            assert built.route_batch(pairs) == loaded.route_batch(pairs)

    def test_single_queries(self, artifact_path, built, kernel_graph):
        pairs = make_workload("uniform", kernel_graph, 120, seed=8).pairs
        with open_with(artifact_path) as loaded:
            for source, target in pairs:
                assert (loaded.distance_estimate(source, target)
                        == built.distance_estimate(source, target))
                assert (loaded.route(source, target)
                        == built.route(source, target))

    def test_unsorted_duplicate_and_equal_pairs(self, artifact_path, built,
                                                kernel_graph):
        nodes = kernel_graph.nodes()
        # Deliberately adversarial ordering: descending sources, duplicated
        # pairs scattered, self-pairs interleaved.
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                 for i in range(200)]
        pairs = sorted(pairs, key=repr, reverse=True)
        pairs += pairs[::4] + [(nodes[0], nodes[0]), (nodes[5], nodes[5])]
        with open_with(artifact_path) as loaded:
            assert built.distance_batch(pairs) == loaded.distance_batch(pairs)
            assert built.route_batch(pairs) == loaded.route_batch(pairs)

    def test_self_pairs_are_zero_and_delivered(self, artifact_path,
                                               kernel_graph):
        nodes = kernel_graph.nodes()[:10]
        pairs = [(v, v) for v in nodes]
        with open_with(artifact_path) as service:
            assert service.distance_batch(pairs) == [0.0] * len(pairs)
            for trace in service.route_batch(pairs):
                assert trace.delivered and trace.path == [trace.source]

    def test_unknown_node_raises(self, artifact_path, kernel_graph):
        pairs = [(kernel_graph.nodes()[0], "no-such-node")]
        with open_with(artifact_path) as service:
            with pytest.raises(ValueError, match="no-such-node"):
                service.distance_batch(pairs)
            with pytest.raises(KeyError):
                service.hierarchy.distance_batch(pairs)

    def test_self_pair_of_an_unknown_node_raises(self, builds,
                                                 artifact_path, kernel_graph):
        """``(x, x)`` of a node not in G is a ``KeyError`` like every other
        pair naming it, never a delivered one-node route; the service still
        names it in its own ``ValueError``."""
        known = kernel_graph.nodes()[0]
        batch = [(known, known), ("ghost", "ghost")]
        for subject in builds:                  # built, then loaded
            for call, args in ((subject.distance, ("ghost", "ghost")),
                               (subject.route, ("ghost", "ghost")),
                               (subject.distance_batch, (batch,)),
                               (subject.route_batch, (batch,))):
                with pytest.raises(KeyError):
                    call(*args)
        with open_with(artifact_path) as service:
            for call, args in ((service.distance_estimate, ("ghost", "ghost")),
                               (service.route, ("ghost", "ghost")),
                               (service.distance_batch, (batch,)),
                               (service.route_batch, (batch,))):
                with pytest.raises(ValueError) as error:
                    call(*args)
                assert str(error.value) == "unknown node 'ghost'"

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", HIERARCHY_MODES)
    @pytest.mark.parametrize("spec", GRAPH_SPECS)
    def test_every_pair_selects_the_same_level(self, spec, mode, k,
                                               tmp_path):
        graph = parse_graph_spec(spec)
        hierarchy = build_compact_routing(graph, k=k, epsilon=0.25,
                                          mode=mode)
        path = str(tmp_path / "hierarchy.artifact")
        save_hierarchy(hierarchy, path)
        loaded, _ = load_hierarchy(path)
        nodes = graph.nodes()
        for source in nodes:
            for target in nodes:
                if source != target:
                    pair = [(source, target)]
                    assert (list(loaded._select_levels(pair))
                            == list(hierarchy._select_levels(pair)))
        assert loaded.export_state() == hierarchy.export_state()


class TestPerPairReference:
    """The batch loop against the per-pair selection and route it replaced,
    on a built and a loaded hierarchy, so the loop is not only compared
    with itself."""

    GRAPHS = {
        "er": lambda: graphs.erdos_renyi_graph(
            40, 0.12, graphs.uniform_weights(1, 20), seed=3),
        "disconnected": lambda: disconnected_er(40, seed=3),
    }

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", ["budget", "truncated"])
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_batches_match_the_reference(self, family, mode, k, tmp_path):
        graph = self.GRAPHS[family]()
        hierarchy = build_compact_routing(graph, k=k, epsilon=0.25,
                                          mode=mode, seed=2)
        assert hierarchy.mode == mode
        path = str(tmp_path / "hierarchy.artifact")
        save_hierarchy(hierarchy, path)
        loaded, _ = load_hierarchy(path)
        nodes = graph.nodes()
        pairs = [(s, t) for s in nodes for t in nodes]     # s == t included
        for subject in (hierarchy, loaded):
            subject.clear_runtime_caches()
            for lo in range(0, len(pairs), 97):
                batch = pairs[lo:lo + 97]
                batch += batch[::5]                        # duplicates
                got = subject.route_batch(batch)
                want = [route_reference(subject, s, t) for s, t in batch]
                assert [(r.path, r.weight, r.estimate, r.delivered)
                        for r in got] == [
                    (r.path, r.weight, r.estimate, r.delivered)
                    for r in want]
                assert subject.distance_batch(batch) == [
                    distance_reference(subject, s, t) for s, t in batch]
        skeleton_levels = [data.skeleton_level
                           for data in hierarchy.level_data]
        assert any(skeleton_levels) == (mode == "truncated")
        if family == "disconnected":
            half = len(nodes) // 2
            across = [(s, t) for s, t in pairs if (s < half) != (t < half)]
            for trace in loaded.route_batch(across):
                assert not trace.delivered
                assert trace.estimate == float("inf")
                assert trace.path == [trace.source]
            assert set(loaded.distance_batch(across)) == {float("inf")}


@pytest.fixture(scope="module", params=[2, 3], ids=["k2", "k3"])
def builds(request, kernel_graph, tmp_path_factory):
    """``(in-memory build, its loaded artifact)`` per ``k``."""
    k = request.param
    path = str(tmp_path_factory.mktemp(f"select-k{k}") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path, build=BuildConfig(k=k, seed=5),
                           cache=CacheConfig(capacity=0))
    with open_service(config, graph=kernel_graph) as service:
        return service.hierarchy, load_hierarchy(path)[0]


class TestBatchSizes:
    # A lone pair, sizes either side of a short batch, and one batch that
    # holds the whole stream.
    @pytest.mark.parametrize("batch", [1, 23, 24, 64, 1024])
    @pytest.mark.parametrize("shape", ["uniform", "zipf"])
    def test_batches_match_single_queries(self, builds, kernel_graph,
                                          shape, batch):
        hierarchy, loaded = builds
        nodes = kernel_graph.nodes()
        pairs = make_workload(shape, kernel_graph, 1024, seed=21).pairs
        pairs[5], pairs[700] = (nodes[3], nodes[3]), (nodes[9], nodes[9])
        for lo in range(0, len(pairs), batch):
            chunk = pairs[lo:lo + batch]
            expected = [hierarchy.distance(source, target)
                        for source, target in chunk]
            assert loaded.distance_batch(chunk) == expected
            assert loaded.route_batch(chunk) == hierarchy.route_batch(chunk)


class TestKernelNames:
    @pytest.mark.parametrize("kernel", sorted(QUERY_KERNELS))
    def test_every_name_is_accepted_and_selects_nothing(
            self, artifact_path, built, kernel_graph, kernel):
        pairs = make_workload("zipf", kernel_graph, 200, seed=1).pairs
        with open_with(artifact_path, kernel) as loaded:
            extra = loaded.query_stats().extra
            assert extra["kernel_requested"] == kernel
            assert extra["kernel_active"] == "dict"
            assert "kernel_stats" not in extra
            assert resolve_query_kernel(kernel, loaded.hierarchy) == "dict"
            assert loaded.hierarchy.query_kernel(kernel) is None
            assert (loaded.hierarchy.distance_batch(pairs, kernel=kernel)
                    == built.distance_batch(pairs))

    def test_unknown_kernel_rejected(self, artifact_path):
        with pytest.raises(ValueError, match="query kernel"):
            open_with(artifact_path, "vectorised")

    def test_hierarchy_rejects_unknown_selector(self, artifact_path):
        with open_with(artifact_path) as service:
            with pytest.raises(ValueError, match="unknown query kernel"):
                service.hierarchy.distance_batch([], kernel="nope")
            with pytest.raises(ValueError, match="unknown query kernel"):
                service.hierarchy.route_batch([], kernel="nope")


class TestSharded:
    def test_sharded_matches_local(self, artifact_path, built, kernel_graph):
        pairs = make_workload("zipf", kernel_graph, 200, seed=4,
                              skew=2.0).pairs
        with open_with(artifact_path, workers=2) as sharded:
            assert sharded.distance_batch(pairs) == built.distance_batch(pairs)
            assert sharded.route_batch(pairs) == built.route_batch(pairs)
            assert sharded.query_stats().extra["kernel_requested"] == "auto"


# ----------------------------------------------------------------------
# OffsetRecordTable: every row reads back, bounds-checked
# ----------------------------------------------------------------------
INT32 = st.integers(-2 ** 31, 2 ** 31 - 1)
VALUES = st.floats(allow_nan=False)

#: Tables of empty, ABSENT (``None``) and short rows (bunch rows come from
#: dicts, so a row's keys are distinct).
TABLE_ROWS = st.lists(
    st.one_of(st.none(), st.lists(st.tuples(INT32, VALUES), max_size=9,
                                  unique_by=lambda record: record[0])),
    max_size=8)


class TestRecordRows:
    @settings(max_examples=40, deadline=None)
    @given(rows=TABLE_ROWS)
    def test_rows_read_back(self, rows):
        table = OffsetRecordTable(OffsetRecordTable.encode(rows))
        for index, row in enumerate(rows):
            assert table.has_row(index) == (row is not None)
            if row is None:
                with pytest.raises(RecordTableError, match="is absent"):
                    table.row_items(index)
            else:
                assert table.row_items(index) == row
        for index in (-1, len(rows)):
            with pytest.raises(RecordTableError, match="out of range"):
                table.row_items(index)

    def test_row_pointing_past_the_record_area(self):
        blob = bytearray(OffsetRecordTable.encode([[(1, 1.0)], [(2, 2.0)]]))
        # Row 1's index entry: offset 1 -> 2, count 1 (two records in all).
        struct.pack_into("<QI", blob, 16 + 12, 2, 1)
        table = OffsetRecordTable(bytes(blob))
        assert table.row_items(0) == [(1, 1.0)]
        with pytest.raises(RecordTableError,
                           match="points past the record area"):
            table.row_items(1)

    def test_absent_row_reads_as_missing_not_empty(self):
        """``ABSENT`` (a node with no bunch at a level) is not an empty
        row: the decoded bunches leave it out, where an empty row is
        present."""
        bunch_rows = [[(1, 1.0)], [], None]
        table = OffsetRecordTable(OffsetRecordTable.encode(bunch_rows))
        label = dict(enumerate(["v0", "v1", "v2"]))
        level = _decode_rows(label, table, 0, "bunch")
        assert [table.has_row(row) for row in range(3)] == [True, True, False]
        assert level == {"v0": {"v1": 1.0}, "v1": {}}
