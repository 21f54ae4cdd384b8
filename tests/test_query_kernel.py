"""Columnar batch-query kernel: identity, fallback, stats, cache bounds.

The kernel's contract is strict: whatever the probing strategy, answers are
list-for-list identical to the per-pair dict path — across workload shapes,
input orderings, duplicate pairs, backing stores, and deployment shapes
(local and sharded).  These tests pin that contract, plus the satellites
that ride along: the bounded pivot-row LRU and the numpy-optional twin
paths.
"""

import dataclasses
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import graphs
from repro.routing import tables as tables_module
from repro.routing.tables import OffsetRecordTable, RecordTableError
from repro.routing.tz_hierarchy import _PivotRowCache
from repro.serving import (
    BuildConfig,
    CacheConfig,
    QUERY_KERNELS,
    ServingConfig,
    load_hierarchy,
    make_workload,
    open_service,
    resolve_query_kernel,
    stable_node_hash,
    write_shard_artifacts,
)

WORKLOAD_SHAPES = ("uniform", "zipf", "locality", "bursty")


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


def open_with(artifact_path, kernel, **overrides):
    config = ServingConfig(artifact_path=artifact_path,
                           build=BuildConfig(k=3, seed=5),
                           cache=CacheConfig(capacity=0),
                           kernel=kernel)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return open_service(config)


class TestKernelIdentity:
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_distance_batch_matches_dict_path(self, artifact_path,
                                              kernel_graph, shape):
        pairs = make_workload(shape, kernel_graph, 400, seed=9).pairs
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert baseline.query_stats().extra["kernel_active"] == "dict"
            assert columnar.query_stats().extra["kernel_active"] == "columnar"
            assert (baseline.distance_batch(pairs)
                    == columnar.distance_batch(pairs))

    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
    def test_route_batch_matches_dict_path(self, artifact_path,
                                           kernel_graph, shape):
        pairs = make_workload(shape, kernel_graph, 150, seed=3).pairs
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert (baseline.route_batch(pairs)
                    == columnar.route_batch(pairs))

    def test_unsorted_duplicate_and_equal_pairs(self, artifact_path,
                                                kernel_graph):
        nodes = kernel_graph.nodes()
        # Deliberately adversarial ordering: descending sources, duplicated
        # pairs scattered, self-pairs interleaved.
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                 for i in range(200)]
        pairs = sorted(pairs, key=repr, reverse=True)
        pairs += pairs[::4] + [(nodes[0], nodes[0]), (nodes[5], nodes[5])]
        with open_with(artifact_path, "dict") as baseline, \
                open_with(artifact_path, "columnar") as columnar:
            assert (baseline.distance_batch(pairs)
                    == columnar.distance_batch(pairs))
            assert baseline.route_batch(pairs) == columnar.route_batch(pairs)

    def test_self_pairs_are_zero_and_delivered(self, artifact_path,
                                               kernel_graph):
        nodes = kernel_graph.nodes()[:10]
        pairs = [(v, v) for v in nodes]
        with open_with(artifact_path, "columnar") as service:
            assert service.distance_batch(pairs) == [0.0] * len(pairs)
            for trace in service.route_batch(pairs):
                assert trace.delivered and trace.path == [trace.source]

    def test_unknown_node_raises_both_kernels(self, artifact_path,
                                              kernel_graph):
        pairs = [(kernel_graph.nodes()[0], "no-such-node")]
        for kernel in ("dict", "columnar"):
            with open_with(artifact_path, kernel) as service:
                with pytest.raises(ValueError, match="no-such-node"):
                    service.distance_batch(pairs)


class TestKernelSelection:
    def test_registry_names(self):
        assert set(QUERY_KERNELS.names()) >= {"dict", "columnar", "auto"}

    def test_auto_and_columnar_are_one_rule(self):
        assert QUERY_KERNELS.get("auto") is QUERY_KERNELS.get("columnar")
        assert QUERY_KERNELS.get("dict") is not QUERY_KERNELS.get("auto")

    def test_auto_resolves_columnar_on_v2(self, artifact_path):
        with open_with(artifact_path, "auto") as service:
            assert service.query_stats().extra["kernel_active"] == "columnar"
            assert resolve_query_kernel("auto", service.hierarchy) \
                == "columnar"

    def test_unknown_kernel_rejected(self, artifact_path):
        with pytest.raises(ValueError, match="query kernel"):
            open_with(artifact_path, "vectorised")

    def test_hierarchy_rejects_unknown_selector(self, artifact_path):
        with open_with(artifact_path, "auto") as service:
            with pytest.raises(ValueError, match="unknown query kernel"):
                service.hierarchy.distance_batch([], kernel="nope")

    def test_in_memory_build_falls_back_to_dict(self, kernel_graph,
                                                artifact_path):
        config = ServingConfig(build=BuildConfig(k=3, seed=5),
                               cache=CacheConfig(capacity=0),
                               kernel="columnar")
        pairs = make_workload("zipf", kernel_graph, 200, seed=1).pairs
        with open_service(config, graph=kernel_graph) as built, \
                open_with(artifact_path, "columnar") as loaded:
            # Requesting columnar on a hierarchy without record tables
            # degrades gracefully, and answers stay identical.
            assert built.query_stats().extra["kernel_active"] == "dict"
            assert (built.distance_batch(pairs)
                    == loaded.distance_batch(pairs))


class TestKernelStats:
    def test_group_stats_and_madvise_reported(self, artifact_path,
                                              kernel_graph):
        pairs = make_workload("uniform", kernel_graph, 120, seed=2).pairs
        with open_with(artifact_path, "columnar") as service:
            service.distance_batch(pairs)
            extra = service.query_stats().extra
            stats = extra["kernel_stats"]
            assert stats["batches"] >= 1
            assert stats["pairs"] >= len(set(pairs))
            # Grouping by source can never exceed the pair count.
            assert 1 <= stats["groups"] <= stats["pairs"]
            assert stats["bunch_rows_decoded"] >= 1
            assert extra["kernel_requested"] == "columnar"
            # madvise hints are best-effort; when the platform applied them
            # the record sections are listed.
            if hasattr(os, "posix_fadvise"):  # any modern POSIX
                assert "madvise_sections" in extra


class TestShardedKernel:
    def test_sharded_columnar_matches_local_dict(self, artifact_path,
                                                 kernel_graph):
        pairs = make_workload("bursty", kernel_graph, 200, seed=4).pairs
        sharded_config = ServingConfig(artifact_path=artifact_path,
                                       build=BuildConfig(k=3, seed=5),
                                       cache=CacheConfig(capacity=0),
                                       workers=2, kernel="columnar")
        with open_with(artifact_path, "dict") as baseline, \
                open_service(sharded_config) as sharded:
            expected_distances = baseline.distance_batch(pairs)
            expected_routes = baseline.route_batch(pairs)
            assert sharded.distance_batch(pairs) == expected_distances
            assert sharded.route_batch(pairs) == expected_routes
            merged = sharded.query_stats()
            assert merged.extra["kernel_active"] == "columnar"
            # Additive merge: the per-worker kernel counters sum.
            assert merged.extra["kernel_stats"]["pairs"] >= len(set(pairs))


class TestPivotRowCacheBound:
    def test_lru_bound_and_evictions(self, artifact_path, kernel_graph):
        pairs = make_workload("uniform", kernel_graph, 300, seed=6).pairs
        with open_with(artifact_path, "dict") as service:
            hierarchy = service.hierarchy
            hierarchy._pivot_row_cache = _PivotRowCache(8)
            service.distance_batch(pairs)
            info = hierarchy.pivot_row_cache_info()
            assert info["capacity"] == 8
            assert info["size"] <= 8
            assert info["evictions"] > 0
            assert info["misses"] > 0
            assert service.query_stats().extra["pivot_row_cache"] == info


class TestNumpyOptional:
    def test_stdlib_twin_is_identical(self, artifact_path, kernel_graph,
                                      monkeypatch):
        """Force the stdlib struct/array path and re-check identity.

        CI additionally runs this whole file with ``REPRO_NO_NUMPY=1`` in
        an environment without numpy installed; this in-process variant
        keeps the twin-path contract covered on every run.
        """
        pairs = make_workload("zipf", kernel_graph, 250, seed=12).pairs
        with open_with(artifact_path, "columnar") as service:
            expected = service.distance_batch(pairs)
            expected_routes = service.route_batch(pairs[:80])
        monkeypatch.setattr(tables_module, "_np", None)
        with open_with(artifact_path, "columnar") as service:
            assert service.query_stats().extra["kernel_active"] == "columnar"
            assert service.distance_batch(pairs) == expected
            assert service.route_batch(pairs[:80]) == expected_routes

    def test_have_numpy_honours_env_gate(self):
        # The probe result is consistent with the environment the module
        # was imported into.
        if os.environ.get("REPRO_NO_NUMPY"):
            assert tables_module.HAVE_NUMPY is False
        else:
            try:
                import numpy  # noqa: F401
            except ImportError:
                assert tables_module.HAVE_NUMPY is False
            else:
                assert tables_module.HAVE_NUMPY is True


# ----------------------------------------------------------------------
# OffsetRecordTable.probe: a table lookup that decodes one value
# ----------------------------------------------------------------------
INT32 = st.integers(-2 ** 31, 2 ** 31 - 1)
VALUES = st.floats(allow_nan=False)


def record_rows(max_records):
    """A row's records with distinct keys (bunch rows come from dicts)."""
    return st.lists(st.tuples(INT32, VALUES), max_size=max_records,
                    unique_by=lambda record: record[0])


#: Tables of empty, ABSENT (``None``) and short rows around one long row.
TABLE_ROWS = st.tuples(
    st.lists(st.one_of(st.none(), record_rows(9)), max_size=6),
    st.lists(st.tuples(INT32, VALUES), min_size=300, max_size=300,
             unique_by=lambda record: record[0]),
    st.lists(st.one_of(st.none(), record_rows(9)), max_size=3),
).map(lambda parts: parts[0] + [parts[1]] + parts[2])


def assert_probe_is_a_dict_lookup(rows):
    table = OffsetRecordTable(OffsetRecordTable.encode(rows))
    for index, row in enumerate(rows):
        if row is None:
            assert not table.has_row(index)
            with pytest.raises(RecordTableError, match="is absent"):
                table.probe(index, 0)
            continue
        expected = dict(table.row_items(index))
        assert expected == dict(row)
        missing = next(key for key in range(-2, 2 ** 31) if key not in expected)
        # Every stored key (first and last among them) and one that is not.
        for key in [*expected, missing]:
            assert table.probe(index, key) == expected.get(key)
    for index in (-1, len(rows)):
        with pytest.raises(RecordTableError, match="out of range"):
            table.probe(index, 0)


class TestProbe:
    @settings(max_examples=40, deadline=None)
    @given(rows=TABLE_ROWS)
    def test_probe_is_a_dict_lookup(self, rows):
        assert_probe_is_a_dict_lookup(rows)

    def test_big_endian_host_lists_keys_record_by_record(self, monkeypatch):
        """``memoryview.cast("i")`` is native-endian and the records are
        ``<i``: a big-endian host keeps no word view and answers the same."""
        rows = [[(-7, 1.5), (2 ** 31 - 1, -0.0), (0, float("inf"))], None,
                [], [(key, key / 3) for key in range(-150, 150)]]
        assert OffsetRecordTable(OffsetRecordTable.encode(rows))._words \
            is not None
        monkeypatch.setattr(tables_module, "_LITTLE_ENDIAN", False)
        assert OffsetRecordTable(OffsetRecordTable.encode(rows))._words is None
        assert_probe_is_a_dict_lookup(rows)

    def test_row_pointing_past_the_record_area(self):
        blob = bytearray(OffsetRecordTable.encode([[(1, 1.0)], [(2, 2.0)]]))
        # Row 1's index entry: offset 1 -> 2, count 1 (two records in all).
        struct.pack_into("<QI", blob, 16 + 12, 2, 1)
        table = OffsetRecordTable(bytes(blob))
        assert table.probe(0, 1) == 1.0
        for read in (table.probe, lambda row, _key: table.row_items(row)):
            with pytest.raises(RecordTableError,
                               match="points past the record area"):
                read(1, 2)


# ----------------------------------------------------------------------
# select_batch == _select_level, pair for pair, on loaded artifacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[2, 3], ids=["k2", "k3"])
def loaded(request, kernel_graph, tmp_path_factory):
    """``(hierarchy, sub-artifact paths)`` of one loaded build per ``k``."""
    k = request.param
    path = str(tmp_path_factory.mktemp(f"select-k{k}") / "hierarchy.artifact")
    config = ServingConfig(artifact_path=path, build=BuildConfig(k=k, seed=5),
                           cache=CacheConfig(capacity=0))
    open_service(config, graph=kernel_graph).close()
    return load_hierarchy(path)[0], write_shard_artifacts(path, 2)


class TestSelectBatch:
    @pytest.mark.parametrize("batch", [1, 64, 1024])
    @pytest.mark.parametrize("shape", ["uniform", "zipf"])
    def test_matches_select_level_pair_for_pair(self, loaded, kernel_graph,
                                                shape, batch):
        hierarchy, _ = loaded
        kernel = hierarchy.query_kernel("columnar")
        nodes = kernel_graph.nodes()
        pairs = make_workload(shape, kernel_graph, 1024, seed=21).pairs
        pairs[5], pairs[700] = (nodes[3], nodes[3]), (nodes[9], nodes[9])
        before = kernel.stats["bunch_rows_decoded"]
        touched = 0
        for lo in range(0, len(pairs), batch):
            chunk = pairs[lo:lo + batch]
            selections = kernel.select_batch(chunk)
            rows = set()
            for (source, target), selection in zip(chunk, selections):
                if source == target:
                    assert selection is None
                    continue
                level, pivot_index, estimate = selection
                pivot = (None if pivot_index is None
                         else kernel.node_label(pivot_index))
                assert (level, pivot, estimate) == hierarchy._select_level(
                    source, target)
                rows.update((l, source) for l in range(min(level + 1,
                                                           hierarchy.k))
                            if hierarchy.pivot_row(target)[l] is not None)
            touched += len(rows)
        # The stat counts distinct (level, source) rows touched per batch.
        assert kernel.stats["bunch_rows_decoded"] - before == touched

    def test_slice_refuses_foreign_sources_in_the_same_words(self, loaded,
                                                             kernel_graph):
        _, sub_paths = loaded
        hierarchy = load_hierarchy(sub_paths[0])[0]
        nodes = kernel_graph.nodes()
        foreign = next(v for v in nodes if stable_node_hash(v) % 2 != 0)
        local = next(v for v in nodes if stable_node_hash(v) % 2 == 0)
        with pytest.raises(KeyError) as per_pair:
            hierarchy._select_level(foreign, local)
        with pytest.raises(KeyError) as batched:
            hierarchy.query_kernel("columnar").select_batch([(local, foreign),
                                                             (foreign, local)])
        assert batched.value.args == per_pair.value.args
        assert "not present in this artifact slice" in per_pair.value.args[0]
