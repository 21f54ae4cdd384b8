"""Artifact format v2: mmap layout, lazy loads, corruption, sub-artifacts.

The format-agnostic contract (headers, refused bytes, reload identity over
every pair) is pinned by ``test_serving_artifacts.py``; this module covers
the section-table layout itself:

* the lazy mmap reload exports the built hierarchy's exact state;
* the on-disk layout is what the docstring promises (magic, header section
  table, offset-addressed sections);
* per-section integrity: truncation, flipped bytes and wrong offsets are
  all detected;
* per-shard sub-artifacts serve list-for-list identically to full-artifact
  sharded serving while each worker holds a fraction of the table bytes.
"""

import itertools
import json
import os
import pickle

import pytest

from repro import graphs
from repro.core import solve_pde
from repro.routing import build_compact_routing
from repro.serving import (
    ArtifactError,
    ArtifactV2Reader,
    BuildConfig,
    CacheConfig,
    ServingConfig,
    ShardedRoutingService,
    artifact_info,
    load_hierarchy,
    load_pde,
    open_service,
    save_hierarchy,
    save_pde,
    stable_node_hash,
    verify_artifact,
    write_artifact_v2,
    write_shard_artifacts,
    zipf_workload,
)

from helpers import TREE_TAMPERS


def _graph_family():
    """Both hierarchy modes: k=3 resolves to truncated (skeleton sections
    populated), k=2 to budget (skeleton sections are all-None)."""
    return {
        "er_k3": (graphs.erdos_renyi_graph(
            28, 0.16, graphs.uniform_weights(1, 40), seed=3), 3),
        "grid_k2": (graphs.grid_graph(
            4, 6, graphs.mixed_scale_weights(1, 500, 0.3), seed=1), 2),
    }


@pytest.fixture(scope="module", params=sorted(_graph_family()))
def saved_artifact(request, tmp_path_factory):
    name = request.param
    graph, k = _graph_family()[name]
    hierarchy = build_compact_routing(graph, k=k, seed=7)
    v2_path = str(tmp_path_factory.mktemp("artifacts_v2")
                  / f"{name}.v2.artifact")
    info = save_hierarchy(hierarchy, v2_path)
    return graph, hierarchy, v2_path, info


class TestLayout:
    def test_magic_and_section_table_on_disk(self, saved_artifact):
        _, _, v2_path, written = saved_artifact
        with open(v2_path, "rb") as fh:
            assert fh.readline() == b"REPRO-ARTIFACT v2\n"
            header = json.loads(fh.readline().decode("utf-8"))
        assert header["kind"] == "routing_hierarchy"
        for name in ("meta", "nodes", "pivots", "bunches", "graph",
                     "levels", "skeleton", "metrics"):
            assert name in header["sections"]
        # Offsets tile the payload exactly: sorted by offset, each section
        # starts where the previous one ended.
        entries = sorted(header["sections"].values(), key=lambda e: e["offset"])
        position = 0
        for entry in entries:
            assert entry["offset"] == position
            position += entry["length"]
        assert position == header["payload_bytes"] == written.payload_bytes

    def test_artifact_info_reports_format_2(self, saved_artifact):
        graph, hierarchy, v2_path, _ = saved_artifact
        info = artifact_info(v2_path)
        assert info.format_version == 2
        assert info.kind == "routing_hierarchy"
        assert info.sections is not None
        assert info.metadata["n"] == graph.num_nodes
        assert info.metadata["k"] == hierarchy.k

    def test_verify_artifact_passes_on_clean_file(self, saved_artifact):
        _, _, v2_path, _ = saved_artifact
        assert verify_artifact(v2_path).format_version == 2


class TestRoundTrip:
    def test_pivot_rows_match_eager_hierarchy(self, saved_artifact):
        graph, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        assert from_v2._pivot_backend is not None    # mmap fast path active
        for node in graph.nodes():
            assert from_v2.pivot_row(node) == built.pivot_row(node)

    def test_lazy_hierarchy_exports_original_state(self, saved_artifact):
        """Materialising every lazy section reproduces the exact export —
        nothing is lost to the section split."""
        _, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        assert from_v2.export_state() == built.export_state()
        assert from_v2.build_params == built.build_params

    def test_resave_of_v2_load_round_trips(self, saved_artifact, tmp_path):
        graph, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        again_path = str(tmp_path / "again.artifact")
        save_hierarchy(from_v2, again_path)
        again, _ = load_hierarchy(again_path)
        for u, v in itertools.islice(
                itertools.permutations(graph.nodes(), 2), 100):
            assert again.distance(u, v) == built.distance(u, v)

    def test_pde_v2_round_trip(self, tmp_path):
        graph = graphs.random_geometric_graph(25, 0.35, None, seed=9)
        sources = graph.nodes()[:6]
        pde = solve_pde(graph, sources, h=6, sigma=4, epsilon=0.5,
                        store_levels=False)
        v2_path = str(tmp_path / "p.v2")
        info = save_pde(pde, v2_path)
        assert info.format_version == 2
        from_v2, _ = load_pde(v2_path)
        assert from_v2.estimates == pde.estimates
        assert from_v2.next_hops == pde.next_hops
        for v in graph.nodes():
            assert ([e.key() for e in from_v2.list_of(v)]
                    == [e.key() for e in pde.list_of(v)])


class TestIntegrity:
    @staticmethod
    def _corrupt(path, tmp_path, mutate, name="corrupt.artifact"):
        blob = bytearray(open(path, "rb").read())
        mutate(blob)
        out = tmp_path / name
        out.write_bytes(bytes(blob))
        return str(out)

    def test_flipped_byte_in_every_section_is_detected(
            self, saved_artifact, tmp_path):
        _, _, v2_path, info = saved_artifact
        with open(v2_path, "rb") as fh:
            fh.readline()
            fh.readline()
            payload_start = fh.tell()
        for index, (name, entry) in enumerate(sorted(info.sections.items())):
            position = payload_start + entry["offset"] + entry["length"] // 2
            corrupt = self._corrupt(v2_path, tmp_path,
                                    lambda blob, p=position: blob.__setitem__(
                                        p, blob[p] ^ 0xFF),
                                    name=f"s{index}.artifact")
            with pytest.raises(ArtifactError, match="checksum mismatch"):
                verify_artifact(corrupt)

    def test_truncated_file_is_detected_at_open(self, saved_artifact,
                                                tmp_path):
        _, _, v2_path, _ = saved_artifact
        corrupt = self._corrupt(v2_path, tmp_path,
                                lambda blob: blob.__delitem__(
                                    slice(len(blob) - 20, len(blob))))
        with pytest.raises(ArtifactError, match="truncated"):
            load_hierarchy(corrupt)

    def test_wrong_offset_is_detected(self, saved_artifact, tmp_path):
        """An out-of-bounds offset fails bounds validation at open; an
        in-bounds-but-wrong offset fails the section checksum."""
        _, _, v2_path, _ = saved_artifact

        def rewrite_offset(new_offset):
            with open(v2_path, "rb") as fh:
                magic = fh.readline()
                header = json.loads(fh.readline().decode("utf-8"))
                payload = fh.read()
            header["sections"]["metrics"]["offset"] = new_offset
            out = tmp_path / f"off{new_offset}.artifact"
            out.write_bytes(magic + json.dumps(
                header, sort_keys=True).encode("utf-8") + b"\n" + payload)
            return str(out)

        with pytest.raises(ArtifactError, match="out of bounds"):
            ArtifactV2Reader(rewrite_offset(10 ** 9))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            verify_artifact(rewrite_offset(0))

    def test_corrupt_record_table_fails_at_load(self, saved_artifact,
                                                tmp_path):
        """The query-hot sections (pivots, bunches) are hash-verified at
        open — a flipped record byte can never silently answer queries."""
        _, _, v2_path, info = saved_artifact
        with open(v2_path, "rb") as fh:
            fh.readline()
            fh.readline()
            payload_start = fh.tell()
        for section in ("pivots", "bunches"):
            entry = info.sections[section]
            position = payload_start + entry["offset"] + entry["length"] // 2
            corrupt = self._corrupt(v2_path, tmp_path,
                                    lambda blob, p=position: blob.__setitem__(
                                        p, blob[p] ^ 0xFF),
                                    name=f"{section}.artifact")
            with pytest.raises(ArtifactError, match="checksum mismatch"):
                load_hierarchy(corrupt)

    def test_corrupt_lazy_section_raises_on_access(self, saved_artifact,
                                                   tmp_path):
        """A flipped byte in a lazily-loaded pickled section surfaces as
        ArtifactError when (and only when) that section materialises."""
        _, _, v2_path, info = saved_artifact
        entry = info.sections["skeleton"]
        with open(v2_path, "rb") as fh:
            fh.readline()
            fh.readline()
            payload_start = fh.tell()
        position = payload_start + entry["offset"] + entry["length"] // 2
        corrupt = self._corrupt(v2_path, tmp_path,
                                lambda blob: blob.__setitem__(
                                    position, blob[position] ^ 0xFF))
        hierarchy, _ = load_hierarchy(corrupt)       # opens fine
        nodes = hierarchy.graph.nodes()
        hierarchy.distance(nodes[0], nodes[1])       # hot path untouched
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            hierarchy.pde_skel                       # materialises skeleton

    def test_kind_mismatch_is_detected(self, tmp_path):
        graph = graphs.random_geometric_graph(20, 0.4, None, seed=2)
        pde = solve_pde(graph, graph.nodes()[:4], h=4, sigma=3, epsilon=0.5,
                        store_levels=False)
        path = str(tmp_path / "pde.v2")
        save_pde(pde, path)
        with pytest.raises(ArtifactError, match="expected"):
            load_hierarchy(path)


class TestSubArtifacts:
    @pytest.fixture(scope="class")
    def sliced(self, tmp_path_factory):
        graph, k = _graph_family()["er_k3"]
        hierarchy = build_compact_routing(graph, k=k, seed=7)
        base = tmp_path_factory.mktemp("sub_artifacts")
        full_path = str(base / "full.artifact")
        save_hierarchy(hierarchy, full_path)
        workers = 4
        sub_paths = write_shard_artifacts(full_path, workers)
        return graph, hierarchy, full_path, sub_paths, workers

    def test_slices_shrink_per_worker_bytes(self, sliced):
        _, _, full_path, sub_paths, workers = sliced
        full_bytes = artifact_info(full_path).payload_bytes
        sub_bytes = [artifact_info(p).payload_bytes for p in sub_paths]
        mean_sub = sum(sub_bytes) / workers
        assert full_bytes / mean_sub >= 2.0, (
            f"sub-artifacts should hold <= half the table bytes per worker "
            f"at {workers} workers (full {full_bytes}, mean {mean_sub:.0f})")
        for path in sub_paths:
            verify_artifact(path)

    def test_slice_answers_owned_sources_identically(self, sliced):
        graph, hierarchy, _, sub_paths, workers = sliced
        shard = 1
        slice_hierarchy, info = load_hierarchy(sub_paths[shard])
        assert info.metadata["sub_artifact"]["shard"] == shard
        owned = [v for v in graph.nodes()
                 if stable_node_hash(v) % workers == shard]
        assert owned, "shard 1 should own at least one source"
        for source in owned:
            for target in graph.nodes():
                if source == target:
                    continue
                assert (slice_hierarchy.distance(source, target)
                        == hierarchy.distance(source, target))
                assert (slice_hierarchy.route(source, target).path
                        == hierarchy.route(source, target).path)

    def test_slice_refuses_foreign_sources_and_exports(self, sliced):
        graph, _, _, sub_paths, workers = sliced
        slice_hierarchy, _ = load_hierarchy(sub_paths[0])
        foreign = next(v for v in graph.nodes()
                       if stable_node_hash(v) % workers != 0)
        local = next(v for v in graph.nodes()
                     if stable_node_hash(v) % workers == 0 and v != foreign)
        with pytest.raises(KeyError, match="not.*present|slice"):
            slice_hierarchy.distance(foreign, local)
        with pytest.raises(ArtifactError, match="sub-artifact"):
            slice_hierarchy.export_state()     # aux sections are dropped

    def test_sharded_sub_artifact_serving_is_identical(self, sliced):
        """The acceptance criterion: sub-artifact sharded answers are
        list-for-list identical to full-artifact sharded serving (which is
        itself pinned to local serving by the PR-3 tests)."""
        graph, hierarchy, full_path, sub_paths, workers = sliced
        pairs = zipf_workload(graph.nodes(), 240, seed=11).pairs
        chunks = [pairs[lo:lo + 60] for lo in range(0, len(pairs), 60)]
        with ShardedRoutingService(full_path, num_workers=workers,
                                   partitioner="hash_source") as full:
            full_routes = [t for c in chunks for t in full.route_batch(c)]
            full_dists = [d for c in chunks for d in full.distance_batch(c)]
        with ShardedRoutingService(full_path, num_workers=workers,
                                   partitioner="hash_source",
                                   sub_artifact_paths=sub_paths) as sub:
            sub_routes = [t for c in chunks for t in sub.route_batch(c)]
            sub_dists = [d for c in chunks for d in sub.distance_batch(c)]
            merged = sub.merged_stats()
        assert sub_dists == full_dists
        assert [t.path for t in sub_routes] == [t.path for t in full_routes]
        assert [t.weight for t in sub_routes] == [t.weight for t in full_routes]
        assert merged.extra["sub_artifacts"] is True
        # Per-worker loaded bytes are additive across workers and strictly
        # below what N full copies would have held.
        full_bytes = artifact_info(full_path).payload_bytes
        assert merged.extra["loaded_table_bytes"] < workers * full_bytes / 2

    def test_wrong_partitioner_is_rejected(self, sliced):
        _, _, full_path, sub_paths, workers = sliced
        with pytest.raises(ValueError, match="source"):
            ShardedRoutingService(full_path, num_workers=workers,
                                  partitioner="round_robin",
                                  sub_artifact_paths=sub_paths)
        with pytest.raises(ValueError, match="hash_source"):
            write_shard_artifacts(full_path, workers,
                                  partitioner="round_robin")

    def test_wrong_slice_count_is_rejected(self, sliced):
        _, _, full_path, sub_paths, workers = sliced
        with pytest.raises(ValueError, match="one per worker"):
            ShardedRoutingService(full_path, num_workers=workers,
                                  partitioner="hash_source",
                                  sub_artifact_paths=sub_paths[:-1])

    def test_misordered_slices_are_rejected(self, sliced):
        _, _, full_path, sub_paths, workers = sliced
        shuffled = [sub_paths[1], sub_paths[0]] + sub_paths[2:]
        with pytest.raises(ValueError, match="shard order"):
            ShardedRoutingService(full_path, num_workers=workers,
                                  partitioner="hash_source",
                                  sub_artifact_paths=shuffled)

    def test_stale_slices_of_rebuilt_artifact_are_rejected(self, tmp_path):
        """Slices must derive from the artifact they are served with —
        rebuilding in place while old slices linger must fail loudly, not
        silently serve the previous hierarchy's tables."""
        graph, k = _graph_family()["grid_k2"]
        path = str(tmp_path / "rebuilt.artifact")
        save_hierarchy(build_compact_routing(graph, k=k, seed=7), path)
        stale_paths = write_shard_artifacts(path, 2)
        save_hierarchy(build_compact_routing(graph, k=k, seed=8), path)
        with pytest.raises(ValueError, match="different build"):
            ShardedRoutingService(path, num_workers=2,
                                  partitioner="hash_source",
                                  sub_artifact_paths=stale_paths)
        # Re-slicing repairs it.
        fresh_paths = write_shard_artifacts(path, 2)
        service = ShardedRoutingService(path, num_workers=2,
                                        partitioner="hash_source",
                                        sub_artifact_paths=fresh_paths)
        assert service.sub_artifact_paths == fresh_paths

    def test_v1_artifact_cannot_be_sliced(self, tmp_path):
        v1_path = tmp_path / "old.artifact"
        v1_path.write_bytes(b"REPRO-ARTIFACT v1\n{}\n")
        with pytest.raises(ArtifactError, match="unsupported"):
            write_shard_artifacts(str(v1_path), 2)
        with pytest.raises(ArtifactError, match="unsupported"):
            ShardedRoutingService(str(v1_path), num_workers=2,
                                  partitioner="hash_source",
                                  sub_artifact_paths=["a", "b"])


def _rewritten(path, out, mutate, state_version=None):
    """A copy of the artifact at ``path`` written to ``out``, its section
    bytes passed through ``mutate`` first (checksums are recomputed, so only
    the content check can catch the change)."""
    info = artifact_info(path)
    reader = ArtifactV2Reader(path)
    try:
        sections = {name: bytes(reader.section_bytes(name))
                    for name in info.sections}
    finally:
        reader.close()
    mutate(sections)
    write_artifact_v2(out, info.kind, sections, metadata=info.metadata,
                      state_version=(info.state_version if state_version is None
                                     else state_version))
    return out


class TestHostileTrees:
    """Trees are checked against the served graph when their section
    materialises: every pointer an edge, ``dist`` an int consistent with its
    parent's.  A tampered tree is an ``ArtifactError``, never a delivered
    route — in a full artifact and in a sub-artifact slice alike."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        graph, k = _graph_family()["er_k3"]
        base = tmp_path_factory.mktemp("hostile_trees")
        full = str(base / "full.artifact")
        save_hierarchy(build_compact_routing(graph, k=k, seed=7), full)
        owned = [v for v in graph.nodes() if stable_node_hash(v) % 2 == 0]
        return graph, {"full": (full, graph.nodes()),
                       "slice": (write_shard_artifacts(full, 2)[0], owned)}

    @staticmethod
    def _pairs(hierarchy, sources, levels):
        """Pairs from ``sources`` whose selected level is in ``levels``."""
        pairs = [(s, t) for s in sources for t in hierarchy.graph.nodes()
                 if s != t and hierarchy._select_level(s, t)[0] in levels]
        assert pairs
        return pairs

    @pytest.mark.parametrize("where", ["full", "slice"])
    @pytest.mark.parametrize("tamper", sorted(TREE_TAMPERS))
    def test_tampered_level_tree_is_refused(self, artifacts, tmp_path,
                                            where, tamper):
        graph, paths = artifacts
        path, sources = paths[where]

        def spoil(sections):
            trees = pickle.loads(sections["level_trees_0"])
            victim = next(tree for tree in trees if len(tree["parent"]) > 2)
            TREE_TAMPERS[tamper](victim, graph)
            sections["level_trees_0"] = pickle.dumps(trees)

        hierarchy, _ = load_hierarchy(
            _rewritten(path, str(tmp_path / "bad.artifact"), spoil))
        with pytest.raises(ArtifactError, match="level_trees_0"):
            hierarchy.route_batch(self._pairs(hierarchy, sources, {0}))
        with pytest.raises(ArtifactError, match="level_trees_0"):
            hierarchy.level_data[0].trees

    @pytest.mark.parametrize("where", ["full", "slice"])
    def test_tampered_skeleton_tree_is_refused(self, artifacts, tmp_path,
                                               where):
        graph, paths = artifacts
        path, sources = paths[where]

        def spoil(sections):
            state = pickle.loads(sections["skeleton"])
            victim = next(tree for tree in state["attach_trees"]
                          if len(tree["parent"]) > 2)
            TREE_TAMPERS["inconsistent dist"](victim, graph)
            sections["skeleton"] = pickle.dumps(state)

        hierarchy, _ = load_hierarchy(
            _rewritten(path, str(tmp_path / "bad.artifact"), spoil))
        skeleton_levels = set(range(hierarchy.l0, hierarchy.k))
        with pytest.raises(ArtifactError, match="skeleton"):
            hierarchy.route_batch(
                self._pairs(hierarchy, sources, skeleton_levels))

    @pytest.mark.parametrize("where", ["full", "slice"])
    def test_state_version_1_is_refused(self, artifacts, tmp_path, where):
        """An artifact written before trees carried ``dist``."""
        _, paths = artifacts

        def downgrade(sections):
            meta = json.loads(sections["meta"])
            meta["state_version"] = 1
            sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")

        old = _rewritten(paths[where][0], str(tmp_path / "v1.artifact"),
                         downgrade, state_version=1)
        assert artifact_info(old).state_version == 1
        with pytest.raises(ArtifactError,
                           match="unsupported hierarchy state version 1"):
            load_hierarchy(old)


class TestOpenServiceIntegration:
    def test_open_service_records_load_path_metrics(self, tmp_path):
        graph, k = _graph_family()["grid_k2"]
        path = str(tmp_path / "svc.artifact")
        config = ServingConfig(artifact_path=path,
                               build=BuildConfig(k=k, seed=7),
                               cache=CacheConfig(capacity=128))
        with open_service(config, graph=graph) as built:
            extras = built.query_stats().extra
            assert extras["artifact_format"] == 2
            assert extras["artifact_load"] == "built"
        with open_service(config, graph=graph) as loaded:
            extras = loaded.query_stats().extra
            assert extras["artifact_format"] == 2
            assert extras["artifact_load"] == "mmap"
            assert extras["loaded_table_bytes"] == artifact_info(
                path).payload_bytes

    def test_sub_artifact_config_requires_source_partitioning(self):
        with pytest.raises(ValueError, match="workers"):
            ServingConfig(artifact_path="x", sub_artifacts=True)

    def test_open_service_sub_artifacts_end_to_end(self, tmp_path):
        graph, k = _graph_family()["grid_k2"]
        path = str(tmp_path / "subsvc.artifact")
        local_config = ServingConfig(artifact_path=path,
                                     build=BuildConfig(k=k, seed=7),
                                     cache=CacheConfig(capacity=128))
        pairs = zipf_workload(graph.nodes(), 160, seed=5).pairs
        with open_service(local_config, graph=graph) as local:
            expected = local.distance_batch(pairs)
        sharded_config = ServingConfig(
            artifact_path=path, workers=2, partitioner="hash_source",
            sub_artifacts=True, build=BuildConfig(k=k, seed=7),
            cache=CacheConfig(capacity=128))
        with open_service(sharded_config, graph=graph) as sharded:
            assert sharded.sub_artifact_paths is not None
            assert all(os.path.exists(p)
                       for p in sharded.sub_artifact_paths)
            assert sharded.distance_batch(pairs) == expected


class TestNodeInternTable:
    """The node intern table has one encoding: a ``uint32`` count, then
    every label in the tagged value encoding."""

    def test_round_trip_preserves_labels_and_order(self):
        from repro.routing.tables import NodeInternTable

        for labels in (
            [f"host-{i:04d}.rack{i % 7}" for i in range(200)],
            list(range(50)),
            ["solo"],
            [],
            ["aa", 5, "ab", None, ("x", 1), "abc", 2.5, "b"],
        ):
            table = NodeInternTable(labels)
            assert NodeInternTable.decode(table.encode()).nodes() == labels

    def test_saved_hierarchy_declares_the_tagged_table(self, tmp_path):
        graph, k = _graph_family()["grid_k2"]
        path = str(tmp_path / "h.artifact")
        hierarchy = build_compact_routing(graph, k=k, seed=7)
        save_hierarchy(hierarchy, path)
        assert artifact_info(path).metadata["node_table_encoding"] == "tagged"
        verify_artifact(path)
        loaded, _ = load_hierarchy(path)
        pairs = zipf_workload(graph.nodes(), 40, seed=2).pairs
        assert ([loaded.route(s, t).path for s, t in pairs]
                == [hierarchy.route(s, t).path for s, t in pairs])

    def test_duplicate_labels_are_refused(self):
        from repro.routing.tables import NodeInternTable, RecordTableError

        with pytest.raises(RecordTableError, match="duplicate"):
            NodeInternTable(["a", "b", "a"])
        # Hand-assembled bytes: a count of 2, then "a" twice.
        blob = b"\x02\x00\x00\x00" + b"S\x01\x00\x00\x00a" * 2
        with pytest.raises(RecordTableError, match="duplicate"):
            NodeInternTable.decode(blob)

    def test_unknown_value_tag_is_refused(self):
        from repro.routing.tables import NodeInternTable, RecordTableError

        blob = bytearray(NodeInternTable(["a"]).encode())
        blob[4:5] = b"?"
        with pytest.raises(RecordTableError,
                           match="unknown intern-table value tag"):
            NodeInternTable.decode(bytes(blob))

    def test_trailing_bytes_are_refused(self):
        from repro.routing.tables import NodeInternTable, RecordTableError

        blob = NodeInternTable(["a", 1]).encode() + b"N"
        with pytest.raises(RecordTableError, match="1 trailing bytes"):
            NodeInternTable.decode(blob)

    @pytest.mark.parametrize("label", [7, 2.5, "abc", ("x", 1)])
    def test_truncated_label_is_refused(self, label):
        from repro.routing.tables import NodeInternTable, RecordTableError

        blob = NodeInternTable([label]).encode()
        with pytest.raises(RecordTableError):
            NodeInternTable.decode(blob[:-1])

    def test_count_beyond_the_bytes_is_refused(self, tmp_path):
        """``0xFFFFFFFF`` labels cannot fit in a few bytes (every label
        takes at least its tag byte): the decoder refuses the count before
        reading a label, and a hierarchy load reports it as corrupt."""
        from repro.routing.tables import NodeInternTable, RecordTableError

        def bad_count(blob):
            return b"\xff\xff\xff\xff" + bytes(blob[4:])

        with pytest.raises(RecordTableError, match="claims 4294967295"):
            NodeInternTable.decode(bad_count(
                NodeInternTable(["a", "b"]).encode()))

        graph, k = _graph_family()["grid_k2"]
        path = str(tmp_path / "good.artifact")
        info = save_hierarchy(build_compact_routing(graph, k=k, seed=7),
                              path)
        reader = ArtifactV2Reader(path)
        try:
            sections = {name: bytes(reader.section_bytes(name))
                        for name in info.sections}
        finally:
            reader.close()
        sections["nodes"] = bad_count(sections["nodes"])
        bad = str(tmp_path / "bad.artifact")
        write_artifact_v2(bad, info.kind, sections, metadata=info.metadata,
                          state_version=info.state_version)
        with pytest.raises(ArtifactError, match="corrupt record table"):
            load_hierarchy(bad)
