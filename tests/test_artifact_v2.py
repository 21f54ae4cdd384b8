"""Artifact format v2: section layout, eager loads, corruption, hostile trees.

The format-agnostic contract (headers, refused bytes, reload identity over
every pair) is pinned by ``test_serving_artifacts.py``; this module covers
the section-table layout itself:

* a reload is a plain ``CompactRoutingHierarchy`` that exports the built
  hierarchy's exact state and needs nothing of the file once loaded;
* the on-disk layout is what the docstring promises (magic, header section
  table, offset-addressed sections);
* per-section integrity: truncation, flipped bytes and wrong offsets are
  all detected, and a checksum-valid record table with a bad row is
  refused at load;
* a tampered destination tree is refused at load.
"""

import itertools
import json
import os
import pickle
import struct

import pytest

from repro import graphs
from repro.core import solve_pde
from repro.routing import CompactRoutingHierarchy, build_compact_routing
from repro.serving import (
    ArtifactError,
    ArtifactV2Reader,
    BuildConfig,
    CacheConfig,
    ServingConfig,
    artifact_info,
    load_hierarchy,
    load_pde,
    open_service,
    save_hierarchy,
    save_pde,
    verify_artifact,
    write_artifact_v2,
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
        for name in ("meta", "nodes", "pivots", "bunches", "anchors", "graph",
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


def _row_past_the_records(blob):
    # Row 0's index entry ``<offset, count>`` := ``<num_records, 1>``.
    _, num_records = struct.unpack_from("<QQ", blob, 0)
    struct.pack_into("<QI", blob, 16, num_records, 1)


def _first_key_set_to(blob, key):
    # The first record's key := ``key``.
    num_rows, _ = struct.unpack_from("<QQ", blob, 0)
    struct.pack_into("<i", blob, 16 + 12 * num_rows, key)


def _bunch_key_out_of_range(blob):
    _first_key_set_to(blob, -2)         # no node; -1 is no sentinel here


def _pivot_id_out_of_range(blob):
    # Node 0's level-1 pivot := num_nodes, one past the last interned id.
    num_nodes, _ = struct.unpack_from("<II", blob, 0)
    struct.pack_into("<i", blob, 8, num_nodes)


#: ``name -> (section, mutation, ArtifactError message)``: record tables
#: whose bytes are well-formed but whose rows are not.
TABLE_DAMAGES = {
    "bunch row past the record area": (
        "bunches", _row_past_the_records, "points past the record area"),
    "anchor row past the record area": (
        "anchors", _row_past_the_records, "points past the record area"),
    "bunch key out of range": (
        "bunches", _bunch_key_out_of_range, "outside the intern table"),
    "pivot id out of range": (
        "pivots", _pivot_id_out_of_range, "outside the intern table"),
}


class TestRoundTrip:
    def test_pivot_rows_match_eager_hierarchy(self, saved_artifact):
        graph, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        assert from_v2.pivots == built.pivots
        assert from_v2.pivot_dists == built.pivot_dists
        for node in graph.nodes():
            assert from_v2.label_of(node) == built.label_of(node)

    def test_loaded_hierarchy_exports_original_state(self, saved_artifact):
        """Decoding every section reproduces the exact export — nothing is
        lost to the section split."""
        _, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        assert from_v2.export_state() == built.export_state()
        assert from_v2.build_params == built.build_params

    def test_loaded_hierarchy_outlives_its_file(self, saved_artifact,
                                                tmp_path):
        """A load reads the file once and keeps nothing of it: overwriting
        the artifact in place and unlinking it moves no answer."""
        graph, built, v2_path, _ = saved_artifact
        path = tmp_path / "doomed.artifact"
        path.write_bytes(open(v2_path, "rb").read())
        loaded, _ = load_hierarchy(str(path))
        with open(path, "r+b") as fh:
            fh.write(b"\0" * os.path.getsize(path))
        path.unlink()
        assert type(loaded) is CompactRoutingHierarchy
        pairs = list(itertools.permutations(graph.nodes(), 2))
        assert loaded.route_batch(pairs) == built.route_batch(pairs)
        assert loaded.distance_batch(pairs) == built.distance_batch(pairs)
        assert loaded.export_state() == built.export_state()

    def test_resave_of_v2_load_round_trips(self, saved_artifact, tmp_path):
        graph, built, v2_path, _ = saved_artifact
        from_v2, _ = load_hierarchy(v2_path)
        again_path = str(tmp_path / "again.artifact")
        save_hierarchy(from_v2, again_path)
        again, _ = load_hierarchy(again_path)
        for u, v in itertools.islice(
                itertools.permutations(graph.nodes(), 2), 100):
            assert again.distance(u, v) == built.distance(u, v)

    def test_artifact_with_level_aux_sections_still_serves(
            self, saved_artifact, tmp_path):
        """An artifact written before the build's per-level estimates were
        dropped still carries ``level_aux_*`` sections; the loader never
        reads them, so even unreadable ones leave every answer, export,
        table, report and re-saved byte as they are."""
        graph, _, v2_path, info = saved_artifact

        def add_level_aux(sections):
            sections["level_aux_0"] = b"not a pickle"

        old_path = _rewritten(v2_path, str(tmp_path / "old.artifact"),
                              add_level_aux)
        assert "level_aux_0" in verify_artifact(old_path).sections
        clean, _ = load_hierarchy(v2_path)
        old, _ = load_hierarchy(old_path)
        pairs = list(itertools.permutations(graph.nodes(), 2))
        assert old.distance_batch(pairs) == clean.distance_batch(pairs)
        assert old.route_batch(pairs) == clean.route_batch(pairs)
        assert old.export_state() == clean.export_state()
        for node in graph.nodes():
            assert old.table_of(node) == clean.table_of(node)
        assert old.build_report() == clean.build_report()
        resaved = save_hierarchy(old, str(tmp_path / "resaved.artifact"))
        assert resaved.payload_sha256 == info.payload_sha256

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
        """The query-hot sections (pivots, bunches, anchors) are
        hash-verified at open — a flipped record byte can never silently
        answer queries."""
        _, _, v2_path, info = saved_artifact
        with open(v2_path, "rb") as fh:
            fh.readline()
            fh.readline()
            payload_start = fh.tell()
        for section in ("pivots", "bunches", "anchors"):
            entry = info.sections[section]
            position = payload_start + entry["offset"] + entry["length"] // 2
            corrupt = self._corrupt(v2_path, tmp_path,
                                    lambda blob, p=position: blob.__setitem__(
                                        p, blob[p] ^ 0xFF),
                                    name=f"{section}.artifact")
            with pytest.raises(ArtifactError, match="checksum mismatch"):
                load_hierarchy(corrupt)

    @pytest.mark.parametrize("damage", sorted(TABLE_DAMAGES))
    def test_checksum_valid_bad_table_fails_at_load(self, saved_artifact,
                                                    tmp_path, damage):
        """A record table whose checksum holds but whose rows do not — a
        bunch row past the record area, a node id outside the intern table
        — is refused by ``load_hierarchy`` itself, before any query."""
        _, _, v2_path, _ = saved_artifact
        section, mutate, message = TABLE_DAMAGES[damage]

        def spoil(sections):
            blob = bytearray(sections[section])
            mutate(blob)
            sections[section] = bytes(blob)

        bad = _rewritten(v2_path, str(tmp_path / "bad.artifact"), spoil)
        verify_artifact(bad)                        # every checksum holds
        with pytest.raises(ArtifactError, match=message):
            load_hierarchy(bad)

    @pytest.mark.parametrize("section", ["skeleton", "level_trees_0"])
    def test_corrupt_pickled_section_fails_at_load(self, saved_artifact,
                                                   tmp_path, section):
        """A flipped byte in a pickled section fails ``load_hierarchy``
        itself, not the first query that reads the section."""
        _, _, v2_path, info = saved_artifact
        entry = info.sections[section]
        with open(v2_path, "rb") as fh:
            fh.readline()
            fh.readline()
            payload_start = fh.tell()
        position = payload_start + entry["offset"] + entry["length"] // 2
        corrupt = self._corrupt(v2_path, tmp_path,
                                lambda blob: blob.__setitem__(
                                    position, blob[position] ^ 0xFF))
        with pytest.raises(ArtifactError,
                           match=f"section {section!r} checksum mismatch"):
            load_hierarchy(corrupt)

    def test_kind_mismatch_is_detected(self, tmp_path):
        graph = graphs.random_geometric_graph(20, 0.4, None, seed=2)
        pde = solve_pde(graph, graph.nodes()[:4], h=4, sigma=3, epsilon=0.5,
                        store_levels=False)
        path = str(tmp_path / "pde.v2")
        save_pde(pde, path)
        with pytest.raises(ArtifactError, match="expected"):
            load_hierarchy(path)


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
    """Trees are checked against the served graph at load: every pointer an
    edge, ``dist`` an int consistent with its parent's.  A tampered tree is
    an ``ArtifactError`` from ``load_hierarchy``, never a delivered
    route."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        graph, k = _graph_family()["er_k3"]
        base = tmp_path_factory.mktemp("hostile_trees")
        full = str(base / "full.artifact")
        save_hierarchy(build_compact_routing(graph, k=k, seed=7), full)
        return graph, {"full": full}

    @pytest.mark.parametrize("where", ["full"])
    @pytest.mark.parametrize("tamper", sorted(TREE_TAMPERS))
    def test_tampered_level_tree_is_refused(self, artifacts, tmp_path,
                                            where, tamper):
        graph, paths = artifacts

        def spoil(sections):
            trees = pickle.loads(sections["level_trees_0"])
            victim = next(tree for tree in trees if len(tree["parent"]) > 2)
            TREE_TAMPERS[tamper](victim, graph)
            sections["level_trees_0"] = pickle.dumps(trees)

        bad = _rewritten(paths[where], str(tmp_path / "bad.artifact"), spoil)
        with pytest.raises(ArtifactError, match="level_trees_0"):
            load_hierarchy(bad)

    @pytest.mark.parametrize("where", ["full"])
    def test_tampered_skeleton_tree_is_refused(self, artifacts, tmp_path,
                                               where):
        graph, paths = artifacts

        def spoil(sections):
            state = pickle.loads(sections["skeleton"])
            victim = next(tree for tree in state["attach_trees"]
                          if len(tree["parent"]) > 2)
            TREE_TAMPERS["inconsistent dist"](victim, graph)
            sections["skeleton"] = pickle.dumps(state)

        bad = _rewritten(paths[where], str(tmp_path / "bad.artifact"), spoil)
        with pytest.raises(ArtifactError, match="skeleton"):
            load_hierarchy(bad)

    @pytest.mark.parametrize("where", ["full"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_state_version_is_refused(self, artifacts, tmp_path, where,
                                          version):
        """An artifact written before trees carried ``dist`` (1), or while
        the skeleton PDE was pickled whole (2)."""
        _, paths = artifacts

        def downgrade(sections):
            meta = json.loads(sections["meta"])
            meta["state_version"] = version
            sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")

        old = _rewritten(paths[where], str(tmp_path / "old.artifact"),
                         downgrade, state_version=version)
        assert artifact_info(old).state_version == version
        with pytest.raises(ArtifactError, match="unsupported hierarchy state "
                                                f"version {version}"):
            load_hierarchy(old)


class TestHostileAnchors:
    """An anchor row names a skeleton node with an attach tree, or the
    load fails: a skeleton route climbs that tree from the anchored node."""

    @pytest.fixture(scope="class")
    def truncated(self, tmp_path_factory):
        graph, k = _graph_family()["er_k3"]
        hierarchy = build_compact_routing(graph, k=k, seed=7)
        assert hierarchy.mode == "truncated"
        path = str(tmp_path_factory.mktemp("hostile_anchors") / "t.artifact")
        save_hierarchy(hierarchy, path)
        return hierarchy, path

    def test_anchor_id_outside_the_intern_table_is_refused(self, truncated,
                                                            tmp_path):
        hierarchy, path = truncated
        n = hierarchy.graph.num_nodes

        def spoil(sections):
            blob = bytearray(sections["anchors"])
            _first_key_set_to(blob, n)
            sections["anchors"] = bytes(blob)

        bad = _rewritten(path, str(tmp_path / "bad.artifact"), spoil)
        with pytest.raises(ArtifactError, match="outside the intern table"):
            load_hierarchy(bad)

    def test_non_skeleton_anchor_is_refused(self, truncated, tmp_path):
        hierarchy, path = truncated
        nodes = hierarchy.graph.nodes()
        skeleton = hierarchy.level_sets[hierarchy.l0]
        stranger = next(i for i, v in enumerate(nodes) if v not in skeleton)

        def spoil(sections):
            blob = bytearray(sections["anchors"])
            _first_key_set_to(blob, stranger)
            sections["anchors"] = bytes(blob)

        bad = _rewritten(path, str(tmp_path / "bad.artifact"), spoil)
        verify_artifact(bad)                        # every checksum holds
        with pytest.raises(ArtifactError, match="not a skeleton node"):
            load_hierarchy(bad)


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
            assert extras["artifact_load"] == "file"
            assert extras["loaded_table_bytes"] == artifact_info(
                path).payload_bytes


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

    def test_label_without_an_encoding_is_refused_at_save(self, tmp_path):
        """A label outside ``None`` / ``bool`` / 64-bit ``int`` / ``float``
        / ``str`` / tuples of these is refused before any file is written."""
        from repro.routing.tables import NodeInternTable, RecordTableError

        for label in (frozenset({1}), 2 ** 63, ("x", frozenset())):
            with pytest.raises(RecordTableError, match="no intern-table"):
                NodeInternTable(["a", label]).encode()
        graph = graphs.WeightedGraph()
        graph.add_edge(frozenset({1}), 2, 3)
        graph.add_edge(2, 3, 1)
        hierarchy = build_compact_routing(graph, k=2, seed=7)
        path = tmp_path / "frozen.artifact"
        with pytest.raises(RecordTableError, match="frozenset"):
            save_hierarchy(hierarchy, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_pickle_tag_is_an_unknown_tag(self):
        """A hand-assembled ``P`` (the retired pickle fallback) is refused
        like any other unknown tag, never unpickled."""
        from repro.routing.tables import NodeInternTable, RecordTableError

        raw = pickle.dumps(frozenset({1}), protocol=4)
        blob = (b"\x01\x00\x00\x00" + b"P"
                + struct.pack("<I", len(raw)) + raw)
        with pytest.raises(RecordTableError,
                           match="unknown intern-table value tag b'P'"):
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
