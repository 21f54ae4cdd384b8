"""Artifact persistence: format header, integrity checking, lossless round-trips.

The contract every artifact reader and writer keeps, through the typed
entry points (``save_*`` / ``load_*`` / ``artifact_info`` /
``verify_artifact``): what the header says, which bytes are refused, and
that a reload answers like the original.  The section layout itself, lazy
loading, per-section corruption and sub-artifact slicing are covered by
``test_artifact_v2.py``.
"""

import hashlib
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
    RoutingService,
    artifact_info,
    load_hierarchy,
    load_pde,
    save_hierarchy,
    save_pde,
    verify_artifact,
    write_artifact_v2,
)


def _graph_family():
    """Two generators (acceptance criterion) covering both hierarchy modes."""
    return {
        "er_k3": (graphs.erdos_renyi_graph(
            28, 0.16, graphs.uniform_weights(1, 40), seed=3), 3),
        "grid_k2": (graphs.grid_graph(
            4, 6, graphs.mixed_scale_weights(1, 500, 0.3), seed=1), 2),
    }


@pytest.fixture(scope="module", params=sorted(_graph_family()))
def saved_hierarchy(request, tmp_path_factory):
    name = request.param
    graph, k = _graph_family()[name]
    hierarchy = build_compact_routing(graph, k=k, seed=7)
    path = tmp_path_factory.mktemp("artifacts") / f"{name}.artifact"
    info = save_hierarchy(hierarchy, str(path))
    return graph, hierarchy, str(path), info


_UNPICKLED = []


def _trip(note):
    _UNPICKLED.append(note)


class _Tripwire:
    """Unpickling this runs code of the file's choosing (here: a note)."""

    def __reduce__(self):
        return (_trip, ("payload was unpickled",))


def _legacy_artifact(path, version):
    """A well-formed monolithic-pickle artifact claiming format ``version``:
    byte for byte what the retired format-1 writer produced."""
    payload = pickle.dumps({"state_version": 1, "bomb": _Tripwire()},
                           protocol=4)
    header = {"kind": "routing_hierarchy", "state_version": 1,
              "payload_bytes": len(payload),
              "payload_sha256": hashlib.sha256(payload).hexdigest(),
              "metadata": {"n": 3}}
    path.write_bytes(b"REPRO-ARTIFACT v%d\n" % version
                     + json.dumps(header, sort_keys=True).encode("utf-8")
                     + b"\n" + payload)
    return str(path)


class TestFormat:
    def test_header_is_readable_without_payload(self, saved_hierarchy):
        graph, hierarchy, path, written = saved_hierarchy
        info = artifact_info(path)
        assert info.kind == "routing_hierarchy"
        assert info.format_version == 2
        assert info.payload_sha256 == written.payload_sha256
        assert info.metadata["n"] == graph.num_nodes
        assert info.metadata["k"] == hierarchy.k
        assert info.metadata["mode"] == hierarchy.mode

    def test_magic_line_and_json_header_on_disk(self, saved_hierarchy):
        _, _, path, _ = saved_hierarchy
        with open(path, "rb") as fh:
            assert fh.readline() == b"REPRO-ARTIFACT v2\n"
            header = json.loads(fh.readline().decode("utf-8"))
        assert header["kind"] == "routing_hierarchy"
        assert header["payload_bytes"] > 0

    def test_non_artifact_file_is_rejected(self, tmp_path):
        path = tmp_path / "not_an_artifact"
        path.write_bytes(b"just some text\nmore text\n")
        with pytest.raises(ArtifactError, match="bad magic"):
            artifact_info(str(path))

    def test_future_format_version_is_rejected(self, tmp_path):
        path = tmp_path / "future"
        path.write_bytes(b"REPRO-ARTIFACT v99\n{}\n")
        with pytest.raises(ArtifactError, match="unsupported"):
            artifact_info(str(path))

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_format_versions_are_refused_unread(self, tmp_path,
                                                      version):
        """Legacy (v1) and unknown (v3) files get a typed error naming the
        supported versions from every reader — never an unpickle, never an
        ``AttributeError``/``KeyError`` from a half-understood header."""
        path = _legacy_artifact(tmp_path / f"v{version}.artifact", version)
        del _UNPICKLED[:]
        for reader in (artifact_info, load_hierarchy, load_pde,
                       verify_artifact, RoutingService.load):
            with pytest.raises(ArtifactError,
                               match=r"unsupported.*reads versions \[2\]"):
                reader(path)
        assert not _UNPICKLED
        with open(path, "rb") as fh:                 # the tripwire is live
            pickle.loads(fh.read().split(b"\n", 2)[2])
        assert _UNPICKLED

    def test_only_the_supported_format_is_writable(self, saved_hierarchy,
                                                   tmp_path):
        _, hierarchy, _, _ = saved_hierarchy
        path = str(tmp_path / "never.artifact")
        for bad in (1, 3, "2"):
            with pytest.raises(ValueError, match="format must be one of"):
                save_hierarchy(hierarchy, path, format=bad)
            with pytest.raises(ValueError, match="format must be one of"):
                RoutingService(hierarchy).save(path, format=bad)
        assert not os.path.exists(path)
        assert save_hierarchy(hierarchy, path, format=2).format_version == 2

    def test_failed_write_leaves_the_old_artifact_intact(
            self, saved_hierarchy, tmp_path, monkeypatch):
        """Writes go through a temp file and an atomic rename: a writer that
        dies before the rename changes nothing and leaves nothing behind."""
        _, hierarchy, path, _ = saved_hierarchy
        target = tmp_path / "live.artifact"
        target.write_bytes(open(path, "rb").read())
        before = target.read_bytes()

        def dying_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="disk full"):
            save_hierarchy(hierarchy, str(target))
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["live.artifact"]
        verify_artifact(str(target))


class TestIntegrity:
    def test_payload_corruption_is_detected(self, saved_hierarchy, tmp_path):
        _, _, path, _ = saved_hierarchy
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF  # flip a payload bit
        corrupt = tmp_path / "corrupt.artifact"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            verify_artifact(str(corrupt))

    def test_truncation_is_detected(self, saved_hierarchy, tmp_path):
        _, _, path, _ = saved_hierarchy
        blob = open(path, "rb").read()
        truncated = tmp_path / "truncated.artifact"
        truncated.write_bytes(blob[:-20])
        for reader in (verify_artifact, load_hierarchy):
            with pytest.raises(ArtifactError, match="truncated"):
                reader(str(truncated))

    def test_kind_mismatch_is_detected(self, tmp_path):
        path = tmp_path / "other.artifact"
        write_artifact_v2(str(path), "something_else", {"x": b"1"})
        with pytest.raises(ArtifactError, match="expected"):
            load_hierarchy(str(path))
        with pytest.raises(ArtifactError, match="expected"):
            load_pde(str(path))

    def test_invalid_state_version_is_rejected(self, tmp_path):
        path = tmp_path / "bad_state.artifact"
        write_artifact_v2(str(path), "routing_hierarchy",
                          {"meta": json.dumps({"state_version": 999})
                           .encode("utf-8")})
        with pytest.raises(ArtifactError,
                           match="unsupported hierarchy state version 999"):
            load_hierarchy(str(path))


class TestHierarchyRoundTrip:
    def test_every_query_answers_identically(self, saved_hierarchy):
        """The acceptance criterion: a reloaded hierarchy answers every
        route / distance_estimate query identically to the in-memory one."""
        graph, built, path, _ = saved_hierarchy
        reloaded, info = load_hierarchy(path)
        assert info.payload_bytes > 0
        assert reloaded.k == built.k
        assert reloaded.mode == built.mode
        assert reloaded.build_params == built.build_params
        for u, v in itertools.permutations(graph.nodes(), 2):
            assert reloaded.distance(u, v) == built.distance(u, v)
            fresh, loaded = built.route(u, v), reloaded.route(u, v)
            assert loaded.path == fresh.path
            assert loaded.weight == fresh.weight
            assert loaded.delivered == fresh.delivered
            assert loaded.estimate == fresh.estimate

    def test_reload_of_reload_is_stable(self, saved_hierarchy, tmp_path):
        _, _, path, _ = saved_hierarchy
        reloaded, _ = load_hierarchy(path)
        again_path = str(tmp_path / "again.artifact")
        save_hierarchy(reloaded, again_path)
        # Save -> load -> save must be a fixed point at the state level (the
        # raw bytes may differ through pickle string-interning memo effects).
        again, _ = load_hierarchy(again_path)
        assert again.export_state() == reloaded.export_state()

    def test_graph_adjacency_order_survives(self, saved_hierarchy):
        graph, _, path, _ = saved_hierarchy
        reloaded, _ = load_hierarchy(path)
        assert reloaded.graph.nodes() == graph.nodes()
        for node in graph.nodes():
            assert (list(reloaded.graph.neighbor_weights(node).items())
                    == list(graph.neighbor_weights(node).items()))


class TestPDERoundTrip:
    def test_pde_save_load(self, tmp_path):
        graph = graphs.random_geometric_graph(25, 0.35, None, seed=9)
        sources = graph.nodes()[:6]
        pde = solve_pde(graph, sources, h=6, sigma=4, epsilon=0.5,
                        store_levels=False)
        path = tmp_path / "pde.artifact"
        info = save_pde(pde, str(path))
        assert info.kind == "pde_result"
        assert info.metadata["sources"] == len(sources)
        reloaded, _ = load_pde(str(path))
        assert reloaded.sources == pde.sources
        assert reloaded.estimates == pde.estimates
        assert reloaded.next_hops == pde.next_hops
        assert reloaded.rounding == pde.rounding
        assert reloaded.metrics.rounds == pde.metrics.rounds
        for v in graph.nodes():
            assert ([e.key() for e in reloaded.list_of(v)]
                    == [e.key() for e in pde.list_of(v)])
        # per_level is construction-time state and is deliberately dropped.
        assert reloaded.per_level is None
