"""Persistent, versioned artifacts for built routing structures.

Building a compact-routing hierarchy is the expensive preprocessing phase of
Corollary 4.14; serving queries from it is cheap.  Artifacts decouple the
two: a hierarchy (or a PDE result) is built once, written to disk, and any
number of serving processes load it back and answer queries *identically* to
the in-memory original (the round-trip tests assert bit-for-bit equal query
answers).

One on-disk format (a section table); any other version in the magic
line — including the retired monolithic-pickle format 1 — is refused with
a typed :class:`ArtifactError` before a payload byte is read::

    REPRO-ARTIFACT v2\\n                      <- magic + format version
    {header JSON}\\n                          <- kind, state version, metadata,
                                                sections: {name: {offset,
                                                length, sha256}}
    <section bytes, concatenated>             <- offsets relative to payload

The query-hot tables — node intern table, per-node pivot rows, per-(level,
node) bunch rows, per-node skeleton anchor rows — are fixed-width binary
records (stdlib ``struct``; see :mod:`repro.routing.tables`), bounds-checked
row by row and decoded into the build's plain dicts.  The rest (graph, node
levels, destination trees, skeleton graph and trees, metrics) lives in
separate pickled sections.  A build's per-level estimates and the rest of
its skeleton PDE (lists, next hops, rounding) are not stored at all, since
no query or report reads them; the level sets are derived from the levels.

Loading reads the file once, verifies every section's SHA-256 and decodes
every section, every tree checked against the graph it is served on; the
file is closed before :func:`load_hierarchy` returns, and what it returns
is a plain :class:`CompactRoutingHierarchy`, the object the build makes.
A corrupt or tampered section therefore fails the load, never a query.
:func:`verify_artifact` checks every section's bounds and checksum without
decoding (the CI smoke job and the corruption tests use it).  Artifacts
are trusted local files (pickle is not safe against adversarial bytes —
checksums detect corruption, not tampering).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..congest.metrics import CongestMetrics
from ..core.pde import PDEResult
from ..graphs.weighted_graph import WeightedGraph
from ..routing.cluster_trees import TreeFamily
from ..routing.tables import (
    NodeInternTable,
    OffsetRecordTable,
    PivotRowTable,
    RecordTableError,
)
from ..routing.tz_exact import level_sets_of
from ..routing.tz_hierarchy import CompactRoutingHierarchy, _LevelData

__all__ = [
    "ArtifactError",
    "ArtifactInfo",
    "ArtifactV2Reader",
    "FORMAT_VERSION",
    "SUPPORTED_FORMATS",
    "KIND_HIERARCHY",
    "KIND_PDE",
    "write_artifact_v2",
    "artifact_info",
    "verify_artifact",
    "save_hierarchy",
    "load_hierarchy",
    "save_pde",
    "load_pde",
]

MAGIC = b"REPRO-ARTIFACT"

#: The one format this build writes and reads.
FORMAT_VERSION = 2
SUPPORTED_FORMATS = (FORMAT_VERSION,)

KIND_HIERARCHY = "routing_hierarchy"
KIND_PDE = "pde_result"

#: Pickle protocol pinned for reproducible payload bytes across interpreters.
_PICKLE_PROTOCOL = 4


class ArtifactError(RuntimeError):
    """Raised for malformed, corrupt or mismatching artifact files."""


@dataclass
class ArtifactInfo:
    """Parsed artifact header (everything except the payload).

    ``sections`` maps each section name to its
    ``{"offset", "length", "sha256"}`` entry, ``payload_bytes`` is the total
    section byte count, and ``payload_sha256`` is the SHA-256 over the
    concatenated per-section digests (a stable content identity that can be
    recomputed without hashing the payload twice).
    """

    kind: str
    format_version: int
    state_version: int
    payload_bytes: int
    payload_sha256: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    path: Optional[str] = None
    sections: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "format_version": self.format_version,
            "state_version": self.state_version,
            "payload_bytes": self.payload_bytes,
            "payload_sha256": self.payload_sha256,
            "metadata": dict(self.metadata),
            "path": self.path,
            "sections": {name: dict(entry)
                         for name, entry in self.sections.items()},
        }


# ----------------------------------------------------------------------
# header parsing
# ----------------------------------------------------------------------
def _parse_magic(magic_line: bytes, path: str) -> int:
    if not magic_line.startswith(MAGIC):
        raise ArtifactError(f"{path}: not a repro artifact (bad magic)")
    suffix = magic_line[len(MAGIC):].strip()
    version: Optional[int] = None
    if suffix.startswith(b"v"):
        try:
            version = int(suffix[1:])
        except ValueError:
            version = None
    if version not in SUPPORTED_FORMATS:
        raise ArtifactError(
            f"{path}: unsupported artifact format {magic_line!r} "
            f"(this build reads versions {list(SUPPORTED_FORMATS)})")
    return version


def _read_header(fh: io.BufferedReader, path: str) -> ArtifactInfo:
    version = _parse_magic(fh.readline(), path)
    header_line = fh.readline()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: corrupt artifact header: {exc}") from exc
    try:
        return ArtifactInfo(
            kind=header["kind"],
            format_version=version,
            state_version=header["state_version"],
            payload_bytes=header["payload_bytes"],
            payload_sha256=header["payload_sha256"],
            metadata=dict(header.get("metadata", {})),
            path=path,
            sections={name: dict(entry)
                      for name, entry in header["sections"].items()},
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"{path}: artifact header is missing {exc}") from exc


def artifact_info(path: str) -> ArtifactInfo:
    """Read only the header of an artifact (cheap; payload is not touched)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _atomic_write(path: str, blob: bytes) -> None:
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(blob)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# the offset-indexed section table
# ----------------------------------------------------------------------
def write_artifact_v2(path: str, kind: str, sections: Dict[str, bytes],
                      metadata: Optional[Dict[str, Any]] = None,
                      state_version: int = 1) -> ArtifactInfo:
    """Write named byte sections as an artifact.

    The write goes through a temporary file in the same directory followed
    by an atomic rename, so readers never observe a half-written artifact.
    Section order is preserved; offsets are relative to the payload start
    (the byte after the header line), so the header can be built before any
    payload byte is written.
    """
    section_table: Dict[str, Dict[str, Any]] = {}
    identity = hashlib.sha256()
    offset = 0
    for name, blob in sections.items():
        digest = hashlib.sha256(blob).hexdigest()
        section_table[name] = {"offset": offset, "length": len(blob),
                               "sha256": digest}
        identity.update(digest.encode("ascii"))
        offset += len(blob)
    info = ArtifactInfo(
        kind=kind,
        format_version=FORMAT_VERSION,
        state_version=state_version,
        payload_bytes=offset,
        payload_sha256=identity.hexdigest(),
        metadata=dict(metadata or {}),
        path=path,
        sections=section_table,
    )
    header = {
        "kind": info.kind,
        "state_version": info.state_version,
        "payload_bytes": info.payload_bytes,
        "payload_sha256": info.payload_sha256,
        "metadata": info.metadata,
        "sections": section_table,
    }
    _atomic_write(path, b"".join(
        [MAGIC + b" v2\n",
         json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"]
        + list(sections.values())))
    return info


class ArtifactV2Reader:
    """Reader for one artifact, its payload read into memory at open.

    Opening validates the header and that every section lies within the
    payload (truncated files and out-of-range offsets raise immediately),
    reads the payload and closes the file.  :meth:`section_bytes` returns a
    section's bytes with its checksum verified; :meth:`verify` checks every
    section's checksum.
    """

    def __init__(self, path: str, expected_kind: Optional[str] = None) -> None:
        self.path = path
        with open(path, "rb") as fh:
            self.info = _read_header(fh, path)
            if expected_kind is not None and self.info.kind != expected_kind:
                raise ArtifactError(
                    f"{path}: artifact holds a {self.info.kind!r}, expected "
                    f"{expected_kind!r}")
            for name, entry in self.info.sections.items():
                offset, length = entry["offset"], entry["length"]
                if (not isinstance(offset, int) or not isinstance(length, int)
                        or offset < 0 or length < 0
                        or offset + length > self.info.payload_bytes):
                    raise ArtifactError(
                        f"{path}: section {name!r} is out of bounds "
                        f"(offset {offset}, length {length}, payload "
                        f"{self.info.payload_bytes} bytes)")
            self._payload = fh.read(self.info.payload_bytes)
        if len(self._payload) < self.info.payload_bytes:
            raise ArtifactError(
                f"{path}: truncated payload ({len(self._payload)} bytes, "
                f"header says {self.info.payload_bytes})")

    # -- sections -------------------------------------------------------
    def section_bytes(self, name: str) -> bytes:
        """A section's bytes, its checksum verified."""
        return self.verify_section(name)

    def verify_section(self, name: str) -> bytes:
        """Check one section's checksum; returns its bytes."""
        try:
            entry = self.info.sections[name]
        except KeyError:
            raise ArtifactError(
                f"{self.path}: artifact has no section {name!r}; available: "
                f"{', '.join(self.info.sections)}") from None
        blob = self._payload[entry["offset"]:entry["offset"] + entry["length"]]
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise ArtifactError(
                f"{self.path}: section {name!r} checksum mismatch "
                f"({digest} != {entry['sha256']})")
        return blob

    def verify(self) -> ArtifactInfo:
        """Verify every section's checksum; returns the header info."""
        for name in self.info.sections:
            self.verify_section(name)
        return self.info

    def load_pickle(self, name: str) -> Any:
        try:
            return pickle.loads(self.section_bytes(name))
        except ArtifactError:
            raise
        except Exception as exc:
            raise ArtifactError(
                f"{self.path}: section {name!r} failed to deserialise: "
                f"{exc}") from exc

    def load_json(self, name: str) -> Any:
        try:
            return json.loads(self.section_bytes(name).decode("utf-8"))
        except ArtifactError:
            raise
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"{self.path}: section {name!r} is not valid JSON: "
                f"{exc}") from exc

    def close(self) -> None:
        """Drop the payload (the file itself was closed at open)."""
        self._payload = b""


def verify_artifact(path: str) -> ArtifactInfo:
    """Full integrity check (every section's bounds and SHA-256); returns
    the header info.  Raises :class:`ArtifactError` on any mismatch."""
    reader = ArtifactV2Reader(path)
    try:
        return reader.verify()
    finally:
        reader.close()


# ----------------------------------------------------------------------
# hierarchy <-> sections
# ----------------------------------------------------------------------
def _dumps(state: Any) -> bytes:
    return pickle.dumps(state, protocol=_PICKLE_PROTOCOL)


def _hierarchy_meta(hierarchy: CompactRoutingHierarchy,
                    num_nodes: int) -> Dict[str, Any]:
    return {
        "state_version": hierarchy.STATE_VERSION,
        "k": hierarchy.k,
        "epsilon": hierarchy.epsilon,
        "mode": hierarchy.mode,
        "l0": hierarchy.l0,
        "num_nodes": num_nodes,
        "level_meta": [
            {"h": data.h, "sigma": data.sigma,
             "skeleton_level": data.skeleton_level,
             "overflow_count": data.overflow_count}
            for data in hierarchy.level_data
        ],
        "build_params": dict(hierarchy.build_params),
    }


def _hierarchy_sections(hierarchy: CompactRoutingHierarchy
                        ) -> Dict[str, bytes]:
    """Encode a built hierarchy as its section family."""
    graph_nodes = hierarchy.graph.nodes()
    intern = NodeInternTable(graph_nodes)
    index_of = intern.index_of
    k = hierarchy.k
    n = len(graph_nodes)

    pivot_rows: List[List[Tuple[int, float]]] = []
    for node in graph_nodes:
        row = []
        for level in range(1, k):
            pivot = hierarchy.pivots[level][node]
            dist = hierarchy.pivot_dists[level][node]
            row.append((PivotRowTable.NO_PIVOT if pivot is None
                        else index_of(pivot), float(dist)))
        pivot_rows.append(row)

    def node_rows(rows: Dict[Any, Dict[Any, float]]
                  ) -> List[Optional[List[Tuple[int, float]]]]:
        # One record row per interned node, absent (None) if not in ``rows``.
        return [None if node not in rows else
                [(index_of(s), float(value)) for s, value in rows[node].items()]
                for node in graph_nodes]

    sections: Dict[str, bytes] = {}
    sections["meta"] = json.dumps(_hierarchy_meta(hierarchy, n),
                                  sort_keys=True).encode("utf-8")
    sections["nodes"] = intern.encode()
    sections["pivots"] = PivotRowTable.encode(n, k - 1, pivot_rows)
    sections["bunches"] = OffsetRecordTable.encode(
        row for data in hierarchy.level_data for row in node_rows(data.bunches))
    sections["anchors"] = OffsetRecordTable.encode(
        node_rows(hierarchy.skeleton_anchors or {}))
    sections["graph"] = _dumps(hierarchy.graph.export_state())
    sections["levels"] = _dumps(dict(hierarchy.levels))
    for level in range(k):
        trees = hierarchy.level_data[level].trees
        sections[f"level_trees_{level}"] = _dumps(
            None if trees is None else trees.export_state())
    sections["skeleton"] = _dumps({
        "skeleton_graph": (hierarchy.skeleton_graph.export_state()
                           if hierarchy.skeleton_graph is not None else None),
        "attach_trees": (hierarchy.attach_trees.export_state()
                         if hierarchy.attach_trees is not None else None),
        "skeleton_trees": {level: trees.export_state()
                           for level, trees in hierarchy.skeleton_trees.items()},
    })
    sections["metrics"] = _dumps(hierarchy.metrics.export_state())
    return sections


def _load_skeleton(reader: ArtifactV2Reader, graph: WeightedGraph
                   ) -> Tuple[Optional[WeightedGraph], Optional[TreeFamily],
                              Dict[int, TreeFamily]]:
    """The skeleton section's ``skeleton_graph``, ``attach_trees`` and
    ``skeleton_trees``, each tree checked against the graph it is served on
    (the attach trees against ``graph``, the skeleton trees against the
    skeleton graph)."""
    state = reader.load_pickle("skeleton")
    try:
        skeleton_graph = (WeightedGraph.from_state(state["skeleton_graph"])
                          if state["skeleton_graph"] is not None else None)
        return (
            skeleton_graph,
            (TreeFamily.from_state(state["attach_trees"], graph)
             if state["attach_trees"] is not None else None),
            {level: TreeFamily.from_state(tree_state, skeleton_graph)
             for level, tree_state in state["skeleton_trees"].items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{reader.path}: section 'skeleton' is "
                            f"invalid: {exc}") from exc


def _decode_pivots(label: Dict[int, Any], pivot_table: PivotRowTable,
                   k: int) -> Tuple[Dict[int, Dict], Dict[int, Dict]]:
    """The build's ``pivots`` and ``pivot_dists`` dicts, from the pivot
    table (the inverse of :func:`_hierarchy_sections`)."""
    pivots: Dict[int, Dict] = {level: {} for level in range(1, k)}
    pivot_dists: Dict[int, Dict] = {level: {} for level in range(1, k)}
    for index, node in label.items():
        for level, (pivot, dist) in enumerate(pivot_table.row(index), 1):
            if pivot < 0:                               # NO_PIVOT
                pivots[level][node] = None
            elif pivot in label:
                pivots[level][node] = label[pivot]
            else:
                raise RecordTableError(
                    f"pivot row {index} (level {level}) names node id "
                    f"{pivot}, outside the intern table of {len(label)}")
            pivot_dists[level][node] = dist
    return pivots, pivot_dists


def _decode_rows(label: Dict[int, Any], table: OffsetRecordTable,
                 base: int, name: str) -> Dict[Any, Dict[Any, float]]:
    """``node -> {node: value}`` from the ``len(label)`` rows of ``table``
    from ``base`` on (one level's bunches, or the skeleton anchors); a node
    whose row is ``ABSENT`` is left out."""
    rows: Dict[Any, Dict[Any, float]] = {}
    for index, node in label.items():
        if not table.has_row(base + index):
            continue
        try:
            rows[node] = {label[key]: value for key, value
                          in table.row_items(base + index)}
        except KeyError as exc:
            raise RecordTableError(
                f"{name} row {base + index} names node id {exc.args[0]}, "
                f"outside the intern table of {len(label)}") from None
    return rows


def _load_level_trees(reader: ArtifactV2Reader, level: int,
                      graph: WeightedGraph) -> Optional[TreeFamily]:
    """One level's trees, each checked against the served ``graph``."""
    name = f"level_trees_{level}"
    state = reader.load_pickle(name)
    try:
        return None if state is None else TreeFamily.from_state(state, graph)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{reader.path}: section {name!r} is invalid: "
                            f"{exc}") from exc


# ----------------------------------------------------------------------
# typed entry points
# ----------------------------------------------------------------------
def load_hierarchy(path: str) -> Tuple[CompactRoutingHierarchy, ArtifactInfo]:
    """Load a hierarchy artifact; returns ``(hierarchy, info)``.

    Every section is checksum-verified and decoded here — the record
    tables into the build's dicts, every tree checked against its graph —
    and the file is closed before this returns.  The hierarchy is the
    plain :class:`CompactRoutingHierarchy` the build makes, so its answers
    are identical to the built original's, and a bad section raises
    :class:`ArtifactError` now, not when a query reaches it.
    """
    reader = ArtifactV2Reader(path, expected_kind=KIND_HIERARCHY)
    try:
        meta = reader.load_json("meta")
        version = meta.get("state_version")
        if version != CompactRoutingHierarchy.STATE_VERSION:
            raise ArtifactError(
                f"{path}: unsupported hierarchy state version {version!r} "
                f"(expected {CompactRoutingHierarchy.STATE_VERSION})")
        intern = NodeInternTable.decode(reader.section_bytes("nodes"))
        pivot_table = PivotRowTable(reader.section_bytes("pivots"))
        bunch_table = OffsetRecordTable(reader.section_bytes("bunches"))
        anchor_table = OffsetRecordTable(reader.section_bytes("anchors"))
        k = meta["k"]
        n = meta["num_nodes"]
        if len(intern) != n:
            raise ArtifactError(
                f"{path}: intern table holds {len(intern)} nodes, meta "
                f"says {n}")
        if pivot_table.num_nodes != n or pivot_table.num_levels != k - 1:
            raise ArtifactError(
                f"{path}: pivot table shape {pivot_table.num_nodes}x"
                f"{pivot_table.num_levels} does not match n={n}, k={k}")
        for name, table, rows in (("bunch", bunch_table, k * n),
                                  ("anchor", anchor_table, n)):
            if table.num_rows != rows:
                raise ArtifactError(f"{path}: {name} table has "
                                    f"{table.num_rows} rows, expected {rows}")
        label = dict(enumerate(intern.nodes()))     # an id outside: KeyError
        pivots, pivot_dists = _decode_pivots(label, pivot_table, k)
        graph = WeightedGraph.from_state(reader.load_pickle("graph"))
        levels = dict(reader.load_pickle("levels"))
        level_sets = level_sets_of(levels, k)
        metrics = CongestMetrics.from_state(reader.load_pickle("metrics"))
        level_data = [
            _LevelData(
                h=entry["h"],
                sigma=entry["sigma"],
                bunches=_decode_rows(label, bunch_table, level * n, "bunch"),
                trees=_load_level_trees(reader, level, graph),
                skeleton_level=entry["skeleton_level"],
                overflow_count=entry["overflow_count"],
            )
            for level, entry in enumerate(meta["level_meta"])
        ]
        skeleton_graph, attach_trees, skeleton_trees = _load_skeleton(
            reader, graph)
        l0 = meta["l0"]
        anchors = _decode_rows(label, anchor_table, 0, "anchor")
        # A skeleton route climbs the anchor's attach tree from the node.
        usable = (set() if l0 is None
                  else level_sets[l0] & attach_trees.trees.keys())
        for node, row in anchors.items():
            for anchor in row.keys() - usable:
                raise RecordTableError(
                    f"anchor row of {node!r} names {anchor!r}, not a "
                    f"skeleton node with an attach tree")
        hierarchy = CompactRoutingHierarchy(
            graph=graph, k=k, epsilon=meta["epsilon"], mode=meta["mode"],
            l0=l0, levels=levels, level_sets=level_sets,
            level_data=level_data, pivots=pivots, pivot_dists=pivot_dists,
            skeleton_anchors=None if l0 is None else anchors,
            skeleton_graph=skeleton_graph,
            attach_trees=attach_trees, skeleton_trees=skeleton_trees,
            metrics=metrics)
        hierarchy.build_params = dict(meta["build_params"])
        return hierarchy, reader.info
    except RecordTableError as exc:
        raise ArtifactError(f"{path}: corrupt record table: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: invalid hierarchy sections: {exc}") from exc
    finally:
        reader.close()


def _require_supported_format(format: int) -> None:
    if format not in SUPPORTED_FORMATS:
        raise ValueError(f"format must be one of {list(SUPPORTED_FORMATS)}, "
                         f"got {format!r}")


def save_hierarchy(hierarchy: CompactRoutingHierarchy, path: str,
                   metadata: Optional[Dict[str, Any]] = None,
                   format: int = FORMAT_VERSION) -> ArtifactInfo:
    """Persist a built compact-routing hierarchy.

    ``format`` accepts only :data:`FORMAT_VERSION` (anything else raises
    ``ValueError``).  Build parameters (k, epsilon, mode, l0, seed,
    engine, ...) are merged into the header metadata, so
    :func:`artifact_info` answers "what is this file?" without touching
    the payload.
    """
    _require_supported_format(format)
    merged = {"n": hierarchy.graph.num_nodes, "m": hierarchy.graph.num_edges}
    merged.update(hierarchy.build_params)
    merged.update(metadata or {})
    merged["node_table_encoding"] = "tagged"
    return write_artifact_v2(path, KIND_HIERARCHY,
                             _hierarchy_sections(hierarchy),
                             metadata=merged,
                             state_version=hierarchy.STATE_VERSION)


def save_pde(pde: PDEResult, path: str,
             metadata: Optional[Dict[str, Any]] = None,
             format: int = FORMAT_VERSION) -> ArtifactInfo:
    """Persist a PDE result (estimates, lists, next hops, accounting)."""
    _require_supported_format(format)
    merged = {"sources": len(pde.sources), "h": pde.h, "sigma": pde.sigma,
              "epsilon": pde.epsilon}
    merged.update(metadata or {})
    meta = {"h": pde.h, "sigma": pde.sigma, "epsilon": pde.epsilon,
            "sources": len(pde.sources)}
    sections = {
        "meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
        "state": _dumps(pde.export_state()),
    }
    return write_artifact_v2(path, KIND_PDE, sections, metadata=merged)


def load_pde(path: str) -> Tuple[PDEResult, ArtifactInfo]:
    """Load a PDE artifact; returns ``(pde, info)``."""
    reader = ArtifactV2Reader(path, expected_kind=KIND_PDE)
    try:
        state = reader.load_pickle("state")
        info = reader.info
    finally:
        reader.close()
    try:
        pde = PDEResult.from_state(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: invalid PDE state: {exc}") from exc
    return pde, info
