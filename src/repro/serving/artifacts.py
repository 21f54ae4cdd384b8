"""Persistent, versioned artifacts for built routing structures.

Building a compact-routing hierarchy is the expensive preprocessing phase of
Corollary 4.14; serving queries from it is cheap.  Artifacts decouple the
two: a hierarchy (or a PDE result) is built once, written to disk, and any
number of serving processes load it back and answer queries *identically* to
the in-memory original (the round-trip tests assert bit-for-bit equal query
answers).

One on-disk format (a section table, mmap-able); any other version in the
magic line — including the retired monolithic-pickle format 1 — is refused
with a typed :class:`ArtifactError` before a payload byte is read::

    REPRO-ARTIFACT v2\\n                      <- magic + format version
    {header JSON}\\n                          <- kind, state version, metadata,
                                                sections: {name: {offset,
                                                length, sha256}}
    <section bytes, concatenated>             <- offsets relative to payload

The query-hot tables — node intern table, per-node pivot rows, per-(level,
node) bunch rows — are fixed-width binary records (stdlib ``struct``; see
:mod:`repro.routing.tables`) that the loader maps, bounds-checks
row by row and decodes into the build's plain dicts once, at load: a
loaded hierarchy selects levels through the same dict lookups as the
in-memory build, and a structurally bad table fails at load, not
mid-query.  The rest (graph, level sets, destination trees, skeleton
structures, metrics) lives in separate pickled sections; the trees and
the skeleton structures are materialised lazily on first access.  A
build's per-level estimates are not stored at all, since no query or
report reads them.

Every section carries its own SHA-256.  Opening an artifact validates the
header and section bounds (truncation and out-of-range offsets fail fast)
and verifies the query-hot record tables' checksums before decoding
them, so corrupt records can never answer queries; lazily-pickled
sections are verified when they first materialise,
and :func:`verify_artifact` checks every section on
demand (the CI smoke job and the corruption tests use it).  Artifacts are trusted
local files (pickle is not safe against adversarial bytes — checksums
detect corruption, not tampering).
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import os
import pickle
from dataclasses import dataclass, field
from functools import partial
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
from ..routing.tz_hierarchy import CompactRoutingHierarchy, LazyLevelData

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
    """mmap-backed reader for one artifact.

    Opening validates the header and that every section lies within the
    mapped payload (truncated files and out-of-range offsets raise
    immediately).  Section *bytes* are then served as zero-copy memoryviews
    over the mapping by :meth:`section_bytes`, checksum verified on first
    use.  :meth:`verify` checks every section's checksum.

    The reader must outlive any views handed out; the lazy hierarchy keeps
    a reference for exactly that reason.
    """

    def __init__(self, path: str, expected_kind: Optional[str] = None) -> None:
        self.path = path
        with open(path, "rb") as fh:
            self.info = _read_header(fh, path)
            if expected_kind is not None and self.info.kind != expected_kind:
                raise ArtifactError(
                    f"{path}: artifact holds a {self.info.kind!r}, expected "
                    f"{expected_kind!r}")
            self._payload_start = fh.tell()
            available = os.fstat(fh.fileno()).st_size - self._payload_start
            if available < self.info.payload_bytes:
                raise ArtifactError(
                    f"{path}: truncated payload ({available} bytes, header "
                    f"says {self.info.payload_bytes})")
            for name, entry in self.info.sections.items():
                offset, length = entry["offset"], entry["length"]
                if (not isinstance(offset, int) or not isinstance(length, int)
                        or offset < 0 or length < 0
                        or offset + length > self.info.payload_bytes):
                    raise ArtifactError(
                        f"{path}: section {name!r} is out of bounds "
                        f"(offset {offset}, length {length}, payload "
                        f"{self.info.payload_bytes} bytes)")
            self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._view = memoryview(self._mmap)
        self._verified: set = set()
        self._closed = False

    # -- sections -------------------------------------------------------
    def section_names(self) -> Tuple[str, ...]:
        return tuple(self.info.sections)

    def _entry(self, name: str) -> Dict[str, Any]:
        try:
            return self.info.sections[name]
        except KeyError:
            raise ArtifactError(
                f"{self.path}: artifact has no section {name!r}; available: "
                f"{', '.join(self.info.sections)}") from None

    def section_view(self, name: str):
        """Zero-copy view of a section, its checksum not checked."""
        entry = self._entry(name)
        start = self._payload_start + entry["offset"]
        return self._view[start:start + entry["length"]]

    def section_bytes(self, name: str):
        """Section view with its checksum verified (once per section)."""
        view = self.section_view(name)
        if name not in self._verified:
            self.verify_section(name)
        return view

    def verify_section(self, name: str) -> None:
        entry = self._entry(name)
        digest = hashlib.sha256(self.section_view(name)).hexdigest()
        if digest != entry["sha256"]:
            raise ArtifactError(
                f"{self.path}: section {name!r} checksum mismatch "
                f"({digest} != {entry['sha256']})")
        self._verified.add(name)

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
            return json.loads(bytes(self.section_bytes(name)).decode("utf-8"))
        except ArtifactError:
            raise
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"{self.path}: section {name!r} is not valid JSON: "
                f"{exc}") from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._view.release()
            try:
                self._mmap.close()
            except BufferError:
                # A section view handed out earlier is still alive; the
                # mapping is released when the last view is garbage
                # collected instead.
                pass


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

    bunch_rows: List[Optional[List[Tuple[int, float]]]] = []
    for level in range(k):
        bunches = hierarchy.level_data[level].bunches
        for node in graph_nodes:
            row = bunches.get(node)
            if row is None:
                bunch_rows.append(None)
            else:
                bunch_rows.append([(index_of(s), float(est))
                                   for s, est in row.items()])

    sections: Dict[str, bytes] = {}
    sections["meta"] = json.dumps(_hierarchy_meta(hierarchy, n),
                                  sort_keys=True).encode("utf-8")
    sections["nodes"] = intern.encode()
    sections["pivots"] = PivotRowTable.encode(n, k - 1, pivot_rows)
    sections["bunches"] = OffsetRecordTable.encode(bunch_rows)
    sections["graph"] = _dumps(hierarchy.graph.export_state())
    sections["levels"] = _dumps({
        "levels": dict(hierarchy.levels),
        "level_sets": [sorted(s, key=repr) for s in hierarchy.level_sets],
    })
    for level in range(k):
        trees = hierarchy.level_data[level].trees
        sections[f"level_trees_{level}"] = _dumps(
            None if trees is None else trees.export_state())
    sections["skeleton"] = _dumps({
        "pde_skel": (hierarchy.pde_skel.export_state()
                     if hierarchy.pde_skel is not None else None),
        "skeleton_graph": (hierarchy.skeleton_graph.export_state()
                           if hierarchy.skeleton_graph is not None else None),
        "attach_trees": (hierarchy.attach_trees.export_state()
                         if hierarchy.attach_trees is not None else None),
        "skeleton_trees": {level: trees.export_state()
                           for level, trees in hierarchy.skeleton_trees.items()},
    })
    sections["metrics"] = _dumps(hierarchy.metrics.export_state())
    return sections


class _LazyHierarchy(CompactRoutingHierarchy):
    """A hierarchy served from a mapped artifact.

    Its ``pivots``, ``pivot_dists`` and every level's ``bunches`` are the
    build's dicts, decoded at load, so it selects levels and answers exactly
    as the built original.  The per-level tree sections and the
    skeleton-mode structures are unpickled on first access and published
    whole.
    """

    _SKELETON_ATTRS = ("pde_skel", "skeleton_graph", "attach_trees",
                       "skeleton_trees")

    def __init__(self, reader: ArtifactV2Reader, **kwargs) -> None:
        super().__init__(pde_skel=None, skeleton_graph=None,
                         attach_trees=None, skeleton_trees={}, **kwargs)
        # These attributes come back through __getattr__, which only fires
        # for *missing* instance attributes — drop the placeholders.
        for name in self._SKELETON_ATTRS:
            del self.__dict__[name]
        self._artifact_reader = reader

    def __getattr__(self, name: str):
        if name in type(self)._SKELETON_ATTRS:
            self._materialise_skeleton()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _materialise_skeleton(self) -> None:
        """Decode the skeleton section, its trees checked against the graph
        each is served on (the attach trees against ``G``, the skeleton
        trees against the skeleton graph); set all four attributes or
        none."""
        reader = self._artifact_reader
        state = reader.load_pickle("skeleton")
        try:
            skeleton_graph = (WeightedGraph.from_state(state["skeleton_graph"])
                              if state["skeleton_graph"] is not None else None)
            materialised = {
                "pde_skel": (PDEResult.from_state(state["pde_skel"])
                             if state["pde_skel"] is not None else None),
                "skeleton_graph": skeleton_graph,
                "attach_trees": (
                    TreeFamily.from_state(state["attach_trees"], self.graph)
                    if state["attach_trees"] is not None else None),
                "skeleton_trees": {
                    level: TreeFamily.from_state(tree_state, skeleton_graph)
                    for level, tree_state in state["skeleton_trees"].items()},
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"{reader.path}: section 'skeleton' is "
                                f"invalid: {exc}") from exc
        self.__dict__.update(materialised)


def _labels(intern: NodeInternTable) -> Dict[int, Any]:
    """Interned id -> node label, as a dict: an id outside the table (a
    negative one too) is a ``KeyError``, never a wrapped list index."""
    return dict(enumerate(intern.nodes()))


def _decode_pivots(intern: NodeInternTable, pivot_table: PivotRowTable,
                   k: int) -> Tuple[Dict[int, Dict], Dict[int, Dict]]:
    """The build's ``pivots`` and ``pivot_dists`` dicts, from the pivot
    table (the inverse of :func:`_hierarchy_sections`)."""
    label = _labels(intern)
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


def _decode_bunches(intern: NodeInternTable, bunch_table: OffsetRecordTable,
                    level: int) -> Dict[Any, Dict[Any, float]]:
    """One level's ``bunches`` dict, from its rows of the bunch table; a
    node whose row is ``ABSENT`` (no bunch at this level) is left out."""
    label = _labels(intern)
    base = level * len(label)
    bunches: Dict[Any, Dict[Any, float]] = {}
    for index, node in label.items():
        if not bunch_table.has_row(base + index):
            continue
        try:
            bunches[node] = {label[key]: value for key, value
                             in bunch_table.row_items(base + index)}
        except KeyError as exc:
            raise RecordTableError(
                f"bunch row {base + index} names node id {exc.args[0]}, "
                f"outside the intern table of {len(label)}") from None
    return bunches


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

    The pivot and bunch tables are checksum-verified, bounds-checked and
    decoded into the build's dicts here, so query answers are identical to
    the built original and a bad row raises :class:`ArtifactError` now, not
    when a query reaches it.  The trees and the skeleton structures stay in
    the mapping until first access.
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
        if bunch_table.num_rows != k * n:
            raise ArtifactError(
                f"{path}: bunch table has {bunch_table.num_rows} rows, "
                f"expected {k * n}")
        pivots, pivot_dists = _decode_pivots(intern, pivot_table, k)
        graph = WeightedGraph.from_state(reader.load_pickle("graph"))
        levels_state = reader.load_pickle("levels")
        metrics = CongestMetrics.from_state(reader.load_pickle("metrics"))

        level_data = [
            LazyLevelData(
                h=entry["h"],
                sigma=entry["sigma"],
                skeleton_level=entry["skeleton_level"],
                overflow_count=entry["overflow_count"],
                bunches=_decode_bunches(intern, bunch_table, level),
                trees_loader=partial(_load_level_trees, reader, level, graph),
            )
            for level, entry in enumerate(meta["level_meta"])
        ]
        hierarchy = _LazyHierarchy(
            reader, graph=graph, k=k, epsilon=meta["epsilon"],
            mode=meta["mode"], l0=meta["l0"],
            levels=dict(levels_state["levels"]),
            level_sets=[set(s) for s in levels_state["level_sets"]],
            level_data=level_data, pivots=pivots, pivot_dists=pivot_dists,
            metrics=metrics)
        hierarchy.build_params = dict(meta["build_params"])
        return hierarchy, reader.info
    except RecordTableError as exc:
        reader.close()
        raise ArtifactError(f"{path}: corrupt record table: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        reader.close()
        raise ArtifactError(f"{path}: invalid hierarchy sections: {exc}") from exc
    except BaseException:
        reader.close()
        raise


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
