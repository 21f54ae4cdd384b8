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
:mod:`repro.routing.tables`) that the loader ``mmap``\\ s and reads by offset
arithmetic: nothing is deserialised until a query touches it, first answers
arrive after reading only the pages they need, and co-located workers
serving the same artifact share the physical pages through the OS page
cache instead of holding N private copies.  Construction-time state
(per-level estimates, destination trees, skeleton structures) lives in
separate pickled sections materialised lazily on first access.

Every section carries its own SHA-256.  Opening an artifact validates the
header and section bounds (truncation and out-of-range offsets fail fast)
and verifies the query-hot record tables' checksums — a sequential hash
over the mapping, no deserialisation — so corrupt records can never answer
queries; lazily-pickled sections are verified when they first materialise,
and :func:`verify_artifact` checks every section on
demand (the CI smoke job and the corruption tests use it).  Artifacts are trusted
local files (pickle is not safe against adversarial bytes — checksums
detect corruption, not tampering).

Per-shard **sub-artifacts** (:func:`write_shard_artifacts`) slice an
artifact by *source node*: shard ``w`` keeps the bunch rows (and the
destination trees they can reach) only for sources with
``stable_node_hash(source) % workers == w``, and drops the construction-time
aux sections entirely.  A sharded front-end whose partitioner routes every
query to its source's shard (``partitioner="hash_source"``) answers
identically to full-artifact serving while each worker maps only its slice.
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
from ..core.build_runner import run_tasks
from ..core.pde import PDEResult
from ..graphs.weighted_graph import WeightedGraph
from ..routing.cluster_trees import TreeFamily
from ..routing.tables import (
    ColumnarQueryKernel,
    InternedBunchLevel,
    InternedPivotView,
    NodeInternTable,
    OffsetRecordTable,
    PivotRowBackend,
    PivotRowTable,
    RecordTableError,
)
from ..routing.tz_hierarchy import CompactRoutingHierarchy, LazyLevelData
from .workloads import stable_node_hash

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
    "write_shard_artifacts",
    "shard_artifact_path",
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
    over the mapping: :meth:`section_view` for the fixed-width record
    tables that are read incrementally by the query path, and
    :meth:`section_bytes` (checksum verified on first materialisation) for
    sections that are decoded whole.  :meth:`verify` checks every
    section's checksum.

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

    def has_section(self, name: str) -> bool:
        return name in self.info.sections

    def _entry(self, name: str) -> Dict[str, Any]:
        try:
            return self.info.sections[name]
        except KeyError:
            raise ArtifactError(
                f"{self.path}: artifact has no section {name!r}; available: "
                f"{', '.join(self.info.sections)}") from None

    def section_view(self, name: str):
        """Zero-copy view of a section (no checksum; used for the record
        tables the query path reads incrementally — :func:`verify_artifact`
        covers them on demand)."""
        entry = self._entry(name)
        start = self._payload_start + entry["offset"]
        return self._view[start:start + entry["length"]]

    def section_bytes(self, name: str):
        """Section view with its checksum verified (once per section)."""
        view = self.section_view(name)
        if name not in self._verified:
            self.verify_section(name)
        return view

    #: Advice names accepted by :meth:`advise`, mapped to mmap flag names.
    _ADVICE_FLAGS = {"willneed": "MADV_WILLNEED",
                     "sequential": "MADV_SEQUENTIAL",
                     "random": "MADV_RANDOM"}

    def advise(self, name: str, advice: str = "willneed") -> bool:
        """Readahead hint for one section's pages; ``True`` if applied.

        Bulk kernel scans walk the record sections front to back, so the
        loader issues ``WILLNEED`` on them at open.  Strictly a hint: on
        platforms without ``mmap.madvise`` (or without the requested flag)
        this is a no-op returning ``False``, and failures of the syscall
        itself are swallowed — answers never depend on it.
        """
        try:
            flag_name = self._ADVICE_FLAGS[advice]
        except KeyError:
            raise ValueError(f"unknown madvise advice {advice!r}; expected "
                             f"one of {sorted(self._ADVICE_FLAGS)}") from None
        flag = getattr(mmap, flag_name, None)
        if flag is None or not hasattr(self._mmap, "madvise"):
            return False
        entry = self._entry(name)
        start = self._payload_start + entry["offset"]
        # madvise requires a page-aligned start: round down and widen the
        # length by the same delta, clamped to the mapping.
        page = mmap.PAGESIZE
        aligned = start - (start % page)
        length = min(entry["length"] + (start - aligned),
                     len(self._mmap) - aligned)
        if length <= 0:
            return False
        try:
            self._mmap.madvise(flag, aligned, length)
        except (OSError, ValueError):
            return False
        return True

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
        "sub_artifact": None,
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
        data = hierarchy.level_data[level]
        sections[f"level_aux_{level}"] = _dumps({
            "sources": sorted(data.sources, key=repr),
            "estimates": {v: dict(row) for v, row in data.estimates.items()},
            "next_pivot": dict(data.next_pivot),
            "next_pivot_dist": dict(data.next_pivot_dist),
        })
        trees = data.trees
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
    """A hierarchy whose heavy sections materialise on first access.

    Bunches and pivot rows are mmap-backed mapping views (zero-copy; the
    query hot path reads fixed-width records straight from the page
    cache); per-level aux/tree sections and the skeleton-mode structures
    unpickle lazily.  Query answers are identical to the eagerly-loaded
    hierarchy — the views implement the exact mapping contract the query
    code already uses.
    """

    _SKELETON_ATTRS = ("pde_skel", "skeleton_graph", "attach_trees",
                       "skeleton_trees")

    def __init__(self, reader: ArtifactV2Reader, **kwargs) -> None:
        super().__init__(pde_skel=None, skeleton_graph=None, attach_trees=None,
                         skeleton_trees={}, **kwargs)
        # The skeleton attributes come back through __getattr__, which only
        # fires for *missing* instance attributes — drop the placeholders.
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


def _load_level_aux(reader: ArtifactV2Reader, level: int) -> Dict[str, Any]:
    name = f"level_aux_{level}"
    if not reader.has_section(name):
        raise ArtifactError(
            f"{reader.path}: section {name!r} is not present — per-shard "
            f"sub-artifacts drop construction-time aux sections; load the "
            f"full artifact to export or report on this hierarchy")
    state = reader.load_pickle(name)
    return {
        "sources": set(state["sources"]),
        "estimates": {v: dict(row) for v, row in state["estimates"].items()},
        "next_pivot": dict(state["next_pivot"]),
        "next_pivot_dist": dict(state["next_pivot_dist"]),
    }


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

    The hierarchy comes back mmap-backed and lazy: query answers are
    identical to the built original, but tables page in on demand.
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
        # section_bytes (not section_view): the record tables are verified
        # once at open — a sequential hash over the mapping, no
        # deserialisation — so a flipped byte cannot silently answer
        # queries; afterwards the views stay zero-copy.
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
        graph = WeightedGraph.from_state(reader.load_pickle("graph"))
        levels_state = reader.load_pickle("levels")
        metrics = CongestMetrics.from_state(reader.load_pickle("metrics"))

        level_data = [
            LazyLevelData(
                bunches=InternedBunchLevel(bunch_table, intern, level, n),
                h=entry["h"],
                sigma=entry["sigma"],
                skeleton_level=entry["skeleton_level"],
                overflow_count=entry["overflow_count"],
                aux_loader=partial(_load_level_aux, reader, level),
                trees_loader=partial(_load_level_trees, reader, level, graph),
            )
            for level, entry in enumerate(meta["level_meta"])
        ]
        pivots = {level: InternedPivotView.pivots(pivot_table, intern, level - 1)
                  for level in range(1, k)}
        pivot_dists = {
            level: InternedPivotView.distances(pivot_table, intern, level - 1)
            for level in range(1, k)}

        hierarchy = _LazyHierarchy(
            reader,
            graph=graph, k=k, epsilon=meta["epsilon"], mode=meta["mode"],
            l0=meta["l0"], levels=dict(levels_state["levels"]),
            level_sets=[set(s) for s in levels_state["level_sets"]],
            level_data=level_data, pivots=pivots, pivot_dists=pivot_dists,
            metrics=metrics)
        hierarchy.build_params = dict(meta["build_params"])
        hierarchy._pivot_backend = PivotRowBackend(pivot_table, intern)
        hierarchy._columnar_kernel = ColumnarQueryKernel(
            intern, pivot_table, bunch_table, k)
        # Bulk kernel scans walk the record sections front to back; hint
        # the kernel so readahead stages the pages before the first batch.
        hierarchy._madvise_sections = tuple(
            name for name in ("nodes", "pivots", "bunches")
            if reader.advise(name, "willneed"))
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


# ----------------------------------------------------------------------
# per-shard sub-artifacts
# ----------------------------------------------------------------------
def shard_artifact_path(artifact_path: str, shard: int, workers: int) -> str:
    """Canonical path of one shard's sub-artifact."""
    return f"{artifact_path}.shard{shard}of{workers}"


def _decode_slicing_state(reader, num_workers: int) -> Dict[str, Any]:
    """Decode everything shard slicing needs from an open reader."""
    meta = reader.load_json("meta")
    intern = NodeInternTable.decode(reader.section_bytes("nodes"))
    # Copy the bunch section out of the mapping: the slicer reads every
    # row anyway, and holding no view lets the reader close cleanly.
    bunch_table = OffsetRecordTable(bytes(reader.section_bytes("bunches")))
    k = meta["k"]
    return {
        "meta": meta,
        "intern": intern,
        "bunch_table": bunch_table,
        "k": k,
        "n": meta["num_nodes"],
        "owner": [stable_node_hash(node) % num_workers
                  for node in intern.nodes()],
        "tree_states": [reader.load_pickle(f"level_trees_{level}")
                        for level in range(k)],
        "copied": {name: bytes(reader.section_bytes(name))
                   for name in ("nodes", "pivots", "graph", "levels",
                                "skeleton", "metrics")},
        "metadata": dict(reader.info.metadata),
        "state_version": reader.info.state_version,
    }


def _write_one_shard_slice(shard: int, shared: Dict[str, Any]) -> str:
    """Slice and write one shard's sub-artifact (a ``run_tasks`` task).

    The parent artifact is decoded once per process, by whichever task gets
    there first — nothing heavy is pickled to a pool worker.
    """
    artifact_path, num_workers = shared["artifact_path"], shared["num_workers"]
    if "state" not in shared:
        reader = ArtifactV2Reader(artifact_path, expected_kind=KIND_HIERARCHY)
        try:
            shared["state"] = _decode_slicing_state(reader, num_workers)
        finally:
            reader.close()
    state = shared["state"]
    meta, intern = state["meta"], state["intern"]
    bunch_table, k, n = state["bunch_table"], state["k"], state["n"]
    owner, tree_states, copied = (state["owner"], state["tree_states"],
                                  state["copied"])

    bunch_rows: List[Optional[List[Tuple[int, float]]]] = []
    keep_roots: List[set] = [set() for _ in range(k)]
    for level in range(k):
        base = level * n
        for index in range(n):
            row_index = base + index
            if owner[index] == shard and bunch_table.has_row(row_index):
                items = bunch_table.row_items(row_index)
                bunch_rows.append(items)
                keep_roots[level].update(src for src, _ in items)
            else:
                bunch_rows.append(None)

    provenance = {"shard": shard, "workers": num_workers,
                  "partitioner": shared["partitioner"]}
    sub_meta = dict(meta)
    sub_meta["sub_artifact"] = provenance

    sections: Dict[str, bytes] = {}
    sections["meta"] = json.dumps(sub_meta, sort_keys=True).encode("utf-8")
    sections["nodes"] = copied["nodes"]
    sections["pivots"] = copied["pivots"]
    sections["bunches"] = OffsetRecordTable.encode(bunch_rows)
    sections["graph"] = copied["graph"]
    sections["levels"] = copied["levels"]
    for level in range(k):
        tree_state = tree_states[level]
        if tree_state is None:
            kept = None
        else:
            roots = {intern.node_at(i) for i in keep_roots[level]}
            kept = [entry for entry in tree_state if entry["root"] in roots]
        sections[f"level_trees_{level}"] = _dumps(kept)
        # level_aux_<level> deliberately absent: construction-time
        # state a serving worker never reads.
    sections["skeleton"] = copied["skeleton"]
    sections["metrics"] = copied["metrics"]

    out_path = shard_artifact_path(artifact_path, shard, num_workers)
    metadata = dict(state["metadata"])
    metadata["sub_artifact"] = provenance
    write_artifact_v2(out_path, KIND_HIERARCHY, sections, metadata=metadata,
                      state_version=state["state_version"])
    return out_path


def write_shard_artifacts(artifact_path: str, num_workers: int,
                          partitioner: str = "hash_source",
                          build_workers: int = 1) -> List[str]:
    """Materialise per-shard sub-artifacts of a hierarchy artifact.

    Shard ``w`` owns the source nodes with ``stable_node_hash(node) %
    num_workers == w`` (exactly the assignment of the ``hash_source``
    partitioner, which is why it is the only supported ``partitioner``):
    its sub-artifact keeps the full intern/pivot tables, graph and
    skeleton sections (they are read per *target*, which can be any node),
    slices the bunch table down to the owned sources' rows, keeps only the
    destination trees those rows can select, and drops the
    construction-time aux sections entirely.  A worker serving only
    queries whose source it owns answers identically to full-artifact
    serving while loading a fraction of the table bytes.

    The slices are one task each on the build runner
    (:func:`~repro.core.build_runner.run_tasks`), so ``build_workers > 1``
    slices on a pool (each worker opens the parent artifact by path); the
    fleet respawn path uses this so regenerating a missing slice does not
    serialise on one core while siblings cover.  Slice contents are
    identical either way.

    Returns the sub-artifact paths in shard order (written atomically,
    overwriting earlier slices).
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if partitioner != "hash_source":
        raise ValueError(
            f"sub-artifact slicing is defined for the source-hash "
            f"assignment only (partitioner='hash_source'), got "
            f"{partitioner!r}")
    shared = {"artifact_path": artifact_path, "num_workers": num_workers,
              "partitioner": partitioner}
    return list(run_tasks(_write_one_shard_slice,
                          [(f"shard:{shard}", shard)
                           for shard in range(num_workers)],
                          shared, build_workers))
