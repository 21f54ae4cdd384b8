"""Build-side attribution from outside: timing wrappers around the public
callables of each layer, installed by this file and removed again.

Nothing under ``src/`` knows about these spans.  :func:`install` replaces a
callable by a wrapper that pushes a span (name, start, end, parent) onto an
in-memory stack; for module-level functions the name is rebound in *every*
``repro.*`` module that imported it (``from .pde import solve_pde`` creates
a second binding that patching ``repro.core.pde`` alone would miss).  A
layer's self time is its spans' duration minus the part covered by their
child spans, so nested layers (``solve_pde`` inside ``build`` inside the
harness's root span) never double count.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span name, module, owner class or None, attribute)`` — the public
#: callables whose calls delimit the layers of a build.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("graphs.distances.hop_diameter", "repro.graphs.distances", None,
     "hop_diameter"),
    ("core.source_detection.detect", "repro.core.source_detection", None,
     "detect_sources"),
    ("core.pde.level_adjacency", "repro.core.pde", None, "level_adjacency"),
    ("core.pde.fold", "repro.core.pde", None, "fold_detection_lists"),
    ("core.pde.finalize", "repro.core.pde", None, "finalize_pde_result"),
    ("core.pde.solve", "repro.core.pde", None, "solve_pde"),
    ("core.apsp", "repro.core.apsp", None, "approximate_apsp"),
    ("routing.skeleton", "repro.routing.skeleton", None,
     "skeleton_graph_from_pde"),
    ("routing.cluster_trees.build", "repro.routing.cluster_trees", None,
     "build_destination_trees"),
    ("routing.tz_hierarchy.build", "repro.routing.tz_hierarchy",
     "CompactRoutingHierarchy", "build"),
    ("routing.tables.encode", "repro.routing.tables", "NodeInternTable",
     "encode"),
    ("routing.tables.encode", "repro.routing.tables", "PivotRowTable",
     "encode"),
    ("routing.tables.encode", "repro.routing.tables", "OffsetRecordTable",
     "encode"),
    ("serving.artifacts.save", "repro.serving.artifacts", None,
     "save_hierarchy"),
    ("serving.artifacts.load", "repro.serving.artifacts", None,
     "load_hierarchy"),
    ("serving.artifacts.verify", "repro.serving.artifacts",
     "ArtifactV2Reader", "verify_section"),
)

#: The harness's own span around one whole operation; its self time is the
#: part of the operation no wrapped layer covers.
ROOT = "op"


def _detection_entries(result: Any) -> int:
    return sum(len(entries) for entries in result.lists.values())


class SpanRecorder:
    """In-memory span log plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[List[Any]] = []
        #: Extra per-name counts taken from return values at the boundary.
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable,
              on_result: Optional[Callable[[Any], int]]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                self.counts[name] = self.counts.get(name, 0) \
                    + on_result(result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for name, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            on_result = (_detection_entries
                         if attr == "detect_sources" else None)
            if owner_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, on_result)
                for holder in list(sys.modules.values()):
                    if holder is None or not getattr(
                            holder, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, original))
                            setattr(holder, key, wrapper)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self._wrap(name, raw.__func__, on_result))
            else:
                wrapped = self._wrap(name, raw, on_result)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    # -- reading ----------------------------------------------------------
    def by_name(self, clock) -> Dict[str, Dict[str, float]]:
        """``{name: {"total", "self", "calls"}}`` over all recorded spans,
        in wall seconds less the host probes that ran inside each span."""
        lengths = [end - start - clock.probing(start, end)
                   for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for length, (_, _, _, parent) in zip(lengths, self.spans):
            if parent >= 0:
                covered[parent] += length
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, _, _, _) in enumerate(self.spans):
            entry = out.setdefault(name,
                                   {"total": 0.0, "self": 0.0, "calls": 0})
            entry["total"] += lengths[index]
            entry["self"] += lengths[index] - covered[index]
            entry["calls"] += 1
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def build_layer_metrics(recorder: SpanRecorder, clock) -> Dict[str, float]:
    """The build-side per-layer metrics of one traced operation."""
    spans = recorder.by_name(clock)

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    root_total = get(ROOT, "total")
    attributed = root_total - get(ROOT, "self")
    return {
        "graphs.generate_s": get("graphs.generate", "total"),
        "graphs.distances.hop_diameter_s":
            get("graphs.distances.hop_diameter", "total"),
        "core.source_detection.detect_s":
            get("core.source_detection.detect", "self"),
        "core.source_detection.calls":
            get("core.source_detection.detect", "calls"),
        "core.source_detection.entries":
            recorder.counts.get("core.source_detection.detect", 0),
        "core.pde.level_adjacency_s": get("core.pde.level_adjacency", "self"),
        "core.pde.fold_s": get("core.pde.fold", "self"),
        "core.pde.finalize_s": get("core.pde.finalize", "self"),
        "core.pde.solve_self_s": get("core.pde.solve", "self"),
        "core.pde.calls": get("core.pde.solve", "calls"),
        "core.apsp.self_s": get("core.apsp", "self"),
        "routing.skeleton.self_s": get("routing.skeleton", "self"),
        "routing.cluster_trees.build_s":
            get("routing.cluster_trees.build", "total"),
        "routing.tz_hierarchy.build_self_s":
            get("routing.tz_hierarchy.build", "self"),
        "routing.tables.encode_s": get("routing.tables.encode", "total"),
        "serving.artifacts.save_s": get("serving.artifacts.save", "self"),
        "serving.artifacts.load_s": get("serving.artifacts.load", "self"),
        "serving.artifacts.verify_s":
            get("serving.artifacts.verify", "total"),
        "trace.build_total_s": root_total,
        "trace.build_attributed_share":
            attributed / root_total if root_total else 0.0,
    }
