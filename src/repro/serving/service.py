"""The routing service facade: build-or-load, query, batch, cache.

This is the deployment story for Corollary 4.14: the hierarchy's expensive
preprocessing runs once (or is loaded from a persisted artifact), after
which :class:`RoutingService` answers ``route`` / ``distance_estimate`` /
full-path queries — one at a time or batched — through an LRU result
cache.  Everything the service does is observable through its
:class:`~repro.serving.cache.ServingStats`.

Layering (top to bottom)::

    RoutingService          query API, result caches, stats
      CompactRoutingHierarchy   tables/labels, pivot-row cache (batch hook)
        artifacts               persistence (build once, serve anywhere)

Every query — single or batched, route or distance — goes through one
routine (:meth:`RoutingService._answer`): result cache, then the
hierarchy, once per *distinct* pair, fanning the result out to every
duplicate.  Batched queries additionally amortize label lookups: all of a
batch's misses reach the hierarchy as one call, which resolves each distinct
target's per-level pivot row once (see
:meth:`~repro.routing.tz_hierarchy.CompactRoutingHierarchy.pivot_row`).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import NULL_REGISTRY, make_registry
from ..routing.compact import build_compact_routing
from ..routing.tables import RouteTrace
from ..routing.tz_hierarchy import CompactRoutingHierarchy
from .artifacts import (
    ArtifactError,
    ArtifactInfo,
    artifact_info,
    load_hierarchy,
    save_hierarchy,
)
from .cache import LRUCache, ServingStats
from .config import BuildConfig, CacheConfig
from .registry import get_query_kernel, register_query_kernel

__all__ = ["RoutingService", "build_or_load_service", "answer_batch",
           "resolve_query_kernel"]

_Pair = Tuple[Hashable, Hashable]

#: Sentinel distinguishing "not cached" from legitimately cached falsy values.
_MISS = object()

#: Sentinel for "key absent from an artifact header" in freshness checks.
_UNSET = object()


# ======================================================================
# query kernels (batch probing strategy, selected by name)
# ======================================================================
@register_query_kernel("dict")
def _dict_kernel(hierarchy: CompactRoutingHierarchy) -> str:
    """The per-pair path: label-keyed dict probes, always available."""
    return "dict"


@register_query_kernel("auto")
@register_query_kernel("columnar")
def _columnar_kernel(hierarchy: CompactRoutingHierarchy) -> str:
    """Array-native batch kernel over v2 record tables whenever the
    backing store has them (a loaded artifact), the dict path otherwise
    (an in-memory build).  ``auto`` and ``columnar`` are this one rule."""
    return "columnar" if hierarchy.has_columnar_kernel() else "dict"


def resolve_query_kernel(kernel: str,
                         hierarchy: CompactRoutingHierarchy) -> str:
    """Resolve a kernel selector against a hierarchy's backing store.

    Returns the *concrete* kernel name (``"dict"`` or ``"columnar"``) that
    batch queries will actually use; unknown selectors raise with the
    registered names.
    """
    return get_query_kernel(kernel)(hierarchy)


class RoutingService:
    """Serve routing queries from a built or loaded compact-routing hierarchy.

    Parameters
    ----------
    hierarchy:
        The underlying compact-routing hierarchy.
    stats:
        Optional pre-populated stats object (used by the factory
        constructors to carry build/load timings into the service).
    cache_config:
        The result caches' size, as a
        :class:`~repro.serving.config.CacheConfig`.  ``capacity`` applies to
        *each* LRU result cache (routes and distances are cached separately
        since route traces are much heavier); ``0`` disables result caching
        — the benchmarks use this as the cold baseline.  Defaults to
        ``CacheConfig()``.
    kernel:
        Query-kernel selector (``"dict"`` / ``"columnar"`` / ``"auto"``,
        resolved through the query-kernel registry).  Controls how batch
        queries probe the routing tables; answers are identical across
        kernels, so ``"auto"`` (columnar whenever the backing store is a
        loaded mmap artifact) is safe everywhere.
    telemetry:
        When true, per-stage spans (cache probes, kernel batches, group
        decodes) record into a live
        :class:`~repro.obs.metrics.MetricsRegistry`, exported through
        ``query_stats().extra["telemetry"]``.  Off by default: the no-op
        registry keeps the hot path allocation-free.
    metrics:
        An explicit registry to record into (overrides ``telemetry``;
        the factory constructors use it to capture build/load spans that
        happen before the service object exists).
    """

    def __init__(self, hierarchy: CompactRoutingHierarchy,
                 stats: Optional[ServingStats] = None,
                 cache_config: Optional[CacheConfig] = None,
                 kernel: str = "auto", telemetry: bool = False,
                 metrics=None) -> None:
        if cache_config is None:
            cache_config = CacheConfig()
        self.hierarchy = hierarchy
        self.cache_config = cache_config
        self.kernel = kernel
        self.metrics = metrics if metrics is not None \
            else make_registry(telemetry)
        self._kernel_active = resolve_query_kernel(kernel, hierarchy)
        hierarchy.set_metrics_registry(self.metrics)
        self.stats = stats if stats is not None else ServingStats()
        self.route_cache = LRUCache(cache_config.capacity)
        self.distance_cache = LRUCache(cache_config.capacity)
        self.stats.extra.setdefault("n", hierarchy.graph.num_nodes)
        self.stats.extra.setdefault("k", hierarchy.k)
        self.stats.extra.setdefault("mode", hierarchy.mode)
        self.stats.extra.setdefault("kernel_requested", kernel)
        self.stats.extra.setdefault("kernel_active", self._kernel_active)

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def build(cls, graph: WeightedGraph, k: int = 3, epsilon: float = 0.25,
              seed: int = 0, mode: str = "auto",
              cache_config: Optional[CacheConfig] = None,
              kernel: str = "auto", telemetry: bool = False,
              **build_kwargs) -> "RoutingService":
        """Build a hierarchy from scratch and wrap it in a service.

        ``build_kwargs`` forwards to
        :func:`~repro.routing.compact.build_compact_routing` —
        ``build_workers=N`` selects the multi-process parallel build
        (identical artifact, telemetry spans recorded when ``telemetry``
        is on).
        """
        stats = ServingStats()
        metrics = make_registry(telemetry)
        start = time.perf_counter()
        with metrics.span("hierarchy_build"):
            hierarchy = build_compact_routing(graph, k=k, epsilon=epsilon,
                                              seed=seed, mode=mode,
                                              registry=metrics,
                                              **build_kwargs)
        stats.build_seconds = time.perf_counter() - start
        return cls(hierarchy, stats=stats, cache_config=cache_config,
                   kernel=kernel, metrics=metrics)

    @classmethod
    def load(cls, path: str, cache_config: Optional[CacheConfig] = None,
             kernel: str = "auto", telemetry: bool = False,
             ) -> "RoutingService":
        """Load a persisted hierarchy artifact and serve from it.

        The file is mapped and its tables page in lazily; the stats extras
        (``artifact_format`` / ``artifact_load`` / ``loaded_table_bytes``)
        record how this service got its tables, so ``repro-serve --json``
        can report it.
        """
        stats = ServingStats()
        metrics = make_registry(telemetry)
        start = time.perf_counter()
        with metrics.span("artifact_load"):
            hierarchy, info = load_hierarchy(path)
        stats.load_seconds = time.perf_counter() - start
        stats.artifact_bytes = info.payload_bytes
        stats.extra["artifact_path"] = path
        stats.extra["artifact_format"] = info.format_version
        stats.extra["artifact_load"] = "mmap"
        stats.extra["loaded_table_bytes"] = info.payload_bytes
        sub = info.metadata.get("sub_artifact")
        if sub is not None:
            stats.extra["sub_artifact_shard"] = sub.get("shard")
        stats.extra["madvise_sections"] = list(hierarchy._madvise_sections)
        return cls(hierarchy, stats=stats, cache_config=cache_config,
                   kernel=kernel, metrics=metrics)

    def save(self, path: str, metadata: Optional[Dict[str, object]] = None,
             format: int = 2) -> ArtifactInfo:
        """Persist the underlying hierarchy as a versioned artifact
        (``format`` accepts only ``2``, see
        :func:`~repro.serving.artifacts.save_hierarchy`)."""
        return save_hierarchy(self.hierarchy, path, metadata=metadata,
                              format=format)

    # ==================================================================
    # single queries
    # ==================================================================
    def _validate_node(self, node: Hashable) -> None:
        if not self.hierarchy.graph.has_node(node):
            raise ValueError(f"unknown node {node!r}")

    def distance_estimate(self, source: Hashable, target: Hashable) -> float:
        """Distance estimate for one pair (cached)."""
        return self._answer("distance", [(source, target)], batched=False)[0]

    def route(self, source: Hashable, target: Hashable) -> RouteTrace:
        """Route one pair, returning the full :class:`RouteTrace` (cached)."""
        return self._answer("route", [(source, target)], batched=False)[0]

    def full_path(self, source: Hashable, target: Hashable) -> List[Hashable]:
        """The routed node sequence from ``source`` to ``target``."""
        return self.route(source, target).path

    # ==================================================================
    # batched queries
    # ==================================================================
    def distance_batch(self, pairs: Sequence[_Pair]) -> List[float]:
        """Distance estimates for a batch of pairs.

        Each distinct pair is computed at most once; distinct targets
        resolve their pivot rows once via the hierarchy's batch hook.
        """
        return self._answer("distance", list(pairs), batched=True)

    def route_batch(self, pairs: Sequence[_Pair]) -> List[RouteTrace]:
        """Route a batch of pairs; duplicates are served from one computation."""
        return self._answer("route", list(pairs), batched=True)

    def _answer(self, kind: str, pairs: List[_Pair], batched: bool) -> List:
        """Result cache, then the hierarchy — the one probe.

        Probes run once per *distinct* pair.  A batch sends all its misses
        to the hierarchy as one call through the active query kernel, counts
        as a batch and times its two halves under ``cache_probe`` /
        ``cache_miss_fill``; a single query asks the hierarchy per pair and
        records neither.
        """
        for s, t in pairs:
            self._validate_node(s)
            self._validate_node(t)
        route = kind == "route"
        cache = self.route_cache if route else self.distance_cache
        stats, hierarchy = self.stats, self.hierarchy
        stats.queries += len(pairs)
        if route:
            stats.route_queries += len(pairs)
        else:
            stats.distance_queries += len(pairs)
        metrics = NULL_REGISTRY
        if batched:
            metrics = self.metrics
            stats.batches += 1
            stats.batched_queries += len(pairs)

        resolved: Dict[_Pair, Any] = {}     # _MISS while a pair is pending
        misses: List[_Pair] = []
        with metrics.span("cache_probe"):
            for key in pairs:
                if key in resolved:
                    continue
                value = cache.get(key, _MISS)
                if value is not _MISS:
                    stats.cache_hits += 1
                else:
                    stats.cache_misses += 1
                    misses.append(key)
                resolved[key] = value
        if misses:
            with metrics.span("cache_miss_fill"):
                if batched:
                    answers = (hierarchy.route_batch if route
                               else hierarchy.distance_batch)(
                        misses, kernel=self._kernel_active)
                else:
                    answer = hierarchy.route if route else hierarchy.distance
                    answers = [answer(*key) for key in misses]
                for key, value in zip(misses, answers):
                    resolved[key] = value
                    cache.put(key, value)
        return [resolved[key] for key in pairs]

    # ==================================================================
    # lifecycle (QueryBackend contract)
    # ==================================================================
    def close(self) -> None:
        """Release the backend.  A local service holds no external
        resources, so this is deliberately a no-op and the service stays
        queryable (unlike the sharded backend, whose workers are gone after
        close) — closing exists so one teardown path works for any
        :class:`QueryBackend`.  Idempotent."""

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ==================================================================
    # introspection
    # ==================================================================
    @property
    def graph(self) -> WeightedGraph:
        """The graph the underlying hierarchy was built on."""
        return self.hierarchy.graph

    @property
    def num_nodes(self) -> int:
        return self.hierarchy.graph.num_nodes

    def query_stats(self) -> ServingStats:
        """This service's counters (the QueryBackend stats accessor).

        Refreshes the hierarchy-level snapshots (pivot-row cache counters,
        columnar-kernel group stats) into ``stats.extra`` so readers get
        current values without poking hierarchy internals.
        """
        self.stats.extra["pivot_row_cache"] = \
            self.hierarchy.pivot_row_cache_info()
        kern = self.hierarchy.query_kernel(self._kernel_active)
        if kern is not None:
            self.stats.extra["kernel_stats"] = dict(kern.stats)
        if self.metrics.enabled:
            self.stats.extra["telemetry"] = self.metrics.export()
        return self.stats

    def describe(self) -> str:
        return self.stats.describe()

    def __repr__(self) -> str:
        return (f"RoutingService(n={self.num_nodes}, k={self.hierarchy.k}, "
                f"mode={self.hierarchy.mode!r}, "
                f"cache={self.route_cache.capacity})")


# ======================================================================
# config-driven build-or-load (the v2 primitive behind open_service)
# ======================================================================
def build_or_load_service(path: str, graph: Optional[WeightedGraph] = None,
                          build: Optional[BuildConfig] = None,
                          cache: Optional[CacheConfig] = None,
                          save: bool = True,
                          metadata: Optional[Dict[str, Any]] = None,
                          kernel: str = "auto", telemetry: bool = False,
                          **build_kwargs) -> RoutingService:
    """Load the artifact at ``path`` if it exists, else build (and save).

    This is the serving workflow: the first process to reference an
    artifact pays the preprocessing cost, every later one just loads.
    ``graph`` is only required on the build path.  When a graph (a build
    intent) *is* provided and the existing artifact was built with
    parameters differing from ``build``, the mismatch raises
    :class:`~repro.serving.artifacts.ArtifactError` instead of silently
    serving stale answers; without a graph the artifact is loaded as-is.

    Every requested parameter must be *present* in the artifact header and
    equal: a key the header never persisted (an artifact predating the
    parameter, or saved by some other writer) cannot be verified, so it is
    treated as a mismatch rather than silently served as fresh.

    The header's ``engine`` must be ``"batched"``, the only engine a
    service builds with.  ``metadata`` is merged into the artifact header
    on the build path —
    :func:`~repro.serving.backend.open_service` records the originating
    ``ServingConfig`` there as provenance.
    """
    build = build if build is not None else BuildConfig()
    cache = cache if cache is not None else CacheConfig()
    if os.path.exists(path):
        if graph is not None:
            requested = {"k": build.k, "epsilon": build.epsilon,
                         "seed": build.seed,
                         "n": graph.num_nodes, "m": graph.num_edges,
                         "engine": "batched", "mode": build.mode}
            header = artifact_info(path).metadata
            stale = {}
            for key, want in requested.items():
                if key == "mode":
                    # "auto" resolves to a concrete mode at build time;
                    # compare request against what was *requested* when
                    # the artifact was built, falling back to the
                    # resolved mode for explicitly-built artifacts.
                    have = header.get("requested_mode",
                                      header.get("mode", _UNSET))
                else:
                    have = header.get(key, _UNSET)
                if have is _UNSET:
                    stale[key] = ("<absent from artifact header>", want)
                elif have != want:
                    stale[key] = (have, want)
            if stale:
                raise ArtifactError(
                    f"artifact {path!r} was built with different "
                    f"parameters than requested: "
                    + ", ".join(f"{key}={have!r} (requested {want!r})"
                                for key, (have, want) in sorted(stale.items()))
                    + "; delete the artifact to rebuild")
        return RoutingService.load(path, cache_config=cache, kernel=kernel,
                                   telemetry=telemetry)
    if graph is None:
        raise ValueError(f"artifact {path!r} does not exist and no graph "
                         "was provided to build from")
    build_kwargs.setdefault("build_workers", build.build_workers)
    service = RoutingService.build(
        graph, k=build.k, epsilon=build.epsilon, seed=build.seed,
        mode=build.mode, cache_config=cache,
        kernel=kernel, telemetry=telemetry, **build_kwargs)
    if save:
        info = service.save(path, metadata=metadata)
        service.stats.artifact_bytes = info.payload_bytes
        service.stats.extra["artifact_path"] = path
        service.stats.extra["artifact_format"] = info.format_version
        service.stats.extra["artifact_load"] = "built"
    return service


# ======================================================================
# module-level query execution (picklable: usable from worker processes)
# ======================================================================
def answer_batch(service: RoutingService, kind: str,
                 pairs: Sequence[_Pair]) -> List:
    """Dispatch one batch to the service by query kind.

    The shared kind registry for the CLI and the sharded front-end's
    workers.
    """
    if kind == "route":
        return service.route_batch(pairs)
    if kind == "distance":
        return service.distance_batch(pairs)
    raise ValueError(f"kind must be route or distance, got {kind!r}")
