"""Serving API v2: the :class:`QueryBackend` protocol and ``open_service``.

Pre-redesign, local and sharded serving were two divergent front-ends:
``RoutingService`` and ``ShardedRoutingService`` shared no interface, and
callers picked one explicitly, threading long kwargs chains into each.  The
v2 surface collapses that into one typed contract and one factory:

* :class:`QueryBackend` — the protocol every serving backend satisfies:
  ``route_batch`` / ``distance_batch`` / ``query_stats`` / ``close`` plus
  context management.  Callers written against it work identically over a
  local service, a sharded front-end, or anything downstream registers.
* :func:`open_service` — the single entry point: hand it a
  :class:`~repro.serving.config.ServingConfig` (plus optionally an
  in-memory graph) and get back a ready :class:`QueryBackend`; the config's
  ``workers`` field selects the local or sharded implementation, its
  :class:`~repro.serving.config.CacheConfig` sizes the result caches,
  and its artifact path drives the build-or-load flow
  (with the full config recorded in the artifact header as provenance).

The answers a backend gives depend only on the built hierarchy — never on
which backend answers or how queries are cached or scattered.
The v2 acceptance tests pin this: every ``open_service`` backend answers
list-for-list identically to a directly constructed local
``RoutingService`` on every workload shape.
"""

from __future__ import annotations

import os
from typing import (
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..graphs.weighted_graph import WeightedGraph
from .cache import ServingStats
from .config import CacheConfig, ServingConfig
from .service import RoutingService, build_or_load_service
from .sharded import ShardedRoutingService
from .specs import parse_graph_spec

__all__ = ["QueryBackend", "open_service"]

_Pair = Tuple[Hashable, Hashable]


@runtime_checkable
class QueryBackend(Protocol):
    """What every serving backend can do, regardless of deployment shape.

    The batched calls are the primary query surface; ``query_stats``
    returns the backend-wide aggregate counters (merged across workers for
    sharded backends); ``graph`` exposes the served graph so callers can
    generate workloads against any backend; and ``close`` releases
    whatever the backend holds — always safe to call, idempotent, and
    implied by leaving the backend's ``with`` block.

    Concrete backends carry extras beyond the protocol (single-query
    helpers and artifact persistence on the local service, worker
    introspection on the sharded front-end); code meant to
    work over *any* backend must stick to the protocol members.
    """

    @property
    def graph(self) -> Optional[WeightedGraph]:
        """The graph this backend serves (``None`` when not known, e.g. a
        hand-constructed sharded front-end given only an artifact path)."""
        ...

    def route_batch(self, pairs: Sequence[_Pair]) -> List:
        """Route a batch of pairs; results in input order."""
        ...

    def distance_batch(self, pairs: Sequence[_Pair]) -> List[float]:
        """Distance estimates for a batch of pairs; results in input order."""
        ...

    def query_stats(self) -> ServingStats:
        """Aggregate operational counters for this backend."""
        ...

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...

    def __enter__(self) -> "QueryBackend":
        ...

    def __exit__(self, exc_type, exc, tb) -> None:
        ...


def open_service(config: ServingConfig,
                 graph: Optional[WeightedGraph] = None) -> QueryBackend:
    """Open the serving backend a :class:`ServingConfig` describes.

    The one factory behind every serving entry point (CLI, experiment
    runners, benchmarks):

    * ``workers == 1`` returns a local :class:`RoutingService` —
      built in memory (no artifact path), or built-or-loaded from
      ``config.artifact_path`` with the freshness contract of
      :func:`~repro.serving.service.build_or_load_service`;
    * ``config.connect`` set returns a
      :class:`~repro.serving.session.ClientSession` speaking the wire
      protocol to a running ``repro-serve --serve`` server — remote, but
      indistinguishable from a local backend at this interface (answers
      are list-for-list identical);
    * ``workers > 1`` returns a :class:`ShardedRoutingService` over the
      artifact (required: workers load the hierarchy by path), building it
      first in the parent when missing.  The front-end is *not* started —
      enter its context (or call ``start()``) to spawn and warm the
      workers; the first query batch also starts it lazily.  Every worker
      maps the full artifact.

    ``graph`` supplies the build-path graph (and the freshness check's
    expected size); when omitted, ``config.graph_spec`` is parsed instead.
    With neither, an existing artifact is served as-is.  On the build path
    the artifact header records ``config.to_dict()`` under the
    ``serving_config`` metadata key, so the artifact carries the provenance
    of the session that created it.
    """
    if config.connect is not None:
        # Remote backend: the server owns the graph, artifact and cache;
        # this session only needs the wire knobs.  Imported lazily so the
        # common local path never touches the socket machinery.
        from .session import ClientSession

        return ClientSession.connect(
            config.connect, reply_timeout=config.reply_timeout,
            window=config.pipeline_depth, telemetry=config.telemetry)

    if graph is None and config.graph_spec is not None:
        graph = parse_graph_spec(config.graph_spec)
    provenance = {"serving_config": config.to_dict()}

    if config.workers == 1:
        if config.artifact_path is not None:
            return build_or_load_service(
                config.artifact_path, graph=graph, build=config.build,
                cache=config.cache, save=config.save_artifact,
                metadata=provenance, kernel=config.kernel,
                telemetry=config.telemetry)
        if graph is None:
            raise ValueError(
                "open_service needs a graph to build from: pass one, set "
                "config.graph_spec, or point config.artifact_path at a "
                "built artifact")
        build = config.build
        return RoutingService.build(
            graph, k=build.k, epsilon=build.epsilon, seed=build.seed,
            mode=build.mode, cache_config=config.cache,
            kernel=config.kernel, telemetry=config.telemetry,
            build_workers=build.build_workers)

    if config.artifact_path is None:
        raise ValueError("sharded serving (workers > 1) requires "
                         "config.artifact_path — workers load the hierarchy "
                         "by path")
    if not config.save_artifact and not os.path.exists(config.artifact_path):
        # Reject before paying the build: with save_artifact=False nothing
        # would reach disk, and the workers (which only ever load by path)
        # could never find the hierarchy.
        raise ValueError(
            f"sharded serving cannot honour save_artifact=False when the "
            f"artifact {config.artifact_path!r} does not exist yet — "
            f"workers load the hierarchy from disk")
    # Build intent (or a load plus the freshness check) in the parent,
    # exactly as for local serving; the parent's hierarchy is dropped
    # immediately — only the graph handle survives, for workload
    # generation — so resident memory is the workers', not 1 + N copies.
    parent = build_or_load_service(
        config.artifact_path, graph=graph, build=config.build,
        cache=CacheConfig(capacity=0), save=config.save_artifact,
        metadata=provenance)
    graph = parent.hierarchy.graph
    stats = ServingStats(build_seconds=parent.stats.build_seconds,
                         load_seconds=parent.stats.load_seconds,
                         artifact_bytes=parent.stats.artifact_bytes,
                         extra=dict(parent.stats.extra))
    return ShardedRoutingService(
        config.artifact_path, num_workers=config.workers,
        cache_config=config.cache,
        pipeline_depth=config.pipeline_depth,
        max_inflight=config.max_inflight,
        admission=config.admission,
        start_method=config.start_method,
        warm_timeout=config.warm_timeout, reply_timeout=config.reply_timeout,
        graph=graph, stats=stats, kernel=config.kernel,
        telemetry=config.telemetry,
        fleet=config.fleet_config() if config.fleet else None)
