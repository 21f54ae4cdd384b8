"""Serving subsystem: persisted artifacts, cached query serving, workloads.

This package turns built routing structures into a servable product — the
bridge from the paper's preprocessing theorems to a query-serving system.
The public surface (API v2) is one typed contract:

* :mod:`repro.serving.backend`   — the :class:`QueryBackend` protocol and
  the :func:`open_service` factory that returns a local or sharded backend
  from one :class:`ServingConfig`;
* :mod:`repro.serving.config`    — the frozen config family
  (:class:`BuildConfig`, :class:`CacheConfig`, :class:`WorkloadConfig`,
  :class:`ServingConfig`) with lossless ``to_dict``/``from_dict``
  round-trips and artifact-header provenance;
* :mod:`repro.serving.artifacts` — the one mmap-able artifact format:
  save/load of built hierarchies and PDE results with integrity checking
  and lossless round-trips;
* :mod:`repro.serving.service`   — the :class:`RoutingService` local
  backend: build-or-load, single and batched ``route`` /
  ``distance_estimate`` / full-path queries;
* :mod:`repro.serving.sharded`   — the :class:`ShardedRoutingService`
  backend: one query stream scattered round-robin across N worker
  processes, each mapping the same full artifact;
* :mod:`repro.serving.worker`    — one such worker: the framed pipes, the
  process's main loop and its parent-side ``Worker`` endpoint;
* :mod:`repro.serving.fleet`     — the :class:`FleetSupervisor` recovery
  policy over the sharded backend (``ServingConfig.fleet``): worker
  respawn, siblings taking a dead worker's share through an
  epoch-versioned routing table, and a heartbeat for hung workers
  (``heartbeat_interval`` and ``respawn_limit`` are the two
  :class:`FleetConfig` fields; the hang timeout is a module constant
  there);
* :mod:`repro.serving.cache`     — LRU result caching and the
  :class:`ServingStats` counters;
* :mod:`repro.serving.workloads` — reproducible uniform / Zipf / locality /
  bursty query-stream generators;
* :mod:`repro.serving.wire`      — the framed message layer for networked
  serving (versioned frames, canonical JSON, typed wire errors);
* :mod:`repro.serving.session`   — :class:`ServerSession` /
  :class:`ClientSession`: the :class:`QueryBackend` protocol spoken over
  any byte stream, with a pipelined client window;
* :mod:`repro.serving.server`    — :class:`RoutingServer`, the long-lived
  TCP front-end behind ``repro-serve --serve``;
* :mod:`repro.serving.cli`       — the ``repro-serve`` console entry point.

Telemetry (:mod:`repro.obs`) threads through the whole stack behind
``ServingConfig.telemetry``: per-stage span histograms ride along in
``ServingStats.extra["telemetry"]`` and merge additively across shard
workers; trace capture/replay and the ``repro-experiment`` harness build
on the same backends via :class:`~repro.obs.trace.TraceRecorder` and the
``trace`` workload.

Names resolve through three plain dicts, each owned by the module that
fills it: :data:`WORKLOADS` (``workloads``), :data:`QUERY_KERNELS`
(``service``) and :data:`GRAPH_FAMILIES` (``specs``); an unknown name
raises ``ValueError`` listing the available ones.
"""

from .artifacts import (
    ArtifactError,
    ArtifactInfo,
    ArtifactV2Reader,
    artifact_info,
    load_hierarchy,
    load_pde,
    save_hierarchy,
    save_pde,
    verify_artifact,
    write_artifact_v2,
)
from .cache import LRUCache, ServingStats
from .config import BuildConfig, CacheConfig, ServingConfig, WorkloadConfig
from .service import (
    QUERY_KERNELS,
    RoutingService,
    answer_batch,
    build_or_load_service,
    resolve_query_kernel,
)
from .sharded import RoutingEpoch, ShardError, ShardedRoutingService
from .fleet import FleetConfig, FleetError, FleetSupervisor
from .backend import QueryBackend, open_service
from .wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    BackpressureError,
    FrameError,
    ProtocolVersionError,
    RemoteError,
    SessionClosedError,
    WireError,
    parse_endpoint,
    read_frame,
    write_frame,
)
from .session import ClientSession, ServerSession
from .server import RoutingServer
from .specs import GRAPH_FAMILIES, parse_graph_spec
from .workloads import (
    WORKLOADS,
    QueryWorkload,
    WORKLOAD_NAMES,
    bursty_workload,
    locality_workload,
    make_workload,
    uniform_workload,
    workload_names,
    zipf_workload,
)

__all__ = [
    # artifacts
    "ArtifactError",
    "ArtifactInfo",
    "ArtifactV2Reader",
    "artifact_info",
    "write_artifact_v2",
    "verify_artifact",
    "save_hierarchy",
    "load_hierarchy",
    "save_pde",
    "load_pde",
    # API v2: protocol, factory, configs
    "QueryBackend",
    "open_service",
    "BuildConfig",
    "CacheConfig",
    "WorkloadConfig",
    "ServingConfig",
    "parse_graph_spec",
    # names -> built-ins
    "WORKLOADS",
    "QUERY_KERNELS",
    "GRAPH_FAMILIES",
    "resolve_query_kernel",
    # backends
    "LRUCache",
    "ServingStats",
    "RoutingService",
    "build_or_load_service",
    "answer_batch",
    "ShardedRoutingService",
    "ShardError",
    "FleetConfig",
    "FleetError",
    "FleetSupervisor",
    "RoutingEpoch",
    # transport: wire protocol, sessions, server
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "WireError",
    "FrameError",
    "ProtocolVersionError",
    "SessionClosedError",
    "BackpressureError",
    "RemoteError",
    "read_frame",
    "write_frame",
    "parse_endpoint",
    "ServerSession",
    "ClientSession",
    "RoutingServer",
    # workloads
    "QueryWorkload",
    "WORKLOAD_NAMES",
    "workload_names",
    "uniform_workload",
    "zipf_workload",
    "locality_workload",
    "bursty_workload",
    "make_workload",
]
