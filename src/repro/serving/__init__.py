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
* :mod:`repro.serving.registry`  — string-keyed registries for
  partitioners, workloads, query kernels and graph families
  (``register_*`` to extend, names resolve everywhere configs are used);
* :mod:`repro.serving.artifacts` — the one mmap-able artifact format:
  save/load of built hierarchies and PDE results with integrity checking
  and lossless round-trips;
* :mod:`repro.serving.service`   — the :class:`RoutingService` local
  backend: build-or-load, single and batched ``route`` /
  ``distance_estimate`` / full-path queries;
* :mod:`repro.serving.sharded`   — the :class:`ShardedRoutingService`
  backend: one query stream scattered across N worker processes, each
  serving its partition from the same artifact;
* :mod:`repro.serving.worker`    — one such worker: the framed pipes, the
  process's main loop and its parent-side ``Worker`` endpoint;
* :mod:`repro.serving.fleet`     — the :class:`FleetSupervisor` recovery
  policy over the sharded backend (``ServingConfig.fleet``): worker
  respawn with sibling cover through an epoch-versioned routing table and
  a heartbeat for hung workers (``heartbeat_interval`` and
  ``respawn_limit`` are the two :class:`FleetConfig` fields; the hang
  timeout is a module constant there);
* :mod:`repro.serving.cache`     — LRU result caching and the
  :class:`ServingStats` counters;
* :mod:`repro.serving.partitioners` — shard partitioners (round-robin,
  stable pair hash, stable source hash);
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
registered ``trace`` workload.
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
    shard_artifact_path,
    verify_artifact,
    write_artifact_v2,
    write_shard_artifacts,
)
from .cache import LRUCache, ServingStats
from .config import BuildConfig, CacheConfig, ServingConfig, WorkloadConfig
from .registry import (
    GRAPH_FAMILIES,
    PARTITIONERS,
    QUERY_KERNELS,
    WORKLOADS,
    Registry,
    get_graph_family,
    get_partitioner,
    get_query_kernel,
    get_workload,
    register_graph_family,
    register_partitioner,
    register_query_kernel,
    register_workload,
)
from .service import (
    RoutingService,
    answer_batch,
    build_or_load_service,
    resolve_query_kernel,
)
from .sharded import ShardError, ShardedRoutingService
from .fleet import (
    FleetConfig,
    FleetError,
    FleetSupervisor,
    RoutingEpoch,
)
from .partitioners import Partitioner, make_partitioner, partition_pairs
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
from .specs import parse_graph_spec
from .workloads import (
    QueryWorkload,
    WORKLOAD_NAMES,
    bursty_workload,
    locality_workload,
    make_workload,
    stable_node_hash,
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
    "write_shard_artifacts",
    "shard_artifact_path",
    # API v2: protocol, factory, configs
    "QueryBackend",
    "open_service",
    "BuildConfig",
    "CacheConfig",
    "WorkloadConfig",
    "ServingConfig",
    "parse_graph_spec",
    # registries
    "Registry",
    "PARTITIONERS",
    "WORKLOADS",
    "QUERY_KERNELS",
    "GRAPH_FAMILIES",
    "register_partitioner",
    "register_workload",
    "register_query_kernel",
    "register_graph_family",
    "get_partitioner",
    "get_workload",
    "get_query_kernel",
    "get_graph_family",
    "resolve_query_kernel",
    # partitioners
    "Partitioner",
    "make_partitioner",
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
    "partition_pairs",
    "stable_node_hash",
]
