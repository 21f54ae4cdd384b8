"""The serving API v2 config family: typed, frozen, round-trippable.

Pre-redesign, build/cache/workload options were threaded through
the serving layer as long positional-kwarg chains.  The v2 surface replaces
those chains with a family of frozen dataclasses that one
:func:`~repro.serving.backend.open_service` call consumes:

* :class:`BuildConfig`    — how the compact-routing hierarchy is built
  (``k``, ``epsilon``, ``seed``, ``mode``, ``build_workers``);
* :class:`CacheConfig`    — the result caches' size;
* :class:`WorkloadConfig` — which query stream to generate against the
  service (used by the CLI);
* :class:`ServingConfig`  — the full serving session: artifact path, worker
  count, batch shape, plus one of each config above.

Every config serialises losslessly: ``from_dict(to_dict(c)) == c`` holds for
any config, ``to_dict`` emits only JSON-safe builtins, and ``from_dict``
*rejects unknown keys* instead of silently dropping a typo.  The artifact
layer stores the originating ``ServingConfig.to_dict()`` in the artifact
header (under the ``serving_config`` metadata key) so a persisted hierarchy
carries the full provenance of the session that created it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

__all__ = [
    "BuildConfig",
    "CacheConfig",
    "WorkloadConfig",
    "ServingConfig",
]


def _reject_unknown(cls, data: Dict[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {unknown}; "
            f"known keys: {sorted(known)}")


def _require_mapping(cls, data: Any) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}.from_dict expects a dict, "
                         f"got {type(data).__name__}")
    return data


@dataclass(frozen=True)
class BuildConfig:
    """How to build (or validate a persisted) compact-routing hierarchy.

    These are exactly the parameters the artifact freshness check compares
    against an existing artifact's header: requesting a build with a config
    that differs from what an artifact was built with raises
    :class:`~repro.serving.artifacts.ArtifactError` instead of silently
    serving stale answers.  ``build_workers`` stays out of the freshness
    check: the parallel build is checksum-identical to the sequential one,
    so how many processes built an artifact never makes it stale (the
    worker count is still recorded in the header provenance via the
    serving config).  The detection engine is not a serving setting: a
    service always builds with the default ``batched`` engine (``engine=``
    stays on ``solve_pde`` and the routing builders).
    """

    k: int = 3
    epsilon: float = 0.25
    seed: int = 0
    mode: str = "auto"
    build_workers: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not isinstance(self.build_workers, int) \
                or isinstance(self.build_workers, bool) \
                or self.build_workers < 1:
            raise ValueError(f"build_workers must be an int >= 1, "
                             f"got {self.build_workers!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BuildConfig":
        data = _require_mapping(cls, data)
        _reject_unknown(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class CacheConfig:
    """Result caching for one service (or shard worker).

    ``capacity`` is the entry budget of each LRU result cache (routes and
    distances are cached separately); ``0`` disables result caching.  An
    answer is a pure function of (artifact, pair), so the capacity moves a
    hit rate, never an answer.
    """

    capacity: int = 4096

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CacheConfig":
        data = _require_mapping(cls, data)
        _reject_unknown(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class WorkloadConfig:
    """Which query stream to run against the service.

    ``name`` is a :data:`~repro.serving.workloads.WORKLOADS` entry
    (``uniform`` / ``zipf`` / ``locality`` / ``bursty`` / ``trace``);
    ``params`` holds the shape-specific keyword arguments (``skew``,
    ``hop_radius``, ``burst_length``, ...).
    ``seed = None`` means "inherit the build seed" — the CLI and the
    experiment runners keep graph generation and traffic generation on one
    seed unless told otherwise.
    """

    name: str = "zipf"
    num_queries: int = 1000
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_queries < 0:
            raise ValueError(f"num_queries must be >= 0, "
                             f"got {self.num_queries}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "num_queries": self.num_queries,
                "seed": self.seed, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadConfig":
        data = _require_mapping(cls, data)
        _reject_unknown(cls, data)
        data = dict(data)
        if "params" in data:
            data["params"] = dict(data["params"])
        return cls(**data)


@dataclass(frozen=True)
class ServingConfig:
    """One serving session, end to end.

    ``workers == 1`` serves locally (a :class:`RoutingService`);
    ``workers > 1`` serves through the multi-process sharded front-end and
    requires ``artifact_path`` (every worker maps the full artifact by
    path; batches are scattered round-robin).
    ``graph_spec`` is an optional ``name:key=value,...`` generator spec (see
    :func:`~repro.serving.specs.parse_graph_spec`) used when no in-memory
    graph is passed to :func:`~repro.serving.backend.open_service`.
    ``kernel`` names a :data:`~repro.routing.tz_hierarchy.QUERY_KERNELS`
    entry (``dict`` / ``columnar`` / ``auto``); it is validated when the
    service opens and selects nothing (every hierarchy selects levels
    through the same dict lookups).  It leaves with the benchmark change
    that drops ``kernel=`` from ``benchmarks/e2e``.
    ``telemetry`` enables per-stage span recording (artifact load, cache
    probes, kernel batches, scatter/gather) into a live metrics registry,
    exported through ``query_stats().extra["telemetry"]``; off by default
    so the hot path runs on the no-op registry.
    ``connect`` points the session at a running ``repro-serve --serve``
    server (``HOST:PORT``) instead of opening a backend in-process: the
    build/cache/artifact fields then belong to the server, so they must
    stay at their defaults, and ``workers`` must be 1 (the server owns the
    deployment shape).
    ``pipeline_depth`` is the one bound on work in flight: the batches
    the sharded front-end holds (a submitter past it waits), the server
    session's reply queue, and a ``connect`` session's client window.
    ``heartbeat_interval`` / ``respawn_limit`` are the settings of the
    :class:`~repro.serving.fleet.FleetSupervisor` every sharded front-end
    runs: hang checks and respawns happen every ``heartbeat_interval``
    seconds, and ``respawn_limit`` worker deaths (or hangs) are healed —
    siblings take the dead worker's share from the moment the death is
    seen — before one latches a ``ShardError``.  The default budget ``0``
    fail-stops on the first; a budget above ``0`` requires
    ``workers >= 2``.  The worker count never changes.
    """

    artifact_path: Optional[str] = None
    graph_spec: Optional[str] = None
    workers: int = 1
    batch_size: int = 64
    kind: str = "route"
    kernel: str = "auto"
    telemetry: bool = False
    connect: Optional[str] = None
    pipeline_depth: int = 8
    warm_timeout: float = 120.0
    reply_timeout: float = 300.0
    heartbeat_interval: float = 0.5
    respawn_limit: int = 0
    build: BuildConfig = field(default_factory=BuildConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1, "
                             f"got {self.pipeline_depth}")
        if self.connect is not None:
            if self.workers != 1:
                raise ValueError(
                    "connect sessions must keep workers=1 — the server "
                    "owns the deployment shape (its own workers flag)")
            if self.artifact_path is not None or self.graph_spec is not None:
                raise ValueError(
                    "connect sessions take the graph and artifact from the "
                    "server; drop artifact_path/graph_spec")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        if self.kind not in ("route", "distance"):
            raise ValueError(f"kind must be route or distance, "
                             f"got {self.kind!r}")
        from .fleet import check_settings
        check_settings(self.workers, self.heartbeat_interval,
                       self.respawn_limit)
        for name, value in (("build", self.build), ("cache", self.cache),
                            ("workload", self.workload)):
            expected = {"build": BuildConfig, "cache": CacheConfig,
                        "workload": WorkloadConfig}[name]
            if not isinstance(value, expected):
                raise ValueError(f"{name} must be a {expected.__name__}, "
                                 f"got {type(value).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("build", "cache", "workload"):
            record[name] = record[name].to_dict()
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServingConfig":
        data = _require_mapping(cls, data)
        _reject_unknown(cls, data)
        data = dict(data)
        if "build" in data:
            data["build"] = BuildConfig.from_dict(data["build"])
        if "cache" in data:
            data["cache"] = CacheConfig.from_dict(data["cache"])
        if "workload" in data:
            data["workload"] = WorkloadConfig.from_dict(data["workload"])
        return cls(**data)

    def workload_seed(self) -> int:
        """The effective traffic seed (inherits the build seed when unset)."""
        return (self.workload.seed if self.workload.seed is not None
                else self.build.seed)
