"""``repro-serve`` — build an artifact from a generator spec and serve a workload.

The console entry point wired in ``setup.py``.  Typical session::

    repro-serve --graph er:n=300,p=0.03,seed=1 --artifact /tmp/er300.artifact \\
                --k 3 --workload zipf --queries 2000 --batch-size 64

The CLI is a thin shell around ``open_service(ServingConfig(...))``, and
:data:`FLAGS` is its single source of truth: one row per flag naming the
:class:`~repro.serving.config.ServingConfig` field it lands in.  The parser
is derived from the table (each flag's type and default are read off the
dataclass field, so neither can drift from the config family) and so is
the config (``ServingConfig.from_dict`` over the dotted paths).  A session
parses flags into a config, opens the backend it describes (local for
``--workers 1``, sharded above that), replays the requested query workload
in batches, and prints throughput plus the
:class:`~repro.serving.cache.ServingStats` counters.

Graph specs are ``name:key=value,key=value`` with an optional
``weights=...`` key (``unit``, ``uniform:LO:HI``, ``mixed``, ``heavy``) —
see :mod:`repro.serving.specs`.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
import time
import typing
from typing import (
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.metrics import Histogram
from ..obs.trace import TraceRecorder
from .backend import open_service
from .config import ServingConfig
from .registry import PARTITIONERS, QUERY_KERNELS, WORKLOADS
from .service import answer_batch
from .specs import parse_graph_spec
from .workloads import make_workload

__all__ = ["parse_graph_spec", "Flag", "FLAGS", "build_parser",
           "config_from_args", "run_serving_session", "advertised_config",
           "run_server_mode",
           "main"]

#: ``Flag.default`` of a flag whose default is its config field's.
_FROM_FIELD = object()


class Flag(NamedTuple):
    """One ``repro-serve`` flag: where it lands and what ``--help`` says.

    ``path`` is dotted from :class:`ServingConfig`; ``workload.params.<key>``
    lands in the workload's free-form params dict and ``None`` marks a flag
    that configures no declarative field (a deployment mode, a capture
    target, an output format).  A flag backed by a dataclass field takes
    its type and default from that field; ``type`` / ``default`` are for
    the flags that have none.  ``choices`` may be a callable so registry
    names are read when the parser is built, not when this module loads.
    ``shapes`` lists the workload shapes a ``workload.params`` flag applies
    to (any other ``--workload`` makes the flag an error).
    """

    name: str
    path: Optional[str]
    help: Optional[str] = None
    choices: Union[None, Sequence[str], Callable[[], Sequence[str]]] = None
    type: Optional[Callable[[str], Any]] = None
    default: Any = _FROM_FIELD
    metavar: Optional[str] = None
    shapes: Tuple[str, ...] = ()

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


FLAGS: Tuple[Flag, ...] = (
    Flag("--graph", "graph_spec", "generator spec, e.g. er:n=300,p=0.03"),
    Flag("--artifact", "artifact_path",
         "artifact path to build-or-load; omitted = build in memory only"),
    Flag("--k", "build.k"),
    Flag("--epsilon", "build.epsilon"),
    Flag("--mode", "build.mode",
         choices=("auto", "budget", "spd", "truncated")),
    Flag("--seed", "build.seed"),
    Flag("--workload", "workload.name", choices=WORKLOADS.names),
    Flag("--queries", "workload.num_queries"),
    Flag("--skew", "workload.params.skew",
         "Zipf exponent (zipf/bursty workloads only; default 1.2)",
         type=float, shapes=("zipf", "bursty")),
    Flag("--hop-radius", "workload.params.hop_radius",
         "locality ball radius in hops (locality workload only; default 2)",
         type=int, shapes=("locality",)),
    Flag("--bias", "workload.params.bias",
         "probability a target is drawn from the source's ball (locality "
         "workload only; default 0.8)",
         type=float, shapes=("locality",)),
    Flag("--burst-rate", "workload.params.burst_rate",
         "probability a query starts a burst (bursty workload only; "
         "default 0.02)",
         type=float, shapes=("bursty",)),
    Flag("--burst-length", "workload.params.burst_length",
         "queries per burst phase (bursty workload only; default 40)",
         type=int, shapes=("bursty",)),
    Flag("--burst-intensity", "workload.params.burst_intensity",
         "probability an in-burst query repeats the burst pair (bursty "
         "workload only; default 0.8)",
         type=float, shapes=("bursty",)),
    Flag("--drift-period", "workload.params.drift_period",
         "queries per full rotation of the popularity ranking (bursty "
         "workload only; default 500)",
         type=int, shapes=("bursty",)),
    Flag("--trace-path", "workload.params.trace_path",
         "trace artifact to replay (--workload trace only)",
         shapes=("trace",)),
    Flag("--batch-size", "batch_size"),
    Flag("--cache-size", "cache.capacity",
         "result-cache capacity (per worker when sharded)"),
    Flag("--kind", "kind", choices=("route", "distance")),
    Flag("--kernel", "kernel",
         "batch query kernel: 'columnar' answers batches straight from the "
         "artifact's record tables, 'dict' is the per-pair path, 'auto' "
         "picks columnar whenever the backing store supports it (answers "
         "are identical either way)",
         choices=QUERY_KERNELS.names),
    Flag("--build-workers", "build.build_workers",
         "process-pool width for hierarchy construction and sub-artifact "
         "slicing; the parallel build is checksum-identical to the "
         "sequential one (default 1 = sequential)"),
    Flag("--workers", "workers",
         "worker processes; >1 serves through a sharded front-end "
         "(requires --artifact)"),
    # Left unset, the partitioner follows the deployment shape (see
    # config_from_args), so the parser must see "unset", not the field's
    # default.
    Flag("--partitioner", "partitioner",
         "shard partition strategy (--workers > 1 only; default "
         "round_robin, or hash_source when --sub-artifacts or --fleet is "
         "set)",
         choices=PARTITIONERS.names, default=None),
    Flag("--sub-artifacts", "sub_artifacts",
         "slice the artifact into per-shard sub-artifacts so each worker "
         "loads only its partition's tables (--workers > 1, source "
         "partitioning)"),
    Flag("--telemetry", "telemetry",
         "enable the per-stage telemetry registry: span histograms for "
         "artifact load, hierarchy build, cache probes/fills, kernel "
         "batches and sharded scatter/gather ride along in "
         "stats.extra['telemetry'] (off by default: the null registry "
         "costs nothing)"),
    # Where to bind, not what to serve: every serving field stays
    # declarative.
    Flag("--serve", None,
         "serve the opened backend on a TCP endpoint instead of replaying "
         "a workload; port 0 binds an ephemeral port (printed on stdout). "
         "Shut down gracefully with SIGINT/SIGTERM",
         metavar="HOST:PORT"),
    Flag("--connect", "connect",
         "replay the workload against a running --serve server instead of "
         "opening a backend in-process (graph/artifact/cache flags then "
         "belong to the server)",
         metavar="HOST:PORT"),
    Flag("--pipeline-depth", "pipeline_depth",
         "max batches in flight through the pipelined scatter/gather (also "
         "the --connect client's in-flight window)"),
    Flag("--max-inflight", "max_inflight",
         "max outstanding batches per shard worker (--workers > 1)"),
    Flag("--admission", "admission",
         "at the pipeline bounds: 'block' delays submitters, 'reject' "
         "raises BackpressureError",
         choices=("block", "reject")),
    Flag("--fleet", "fleet",
         "supervise the shard workers for recovery: a dead or hung worker "
         "is respawned while its siblings cover its partition (--workers "
         "> 1; the worker count never changes; answers stay identical)"),
    Flag("--heartbeat-interval", "heartbeat_interval",
         "fleet supervisor beat period in seconds (--fleet): hang checks "
         "and respawns happen on this cadence"),
    Flag("--respawn-limit", "respawn_limit",
         "worker respawns tolerated before the fleet degrades to a "
         "FleetError (--fleet)"),
    Flag("--trace-out", None,
         "capture the served query stream (pairs, kinds, batch boundaries, "
         "arrival offsets) into a trace artifact at PATH, replayable later "
         "with --workload trace --trace-path PATH"),
    Flag("--json", None, "emit the result record as JSON on stdout",
         type=bool),
)


def _field_specs(config: Any = None, prefix: str = ""
                 ) -> Dict[str, Tuple[Any, Any]]:
    """``{dotted path: (type, default)}`` of every leaf config field, read
    off the dataclasses (``Optional[X]`` counts as ``X``)."""
    config = ServingConfig() if config is None else config
    hints = typing.get_type_hints(type(config))
    specs: Dict[str, Tuple[Any, Any]] = {}
    for field in dataclasses.fields(config):
        value, hint = getattr(config, field.name), hints[field.name]
        if dataclasses.is_dataclass(value):
            specs.update(_field_specs(value, f"{prefix}{field.name}."))
            continue
        if typing.get_origin(hint) is Union:
            hint = next(arg for arg in typing.get_args(hint)
                        if arg is not type(None))
        specs[prefix + field.name] = (hint, value)
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Build or load a compact-routing artifact and run a "
                    "query workload against it.")
    specs = _field_specs()
    for flag in FLAGS:
        # Only runtime-only flags and free-form workload.params keys have
        # no dataclass field; any other unknown path is a table typo.
        field_type, field_default = (
            (None, None) if flag.path is None
            or flag.path.startswith("workload.params.")
            else specs[flag.path])
        value_type = flag.type or field_type
        if value_type is bool:
            parser.add_argument(flag.name, action="store_true",
                                help=flag.help)
            continue
        choices = flag.choices() if callable(flag.choices) else flag.choices
        parser.add_argument(
            flag.name, type=value_type, choices=choices,
            default=(field_default if flag.default is _FROM_FIELD
                     else flag.default),
            metavar=flag.metavar, help=flag.help)
    return parser


def config_from_args(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> ServingConfig:
    """Validate flags and assemble the :class:`ServingConfig` they describe.

    Only flag-level facts are checked here (flags with no config field,
    workload-shape applicability, partitioner defaults); whatever the
    config can express is validated once, by ``ServingConfig.__post_init__``,
    and reaches the user through the ``parser.error`` at the bottom.
    """
    if args.connect is not None:
        if args.serve is not None:
            parser.error("--serve and --connect are mutually exclusive "
                         "(one process is either the server or a client)")
    elif args.graph is None and args.artifact is None:
        parser.error("provide --graph, --artifact, or both")
    if args.serve is not None:
        if args.trace_out is not None:
            parser.error("--trace-out captures a replayed workload; a "
                         "--serve process replays none (capture on the "
                         "client instead)")

    # Workload parameters are validated here instead of silently ignored:
    # a flag that does not apply to the chosen shape is an error.
    for flag in FLAGS:
        if (flag.shapes and getattr(args, flag.dest) is not None
                and args.workload not in flag.shapes):
            parser.error(
                f"{flag.name} applies to the {'/'.join(flag.shapes)} "
                f"workload{'s' if len(flag.shapes) > 1 else ''} only "
                f"(got --workload {args.workload})")

    if args.workload == "trace" and args.trace_path is None:
        parser.error("--workload trace requires --trace-path FILE "
                     "(record one with --trace-out)")
    if args.workers > 1 and args.artifact is None:
        parser.error("--workers > 1 requires --artifact "
                     "(workers load the hierarchy by path)")

    if args.sub_artifacts and args.partitioner not in (None, "hash_source"):
        parser.error("--sub-artifacts requires source partitioning "
                     "(--partitioner hash_source): workers only hold "
                     "their own sources' tables")
    if args.fleet and args.partitioner not in (None, "hash_source"):
        parser.error("--fleet routes by source hash (the epoch table "
                     "must agree with sub-artifact slicing); use "
                     "--partitioner hash_source or omit it")

    # Walk each flag's dotted path into the nested dict from_dict expects;
    # unset workload.params flags stay out of the free-form dict.
    nested: Dict[str, Any] = {}
    for flag in FLAGS:
        value = getattr(args, flag.dest)
        if flag.path is None or (flag.shapes and value is None):
            continue
        *parents, leaf = flag.path.split(".")
        node = nested
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    if args.partitioner is None:
        nested["partitioner"] = ("hash_source"
                                 if args.sub_artifacts or args.fleet
                                 else "round_robin")
    try:
        return ServingConfig.from_dict(nested)
    except ValueError as exc:
        parser.error(str(exc))


def _round_ms(value: float) -> Optional[float]:
    """Seconds → milliseconds, ``None`` for NaN (JSON has no NaN)."""
    if value != value:
        return None
    return round(value * 1000.0, 3)


def _round_opt(value: Optional[float], digits: int = 4) -> Optional[float]:
    return None if value is None else round(value, digits)


def _answered(target, batches, window: int):
    """``(kind, chunk, seconds, results)`` per batch, in stream order.

    ``window > 1`` says ``target`` is a session with ``submit`` /
    ``gather`` (``--connect``): its window is kept full — ``submit`` only
    blocks once ``window`` batches are in flight — so the server's session
    pipeline has something to overlap, and a batch's ``seconds`` run from
    its submit to its answers.  Any other backend is closed-loop.
    """
    inflight: collections.deque = collections.deque()

    def gathered():
        kind, chunk, start, ticket = inflight.popleft()
        results = target.gather(ticket)
        return kind, chunk, time.perf_counter() - start, results

    for kind, chunk in batches:
        start = time.perf_counter()
        if window > 1:
            inflight.append((kind, chunk, start, target.submit(kind, chunk)))
            if len(inflight) >= window:
                yield gathered()
        else:
            results = answer_batch(target, kind, chunk)
            yield kind, chunk, time.perf_counter() - start, results
    while inflight:
        yield gathered()


def run_serving_session(config: ServingConfig,
                        trace_out: Optional[str] = None
                        ) -> Tuple[Dict, object, bool]:
    """Open the configured backend, replay its workload, return the record.

    The shared session engine behind ``repro-serve`` and the
    ``repro-experiment`` harness.  Returns ``(record, stats, ok)``:
    ``record`` is the JSON-ready result dict (the ``--json`` schema),
    ``stats`` the backend's final :class:`ServingStats` (for human-format
    ``describe()``), and ``ok`` says whether every *route* query was
    delivered — distance estimates may legitimately be infinite for pairs
    the scheme's bunches never cover, so they never count against ``ok``.

    Every session measures per-batch serving latency into a fixed-bucket
    :class:`~repro.obs.metrics.Histogram` (always on: one ``observe`` per
    batch is nothing next to the batch itself; a ``--connect`` session
    keeps its window full, see :func:`_answered`) and reports the
    build/load/query stage split under ``stage_seconds``.  With
    ``trace_out`` the query stream is captured through a
    :class:`~repro.obs.trace.TraceRecorder` and saved as a replayable
    trace artifact once the session completes.
    """
    backend = open_service(config)
    if backend.graph is None:
        backend.close()
        raise ValueError(
            f"the backend exposes no graph to generate the "
            f"{config.workload.name!r} workload from — a --connect "
            f"session needs the server to advertise a graph spec (start "
            f"it with --graph, or from an artifact whose header records "
            f"the spec that built it)")
    workload = make_workload(config.workload.name, backend.graph,
                             config.workload.num_queries,
                             seed=config.workload_seed(),
                             **config.workload.params)

    recorder = TraceRecorder(backend) if trace_out else None
    target = recorder if recorder is not None else backend
    # A recorder captures batches at route_batch / distance_batch, so a
    # recorded session stays closed-loop.
    window = getattr(backend, "window", 1) if recorder is None else 1
    latency = Histogram()
    delivered = 0
    route_total = route_delivered = 0

    with backend:
        # For sharded backends, entering the context spawns and warms the
        # workers outside the timed window, so the reported throughput is
        # serving cost, not one-time process start-up.
        start = time.perf_counter()
        for batch_kind, chunk, seconds, results in _answered(
                target, workload.iter_batches(config.batch_size, config.kind),
                window):
            latency.observe(seconds)
            if batch_kind == "route":
                route_total += len(chunk)
                good = sum(1 for trace in results if trace.delivered)
                route_delivered += good
                delivered += good
            else:
                delivered += sum(1 for est in results if est != float("inf"))
        elapsed = time.perf_counter() - start
        stats = backend.query_stats()
        if recorder is not None:
            recorder.save(trace_out, meta={
                "workload": workload.name,
                "default_kind": config.kind,
                "batch_size": config.batch_size,
                "graph_spec": config.graph_spec,
            })
    qps = len(workload) / elapsed if elapsed > 0 else float("inf")

    record = {
        "workload": workload.name,
        "kind": config.kind,
        # The *resolved* kernel (what answered the batches), not just the
        # request; per-batch group stats ride along in extra.kernel_stats.
        "kernel": stats.extra.get("kernel_active", config.kernel),
        "queries": len(workload),
        "delivered": delivered,
        "seconds": round(elapsed, 4),
        "queries_per_second": round(qps, 1),
        "latency_ms": {
            "p50": _round_ms(latency.quantile(0.50)),
            "p95": _round_ms(latency.quantile(0.95)),
            "p99": _round_ms(latency.quantile(0.99)),
            "mean": _round_ms(latency.mean),
            "max": _round_ms(latency.max if latency.count
                             else float("nan")),
            "batches": latency.count,
        },
        "stage_seconds": {
            "build": _round_opt(stats.build_seconds),
            "load": _round_opt(stats.load_seconds),
            "query": round(elapsed, 4),
        },
        **workload.skew_summary(),
        **stats.as_dict(),
    }
    return record, stats, route_delivered == route_total


def advertised_config(config: ServingConfig) -> ServingConfig:
    """The config a server advertises in its ``welcome`` frames.

    A server started from ``--artifact`` alone still tells clients the
    graph spec (they need it to generate workloads locally): the artifact
    header stores the ``ServingConfig`` that built it, so the spec is
    recovered from there.  Only the advertisement changes — the config
    that opens the backend stays untouched, so an artifact-only load is
    not silently turned into a build-parameter-checked build-or-load.
    """
    if config.graph_spec is not None or config.artifact_path is None:
        return config
    from .artifacts import artifact_info
    built_by = artifact_info(config.artifact_path).metadata.get(
        "serving_config") or {}
    if not built_by.get("graph_spec"):
        return config
    return dataclasses.replace(config, graph_spec=built_by["graph_spec"])


def run_server_mode(config: ServingConfig, endpoint: str) -> int:
    """``--serve``: open the backend and serve it until SIGINT/SIGTERM.

    Prints one ``listening on HOST:PORT`` line (flushed, so wrappers that
    bind port 0 can scrape the real endpoint) and then blocks.  Shutdown
    is graceful: the server drains in-flight batches before the process
    exits, and the backend is closed cleanly (shard workers drain and
    report their final stats).
    """
    import os
    import signal
    import threading

    from .server import RoutingServer
    from .wire import PROTOCOL_VERSION

    advertised = advertised_config(config)
    backend = open_service(config)
    with backend:
        if hasattr(backend, "start"):
            # Warm shard workers before accepting the first client; a local
            # RoutingService is ready the moment it is built/loaded.
            backend.start()
        with RoutingServer(backend, endpoint, config=advertised,
                           telemetry=config.telemetry) as server:
            shutdown = threading.Event()

            def _request_shutdown(signum, frame):
                shutdown.set()

            signal.signal(signal.SIGTERM, _request_shutdown)
            signal.signal(signal.SIGINT, _request_shutdown)
            print(f"repro-serve listening on {server.address} "
                  f"(protocol v{PROTOCOL_VERSION}, pid {os.getpid()})",
                  flush=True)
            while not shutdown.is_set():
                shutdown.wait(0.2)
            server.close(drain=True)
            print(f"repro-serve on {server.address} shut down after "
                  f"{server.sessions_served} session(s)", flush=True)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args, parser)

    if args.serve is not None:
        return run_server_mode(config, args.serve)

    record, stats, ok = run_serving_session(config, trace_out=args.trace_out)
    if args.json:
        json.dump(record, sys.stdout, indent=2, default=str)
        print()
    else:
        p99 = record["latency_ms"]["p99"]
        p99_text = f"{p99:.2f}" if p99 is not None else "n/a"
        print(f"served {record['queries']} {config.kind} queries "
              f"({record['workload']} workload"
              + (f", {config.workers} workers" if config.workers > 1 else "")
              + f") in {record['seconds']:.3f}s -> "
              f"{record['queries_per_second']:,.0f} q/s "
              f"(p99 {p99_text} ms/batch), "
              f"{record['delivered']} delivered")
        stage = record["stage_seconds"]
        stage_text = "  ".join(
            f"{name}={stage[name]:.3f}s"
            for name in ("build", "load", "query")
            if stage[name] is not None)
        print(f"stages: {stage_text}")
        print(stats.describe())
    # Routes must always deliver (on a connected graph every route is a
    # path through the hierarchy's trees); trace replays may mix kinds per
    # batch, so the check is per-batch, not on the configured default kind.
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
