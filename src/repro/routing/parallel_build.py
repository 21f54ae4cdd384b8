"""Multi-process level-parallel PDE builds — the cold-build fan-out.

The hierarchy construction of Section 4.3 is embarrassingly parallel in two
dimensions the sequential code walks one at a time:

* across levels — each level ``l`` is an independent ``(S_l, h_l, sigma_l)``
  estimation instance on the same graph, and
* within one estimation — each rounding level ``i`` of Theorem 3.3 is an
  independent sigma-truncated detection on the virtual graph ``G_i``.

This module flattens both dimensions into one task list — one task per
``(instance, rounding level)`` pair — and runs it on a spawn-based
:class:`~concurrent.futures.ProcessPoolExecutor`.  Workers receive each graph
once (via the pool initializer) as the sequential solver's own interned
:class:`~repro.core.source_detection.GraphCSR`, run the same
:func:`~repro.core.source_detection.bucket_detect` kernel on it, and reply
with its int-space ``(distance, source rank, from id)`` triples.

**Determinism contract.**  The parallel build produces *identical* results
to the sequential one — identical down to the artifact payload checksum:

* Each detection task is a pure function of ``(graph, S, h', sigma, b(i))``;
  every quantity is computed in the parent and shipped verbatim, so a worker
  computes the same lists the sequential loop would.
* The merge folds rounding levels in increasing ``i`` via the same int-space
  :func:`~repro.core.pde.fold_detection_lists` the sequential solver uses —
  the strict ``<`` there makes "earliest level wins ties" the *only*
  ordering the fold depends on, and the parent replays it exactly
  regardless of task completion order.
* Randomness (level sampling) happens in the caller before any fan-out;
  per-level metrics of the pure engines are analytic, so the parent
  reconstructs them without shipping them.

Failure contract: a worker that dies mid-build (OOM kill, hard crash)
surfaces as a typed :class:`ParallelBuildError` — never a hang — and
because artifact writes happen only after a fully-merged build (and are
atomic), a failed parallel build leaves no partial artifact on disk.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from ..congest.metrics import CongestMetrics
from ..core.pde import (
    PARALLEL_PDE_ENGINES,
    FoldTable,
    PDEResult,
    finalize_pde_result,
    fold_detection_lists,
    intern_detection_lists,
    level_adjacency,
    validate_pde_instance,
)
from ..core.source_detection import (
    GraphCSR,
    SourceDetectionResult,
    bucket_detect,
    detect_sources_logical,
    materialize_detection,
)
from ..core.weight_rounding import RoundingScheme
from ..graphs.weighted_graph import WeightedGraph
from ..obs.metrics import NULL_REGISTRY

__all__ = [
    "CRASH_ENV_VAR",
    "ParallelBuildError",
    "PDEInstance",
    "solve_pde_instances",
    "solve_pde_parallel",
]

#: Test hook: when a worker picks up the task matching this variable's
#: ``"<token>:<rounding level>"`` value it hard-exits instead of solving,
#: simulating a mid-build worker death.  Spawned children inherit the
#: parent's environment, so tests set it around a build call.
CRASH_ENV_VAR = "REPRO_BUILD_CRASH_TASK"


class ParallelBuildError(RuntimeError):
    """A parallel hierarchy build failed (worker death or task error).

    Raised in the driving process; by the time callers see it no partial
    state has escaped — artifacts are written only from a complete merge.
    """


@dataclass(frozen=True)
class PDEInstance:
    """One ``(S, h, sigma)``-estimation the orchestrator fans out.

    ``token`` names the graph (registered with :func:`solve_pde_instances`)
    the instance runs on — many instances may share one token, and workers
    rebuild + cache each graph once per process.
    """

    token: str
    sources: Tuple[Hashable, ...]
    h: int
    sigma: int
    epsilon: float
    engine: str = "batched"
    store_levels: bool = False


# ----------------------------------------------------------------------
# worker side (spawned processes)
# ----------------------------------------------------------------------
#: Interned graphs shipped once via the pool initializer, and the labelled
#: graphs the ``logical`` engine needs, rebuilt from them once per process.
_WORKER_CSRS: Dict[str, GraphCSR] = {}
_WORKER_GRAPHS: Dict[str, WeightedGraph] = {}


def _init_worker(csrs: Dict[str, GraphCSR]) -> None:
    global _WORKER_CSRS
    _WORKER_CSRS = dict(csrs)
    _WORKER_GRAPHS.clear()


def _worker_graph(token: str) -> WeightedGraph:
    graph = _WORKER_GRAPHS.get(token)
    if graph is None:
        nodes, indptr, indices, weights = _WORKER_CSRS[token]
        # Row order is adjacency order, so this is the parent's graph exactly.
        graph = WeightedGraph.from_state({"nodes": nodes, "adjacency": [
            (v, [(nodes[indices[j]], weights[j]) for j in range(a, b)])
            for v, a, b in zip(nodes, indptr, indptr[1:])]})
        _WORKER_GRAPHS[token] = graph
    return graph


def _run_detection_task(task: dict) -> dict:
    """Solve one ``(instance, rounding level)`` detection; returns plain data.

    The reply carries only builtins — the int-space ``{node id: [(distance,
    source rank, from id), ...]}`` lists plus the wall-clock spent —
    so the reply pickle stays small and the parent folds it as is.
    """
    if os.environ.get(CRASH_ENV_VAR) == f"{task['token']}:{task['level']}":
        os._exit(19)  # simulated hard worker death (tests only)
    started = time.perf_counter()
    csr = _WORKER_CSRS[task["token"]]
    source_ids, base = task["source_ids"], task["base"]
    if task["engine"] == "batched":
        lists = dict(enumerate(bucket_detect(
            csr, level_adjacency(csr.weights, base), source_ids,
            task["horizon"], task["sigma"])))
    else:
        ranked = [csr.nodes[i] for i in source_ids]
        detection = detect_sources_logical(
            _worker_graph(task["token"]), set(ranked), task["horizon"],
            task["sigma"],
            edge_length=lambda u, v, w: max(1, math.ceil(w / base)))
        lists = intern_detection_lists(
            detection.lists, csr.node_ids(),
            {s: r for r, s in enumerate(ranked)})
    return {"lists": lists, "seconds": time.perf_counter() - started}


# ----------------------------------------------------------------------
# orchestrator (driving process)
# ----------------------------------------------------------------------
def _await_task(future) -> dict:
    try:
        return future.result()
    except BrokenProcessPool as exc:
        raise ParallelBuildError(
            "a parallel build worker died before completing its detection "
            "task; the build was abandoned and no partial hierarchy was "
            "produced") from exc
    except ParallelBuildError:
        raise
    except Exception as exc:
        raise ParallelBuildError(
            f"a parallel build detection task failed: {exc}") from exc


def solve_pde_instances(instances: Sequence[PDEInstance],
                        graphs: Dict[str, WeightedGraph],
                        build_workers: int,
                        registry=None) -> List[PDEResult]:
    """Solve many PDE instances on one spawn-based worker pool.

    All ``(instance, rounding level)`` tasks are scattered together (under a
    ``build_scatter`` span), so a wide instance's levels and its siblings'
    levels interleave freely across the pool; the merge (``build_merge``)
    then folds each instance's levels in increasing order, preserving the
    sequential fold's tie-breaking exactly.  Per-task worker wall clock is
    recorded in the ``level_solve`` histogram, mirroring the sequential
    solver's span.

    Results are returned in ``instances`` order and are identical to what
    ``solve_pde`` would produce for each instance sequentially.
    """
    obs = registry if registry is not None else NULL_REGISTRY
    if build_workers < 1:
        raise ValueError("build_workers must be >= 1")
    prepared = []
    for inst in instances:
        try:
            graph = graphs[inst.token]
        except KeyError:
            raise ValueError(f"instance references unregistered graph "
                             f"token {inst.token!r}") from None
        if inst.engine not in PARALLEL_PDE_ENGINES:
            raise ValueError(
                f"engine {inst.engine!r} does not support parallel builds; "
                f"available: {sorted(PARALLEL_PDE_ENGINES)}")
        source_set = validate_pde_instance(graph, inst.sources, inst.h,
                                           inst.sigma, inst.engine)
        rounding = RoundingScheme(epsilon=inst.epsilon,
                                  max_weight=graph.max_weight())
        prepared.append((inst, sorted(source_set, key=repr), rounding,
                         rounding.horizon(inst.h)))

    csrs = {token: GraphCSR.from_graph(g) for token, g in graphs.items()}
    executor = ProcessPoolExecutor(max_workers=build_workers,
                                   mp_context=get_context("spawn"),
                                   initializer=_init_worker,
                                   initargs=(csrs,))
    try:
        futures = {}
        with obs.span("build_scatter"):
            for idx, (inst, ranked, rounding, horizon) in enumerate(prepared):
                node_id = csrs[inst.token].node_ids()
                source_ids = [node_id[s] for s in ranked]
                for level in rounding.levels():
                    task = {
                        "token": inst.token,
                        "source_ids": source_ids,
                        "horizon": horizon,
                        "sigma": inst.sigma,
                        "base": rounding.base(level),
                        "level": level,
                        "engine": inst.engine,
                    }
                    futures[(idx, level)] = executor.submit(
                        _run_detection_task, task)

        results: List[PDEResult] = []
        for idx, (inst, ranked, rounding, horizon) in enumerate(prepared):
            nodes = csrs[inst.token].nodes
            table: FoldTable = [{} for _ in nodes]
            per_level: Dict[int, SourceDetectionResult] = {}
            level_metrics: List[CongestMetrics] = []
            with obs.span("build_merge"):
                for level in rounding.levels():
                    payload = _await_task(futures.pop((idx, level)))
                    obs.histogram("level_solve").observe(payload["seconds"])
                    lists = payload["lists"]
                    # Both pool-eligible engines report the same analytic
                    # cost; rebuilding it here keeps reply pickles lean.
                    metrics = CongestMetrics(rounds=horizon + inst.sigma,
                                             measured=False)
                    level_metrics.append(metrics)
                    fold_detection_lists(lists, rounding, level, table)
                    if inst.store_levels:
                        per_level[level] = materialize_detection(
                            SourceDetectionResult(
                                lists=lists, h=horizon, sigma=inst.sigma,
                                metrics=metrics), nodes, ranked)
            results.append(finalize_pde_result(
                nodes, ranked, inst.h, inst.sigma, inst.epsilon, rounding,
                table, level_metrics, per_level, inst.store_levels))
        return results
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def solve_pde_parallel(graph: WeightedGraph, sources: Iterable[Hashable],
                       h: int, sigma: int, epsilon: float, engine: str,
                       build_workers: int, store_levels: bool = False,
                       registry=None) -> PDEResult:
    """Parallel twin of :func:`repro.core.pde.solve_pde` for one instance.

    ``solve_pde(..., build_workers=N)`` dispatches here; the instance's
    rounding levels fan across the pool and merge deterministically.
    """
    instance = PDEInstance(token="graph", sources=tuple(sources), h=h,
                           sigma=sigma, epsilon=epsilon, engine=engine,
                           store_levels=store_levels)
    return solve_pde_instances([instance], {"graph": graph},
                               build_workers=build_workers,
                               registry=registry)[0]
