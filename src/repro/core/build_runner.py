"""The ordered task runner behind every build fan-out.

How many processes execute a build is not part of the algorithm: Theorem
3.3's rounding levels and Section 4.3's hierarchy levels are each a list of
independent tasks whose results are consumed in list order.  :func:`run_tasks` is the one place that decides how
such a list runs:

* one worker (or a single task) — in-process and lazily: each task runs when
  the consumer asks for its result, so nothing is computed ahead of the fold
  that uses it and nothing outlives it;
* otherwise — on a spawn-based :class:`~concurrent.futures.
  ProcessPoolExecutor`: every task is submitted up front (under a
  ``build_scatter`` span), results are handed out in task order whatever
  order they complete in, and a reply is dropped once the consumer has
  moved on to the next.

**Determinism contract.**  A task is a pure function of its payload and the
``shared`` state, both computed in the driving process and shipped verbatim,
and the consumer sees results in task order — so the worker count may change
wall clock and *nothing else*.  The callers' folds add the only other
ordering they rely on (see :func:`repro.core.pde.fold_detection_lists`).

**Failure contract.**  This is also the only place that turns a dead worker
(OOM kill, hard crash) or a failing pooled task into a typed
:class:`ParallelBuildError` — never a hang.  Callers write artifacts only
from a fully consumed stream (atomically), so a failed build leaves nothing
partial on disk.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Iterator, Sequence, Tuple

from ..obs.metrics import NULL_REGISTRY

__all__ = [
    "CRASH_ENV_VAR",
    "ParallelBuildError",
    "check_build_workers",
    "run_tasks",
]

#: Test hook: a pool worker that picks up the task labelled with this
#: variable's value (``"<graph token>:<rounding level>"`` for detection
#: tasks) hard-exits instead of running it, simulating a mid-build worker
#: death.  Spawned children inherit the parent's environment, so tests set
#: it around a build call.  The in-process path never looks at it.
CRASH_ENV_VAR = "REPRO_BUILD_CRASH_TASK"


class ParallelBuildError(RuntimeError):
    """A pooled build failed (worker death or task error).

    Raised in the driving process; by the time callers see it no partial
    state has escaped — artifacts are written only from a complete merge.
    """


def check_build_workers(build_workers: int) -> None:
    """Reject a worker count below 1 (the one such check for library calls)."""
    if build_workers < 1:
        raise ValueError(f"build_workers must be >= 1, got {build_workers}")


# ----------------------------------------------------------------------
# worker side (spawned processes)
# ----------------------------------------------------------------------
#: The ``shared`` state of the pool this process belongs to, delivered once
#: by the pool initializer; tasks may cache per-process derived state on it.
_SHARED: Any = None


def _init_worker(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def _call_task(fn: Callable[[Any, Any], Any], label: str, payload: Any) -> Any:
    if os.environ.get(CRASH_ENV_VAR) == label:
        os._exit(19)  # simulated hard worker death (tests only)
    return fn(payload, _SHARED)


# ----------------------------------------------------------------------
# driving process
# ----------------------------------------------------------------------
def run_tasks(fn: Callable[[Any, Any], Any],
              tasks: Sequence[Tuple[str, Any]], shared: Any,
              build_workers: int, registry=None) -> Iterator[Any]:
    """Yield ``fn(payload, shared)`` for every ``(label, payload)`` task, in order.

    ``fn`` must be a module-level function (pool workers import it by name)
    and ``shared`` picklable; the in-process path hands ``shared`` over as
    is, so a task may keep derived state on it either way.  The returned
    generator owns the pool: exhaust it or ``close()`` it.
    """
    check_build_workers(build_workers)
    workers = min(build_workers, len(tasks))
    if workers <= 1:
        return (fn(payload, shared) for _, payload in tasks)
    return _run_pooled(fn, tasks, shared, workers,
                       registry if registry is not None else NULL_REGISTRY)


def _run_pooled(fn, tasks, shared, workers: int, obs) -> Iterator[Any]:
    # Imported here: loading multiprocessing costs over a megabyte of
    # resident memory that in-process builds never need.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    executor = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=get_context("spawn"),
                                   initializer=_init_worker,
                                   initargs=(shared,))
    try:
        with obs.span("build_scatter"):
            futures = deque(executor.submit(_call_task, fn, label, payload)
                            for label, payload in tasks)
        while futures:
            try:
                # Popped: the queue must not keep folded replies alive.
                reply = futures.popleft().result()
            except BrokenProcessPool as exc:
                raise ParallelBuildError(
                    "a parallel build worker died before completing its "
                    "task; the build was abandoned and nothing partial was "
                    "produced") from exc
            except Exception as exc:
                raise ParallelBuildError(
                    f"a parallel build task failed: {exc}") from exc
            yield reply
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
