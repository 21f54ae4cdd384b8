"""Timing discipline shared by every workload: summaries, query passes and
provenance.

A *pass* is a fixed count of operations (one walk over the workload's batch
list), so counts repeat exactly from run to run; only the number of rounds
depends on ``--seconds``.  Timings are summarised as median / quartiles /
min / n over their per-pass or per-round samples.  Every pass keeps the
host clock ticking (see ``hostclock``) so its window can be reported at the
reference host speed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

Pair = Tuple[Any, Any]

#: Spread (IQR / median) of the host's one-second speeds above which it is
#: flagged noisy.
NOISY_HOST_SPREAD = 0.15


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min and sample count of one metric's samples."""
    values = list(values)
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "min": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 samples)."""
    summary = summarize(values)
    median = summary["value"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of pooled samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def batches_of(pairs: Sequence[Pair], size: int) -> List[List[Pair]]:
    return [list(pairs[i:i + size]) for i in range(0, len(pairs), size)]


def closed_loop_pass(call: Callable[[List[Pair]], List],
                     batches: Sequence[List[Pair]], clock
                     ) -> Tuple[float, List[float], List[List]]:
    """One outstanding batch at a time; the host clock ticks between
    batches, never inside one (call with its timer paused).

    Returns ``(seconds, per-batch seconds, answers)``; the answers are kept
    so the caller verifies them outside the timed region.
    """
    answers: List[List] = []
    latencies: List[float] = []
    for batch in batches:
        sent = time.perf_counter()
        answers.append(call(batch))
        done = time.perf_counter()
        latencies.append(done - sent)
        clock.tick(done)
    return sum(latencies), latencies, answers


def pipelined_pass(session, kind: str, batches: Sequence[List[Pair]], clock
                   ) -> Tuple[float, List[List]]:
    """Window-limited ``submit`` of every batch, then ``gather`` in order.

    ``submit`` blocks (reading answers) once the session's window is full,
    so at most ``window`` batches are in flight.  The host clock probes
    before and after, while nothing is in flight.
    """
    clock.tick(time.perf_counter())
    start = time.perf_counter()
    tickets = [session.submit(kind, batch) for batch in batches]
    answers = [session.gather(ticket) for ticket in tickets]
    seconds = time.perf_counter() - start
    clock.probe()
    return seconds, answers


def batch_answers(batches: Sequence[List[Pair]], reference: Dict[Pair, Any]
                  ) -> List[List]:
    """The reference answers laid out batch by batch."""
    return [[reference[pair] for pair in batch] for batch in batches]


def count_mismatches(expected: Sequence[List], answers: Sequence[List]) -> int:
    """Answers that differ from the expected ones (a short or missing batch
    counts every missing answer)."""
    failed = sum(len(want) for want in expected[len(answers):])
    for want, got in zip(expected, answers):
        if got != want:
            failed += max(0, len(want) - len(got))
            failed += sum(1 for a, b in zip(want, got) if a != b)
    return failed


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, seed: int, clock,
               counts: Dict[str, Any]) -> Dict[str, Any]:
    """Who/where/how block attached to every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    calib_spread = spread(clock.second_speeds())
    return {
        "commit": git_commit(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro_no_numpy": bool(os.environ.get("REPRO_NO_NUMPY")),
        "seed": seed,
        "argv": sys.argv[1:],
        "counts": counts,
        "host.calib_loop_s": summarize(clock.durations),
        "host.calib_spread": calib_spread,
        "noisy_host": calib_spread > NOISY_HOST_SPREAD,
    }
