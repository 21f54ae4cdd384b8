"""Profile the ``batched`` detection core on the ledger's two build graphs.

    PYTHONPATH=src python benchmarks/profile_detection.py --out FILE
    PYTHONPATH=src python benchmarks/profile_detection.py \
        --graph road:rows=50,cols=50 --out FILE

Runs one ``build_compact_routing`` on the ``build_er`` graph (ER n=300,
weights 1..64) and one ``approximate_apsp`` on the ``apsp_er`` graph (ER
n=200) — the same generator calls and seed as ``benchmarks/e2e`` — or, with
``--graph SPEC`` (any ``repro.serving`` graph spec), one
``build_compact_routing`` on that graph.  Each runs under ``cProfile``, and
the report holds the top 25 functions by own time plus the queue traffic of
the detection kernel: pushes, pops and settles, in total and per instance
shape ``(kernel, |S|, h', sigma)``.  Kernel calls made by level tasks are
the ``detections``; the searches ``level_stream`` runs to plan the levels
(one per connected component of a ``sigma >= |S|`` instance) are counted
apart, as ``plan searches`` and ``plan:`` rows.

The counts come from a separate pass under ``sys.setprofile`` that tallies
the builtin calls made *from the kernel's own frame* and reads the triples
off the frame's return value, so the kernel carries no counters; each entry
of :data:`KERNELS` says how one kernel's calls add up to its pushes (every
pushed item is drained, so pops equal pushes).  The counts repeat exactly
from run to run and host to host — CI diffs the ``detections`` and ``plan
searches`` lines against ``benchmarks/profiles/detection_pr25.txt``
(``detection_pr16.txt`` is the record before level planning).
(``cProfile``'s own caller table is not used: it keys bound builtin methods
by object address and loses them at this scale.)  ``cProfile`` inflates
call-heavy code, so the seconds here rank candidates;
``benchmarks/e2e/run.py`` measures.
"""

import argparse
import cProfile
import pstats
import sys

from repro import graphs
from repro.core import approximate_apsp
from repro.routing import build_compact_routing
from repro.serving import parse_graph_spec

#: The frames of ``core/source_detection.py`` that own a queue loop, each
#: with ``(builtin calls of one kernel call, its settles) -> (pushes,
#: non-empty buckets drained)``.
KERNELS = {
    # Every push is an ``append`` and so is every settle; a non-empty bucket
    # is sorted once.
    "_detect_pruned": lambda calls, settles: (
        calls.get("append", 0) - settles, calls.get("sort", 0)),
    # A bucket is born as a one-item list literal — a push no call records —
    # and measured by one ``len`` when it is drained (one more ``len`` sizes
    # the scratch lists); later pushes ``append`` to it.  A settle appends
    # twice: to the source's settle order, then to the node's list.
    "_detect_per_source": lambda calls, settles: (
        calls.get("len", 0) - 1 + calls.get("append", 0) - 2 * settles,
        calls.get("len", 0) - 1),
}
#: The level task (``repro.core.pde._solve_level``): a kernel call beneath
#: it is one ``(instance, rounding level)`` detection; any other kernel call
#: is a search the level plan made before the tasks existed.
LEVEL_TASK = "_solve_level"
DEFAULT_SEED = 20150721


def _er(n, seed):
    return graphs.erdos_renyi_graph(n, 6.0 / (n - 1),
                                    graphs.uniform_weights(1, 64), seed=seed)


WORKLOADS = {
    "build_er": lambda seed: build_compact_routing(
        _er(300, seed), k=3, epsilon=0.25, engine="batched"),
    "apsp_er": lambda seed: approximate_apsp(_er(200, seed), 0.25),
}


def _in_level_task(frame):
    """Whether a kernel frame runs inside a level task (a detection) rather
    than for the plan ``level_stream`` makes before the tasks exist."""
    while frame is not None:
        if frame.f_code.co_name == LEVEL_TASK:
            return True
        frame = frame.f_back
    return False


def count_kernel_calls(workload):
    """Queue traffic of every kernel call ``workload()`` makes.

    Returns ``{(kernel, |S|, h', sigma): [calls, pushes, buckets, settles]}``
    and ``{builtin name: calls from a kernel frame}``; the kernel name of a
    planning search is prefixed ``plan:``.
    """
    shapes = {}
    totals = {}
    current = {}

    def on_event(frame, event, arg):
        kernel = frame.f_code.co_name
        if kernel not in KERNELS:
            return
        if event == "c_call":
            current[arg.__name__] = current.get(arg.__name__, 0) + 1
        elif event == "return" and arg is not None:
            settles = sum(map(len, arg))
            pushes, buckets = KERNELS[kernel](current, settles)
            args = frame.f_locals
            role = "" if _in_level_task(frame) else "plan:"
            shape = (role + kernel, len(args["source_ids"]), args["h"],
                     args.get("sigma", "-"))
            row = shapes.setdefault(shape, [0, 0, 0, 0])
            for i, value in enumerate((1, pushes, buckets, settles)):
                row[i] += value
            for name, count in current.items():
                totals[name] = totals.get(name, 0) + count
            current.clear()

    sys.setprofile(on_event)
    try:
        workload()
    finally:
        sys.setprofile(None)
    return shapes, totals


def _tally(shapes, plan):
    rows = [row for shape, row in shapes.items()
            if shape[0].startswith("plan:") == plan]
    calls, pushes, _, settles = [sum(column) for column in zip(*rows)] \
        or [0] * 4
    return f"{calls}  pushes {pushes}  pops {pushes}  settles {settles}"


def profile_workload(title, workload, out):
    shapes, totals = count_kernel_calls(workload)
    out.write(f"== {title} ==\n")
    out.write(f"detections {_tally(shapes, plan=False)}\n")
    out.write(f"plan searches {_tally(shapes, plan=True)}\n")
    out.write("builtin calls from the kernel frames: "
              + ", ".join(f"{k} {v}" for k, v in sorted(totals.items()))
              + "\n")
    out.write(f"{'kernel':<24}{'|S|':>6}{'h_':>7}{'sigma':>7}{'calls':>7}"
              f"{'pushes':>12}{'buckets':>10}{'settles':>12}\n")
    for shape, row in sorted(shapes.items(), key=lambda item: -item[1][1]):
        out.write("{:<24}{:>6}{:>7}{:>7}{:>7}{:>12}{:>10}{:>12}\n"
                  .format(*shape, *row))
    profiler = cProfile.Profile()
    profiler.runcall(workload)
    pstats.Stats(profiler, stream=out).strip_dirs() \
        .sort_stats("tottime").print_stats(25)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--graph", default=None, metavar="SPEC",
                        help="profile one hierarchy build on this graph spec "
                             "(e.g. road:rows=50,cols=50) instead of the two "
                             "ledger graphs")
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    args = parser.parse_args(argv)
    if args.graph:
        graph = parse_graph_spec(args.graph)
        runs = {f"{args.graph} (n={graph.num_nodes} m={graph.num_edges})":
                lambda: build_compact_routing(graph, k=3, epsilon=0.25,
                                              engine="batched")}
    else:
        runs = {f"{name} (seed {args.seed})":
                lambda workload=workload: workload(args.seed)
                for name, workload in WORKLOADS.items()}
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for title, workload in runs.items():
            profile_workload(title, workload, out)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
