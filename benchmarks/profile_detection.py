"""Profile the ``batched`` detection core on the ledger's two build graphs.

    PYTHONPATH=src python benchmarks/profile_detection.py --out FILE

Runs one ``build_compact_routing`` on the ``build_er`` graph (ER n=300,
weights 1..64) and one ``approximate_apsp`` on the ``apsp_er`` graph (ER
n=200) — the same generator calls and seed as ``benchmarks/e2e`` — each
under ``cProfile``, and writes the top 25 functions by own time plus the
queue traffic of the detection kernel: pushes, pops and settles.

The counts come from a separate pass under ``sys.setprofile`` that tallies
the builtin calls made *from the kernel's own frame*, so the kernel carries
no counters: a heap kernel shows up as ``heappush``/``heappop`` calls, a
bucket kernel as ``append`` calls (queue pushes plus one per settle; every
pushed item is drained, so pops equal pushes).  Settles are the entries of
the returned lists.  (``cProfile``'s own caller table is not used: it keys
bound builtin methods by object address and loses them at this scale.)
``cProfile`` inflates call-heavy code, so the seconds here rank candidates;
``benchmarks/e2e/run.py`` measures.
"""

import argparse
import cProfile
import pstats
import sys

from repro import graphs
from repro.core import approximate_apsp
from repro.core import pde as pde_module
from repro.routing import build_compact_routing

#: Functions of ``core/source_detection.py`` that own the queue loop.
KERNELS = ("detect_sources_batched", "bucket_detect")
DEFAULT_SEED = 20150721


def _er(n, seed):
    return graphs.erdos_renyi_graph(n, 6.0 / (n - 1),
                                    graphs.uniform_weights(1, 64), seed=seed)


WORKLOADS = {
    "build_er": lambda seed: build_compact_routing(
        _er(300, seed), k=3, epsilon=0.25, engine="batched"),
    "apsp_er": lambda seed: approximate_apsp(_er(200, seed), 0.25),
}


def count_kernel_calls(name, seed):
    """``(detections, settles, {builtin name: calls from the kernel frame})``."""
    settled = [0, 0]
    calls = {}
    original = pde_module.detect_sources

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        settled[0] += 1
        settled[1] += sum(len(entries) for entries in result.lists.values())
        return result

    def on_event(frame, event, arg):
        if event == "c_call" and frame.f_code.co_name in KERNELS:
            calls[arg.__name__] = calls.get(arg.__name__, 0) + 1

    pde_module.detect_sources = counting
    sys.setprofile(on_event)
    try:
        WORKLOADS[name](seed)
    finally:
        sys.setprofile(None)
        pde_module.detect_sources = original
    return settled[0], settled[1], calls


def profile_workload(name, seed, out):
    detections, settles, calls = count_kernel_calls(name, seed)
    if "heappush" in calls:
        pushes, pops = calls["heappush"], calls["heappop"]
    else:
        pushes = pops = calls.get("append", 0) - settles
    out.write(f"== {name} (seed {seed}) ==\n")
    out.write(f"detections {detections}  pushes {pushes}  pops {pops}  "
              f"settles {settles}\n")
    out.write("builtin calls from the kernel frame: "
              + ", ".join(f"{k} {v}" for k, v in sorted(calls.items()))
              + "\n")
    profiler = cProfile.Profile()
    profiler.runcall(WORKLOADS[name], seed)
    pstats.Stats(profiler, stream=out).strip_dirs() \
        .sort_stats("tottime").print_stats(25)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    args = parser.parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for name in WORKLOADS:
            profile_workload(name, args.seed, out)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
