"""All-pairs probe of the routing invariant: a route realises its estimate.

    PYTHONPATH=src python benchmarks/probe_route_invariant.py --out FILE
    PYTHONPATH=src python benchmarks/probe_route_invariant.py \
        --graph road:rows=8,cols=8 --out FILE

A route through pivot ``p`` is a real path no heavier than the table
estimate it was selected on (Thorup–Zwick, inherited by Theorems 4.8 / 4.13):
``trace.weight <= trace.estimate``, and so ``trace.weight / wd <= 4k - 3``
whenever the estimate is within the bound.  For every graph of
:data:`GRAPHS` (or the one ``--graph SPEC``) x ``budget/spd/truncated`` x
``k in {2, 3, 4}`` this builds one hierarchy (``epsilon=0.25``,
``engine="batched"``, ``seed=0``), routes every ordered pair through
``route_batch(pairs, kernel="dict")`` and compares against exact Dijkstra
distances.  One row per hierarchy:

``pairs``, ``over_est`` (delivered routes heavier than their own estimate),
``max_w/est``, ``over_4k-3``, ``max`` and ``mean`` stretch, ``fallback``
(query-time exact-path repairs), ``inf_est`` (``estimate == inf``) and
``failed`` (undelivered).  The report holds no timing, so it repeats exactly
on any host — CI diffs it against
``benchmarks/profiles/route_invariant_pr21.txt``.  The exit code is the
number of violations (``over_est + over_4k-3 + inf_est + failed``, capped at
255).
"""

import argparse
import itertools
import sys

from repro.graphs import all_pairs_weighted_distances
from repro.routing import build_compact_routing
from repro.serving import parse_graph_spec

GRAPHS = (
    "er:n=200,p=0.03,seed=1",
    "road:rows=12,cols=12,seed=1",
    "road:rows=20,cols=20,seed=5",
    "powerlaw:n=300,seed=1",
    "fattree:k=6",
)
MODES = ("budget", "spd", "truncated")
KS = (2, 3, 4)
#: Slack for float sums: a route's weight is an integer sum, its estimate a
#: sum of ``(1+eps)``-rounded floats.
TOLERANCE = 1e-9
INF = float("inf")

COLUMNS = ("pairs", "over_est", "max_w/est", "over_4k-3", "max", "mean",
           "fallback", "inf_est", "failed")


def probe_hierarchy(hierarchy, pairs, exact):
    """One row of the report (``COLUMNS`` order) and its violation count."""
    bound = 4 * hierarchy.k - 3
    over_estimate = over_bound = fallback = inf_estimates = failed = 0
    worst_ratio = worst_stretch = total_stretch = 0.0
    for trace in hierarchy.route_batch(pairs, kernel="dict"):
        fallback += trace.fallback_hops
        inf_estimates += trace.estimate == INF
        if not trace.delivered:
            failed += 1
            continue
        if trace.estimate != INF:
            ratio = trace.weight / trace.estimate
            worst_ratio = max(worst_ratio, ratio)
            over_estimate += ratio > 1 + TOLERANCE
        stretch = trace.weight / exact[trace.source][trace.target]
        worst_stretch = max(worst_stretch, stretch)
        total_stretch += stretch
        over_bound += stretch > bound * (1 + TOLERANCE)
    delivered = len(pairs) - failed
    row = (len(pairs), over_estimate, f"{worst_ratio:.3f}", over_bound,
           f"{worst_stretch:.3f}", f"{total_stretch / max(1, delivered):.3f}",
           fallback, inf_estimates, failed)
    return row, over_estimate + over_bound + inf_estimates + failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graph", action="append", default=None,
                        metavar="SPEC",
                        help="probe this graph spec instead of the committed "
                             "matrix (repeatable)")
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    args = parser.parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    violations = 0
    try:
        out.write(f"{'graph':<30}{'mode':<11}{'k':>2}"
                  + "".join(f"{name:>11}" for name in COLUMNS) + "\n")
        for spec in args.graph or GRAPHS:
            graph = parse_graph_spec(spec)
            pairs = list(itertools.permutations(graph.nodes(), 2))
            exact = all_pairs_weighted_distances(graph)
            for mode, k in itertools.product(MODES, KS):
                hierarchy = build_compact_routing(
                    graph, k=k, epsilon=0.25, engine="batched", mode=mode)
                row, bad = probe_hierarchy(hierarchy, pairs, exact)
                violations += bad
                out.write(f"{spec:<30}{mode:<11}{k:>2}"
                          + "".join(f"{value:>11}" for value in row) + "\n")
                out.flush()
        out.write(f"violations {violations}\n")
    finally:
        if args.out:
            out.close()
    return min(violations, 255)


if __name__ == "__main__":
    raise SystemExit(main())
