"""All-pairs probe of the routing invariant: a route realises its estimate.

    PYTHONPATH=src python benchmarks/probe_route_invariant.py --out FILE
    PYTHONPATH=src python benchmarks/probe_route_invariant.py \
        --graph road:rows=8,cols=8 --out FILE

A route is a real path no heavier than the estimate it was selected on:
``trace.weight <= trace.estimate``, and so ``trace.weight / wd`` is within
the scheme's stretch bound whenever the estimate is.  For every graph of
:data:`GRAPHS` (or the one ``--graph SPEC``) this builds and routes every
ordered pair of 9 hierarchies and 6 relabeling schemes, and compares
against exact Dijkstra distances — 45 hierarchies and 30 relabeling schemes
for the committed matrix:

* hierarchies (Thorup–Zwick, Theorems 4.8 / 4.13, bound ``4k - 3``):
  ``budget/spd/truncated`` x ``k in {2, 3, 4}``, ``build_compact_routing``
  with ``epsilon=0.25``, ``engine="batched"``, ``seed=0``, routed through
  ``route_batch(pairs, kernel="dict")``;
* ``relabel`` rows (Theorem 4.5, bound ``6k - 1``):
  ``RelabelingRoutingScheme.build`` with ``budget_constant c in {2, 0.5,
  0.2}`` x ``k in {2, 3}``, ``epsilon=0.25``, ``seed=0``, routed through
  ``route``.  At ``c = 2`` the detection budget covers these graphs whole,
  so every pair is short-range; the smaller ``c`` put pairs on the
  skeleton path, whose share is the ``long`` column.

One row per scheme: ``pairs``, ``over_est`` (delivered routes heavier than
their own estimate), ``max_w/est``, ``over_4k-3`` / ``over_6k-1``, ``max``
and ``mean`` stretch, ``inf_est`` (``estimate == inf``) and ``failed``
(undelivered, or delivered but refused by
:func:`repro.routing.stretch.validate_route`: not an edge path from source
to target in the graph, or a weight — summed from the trees' ``dist``
tables — other than the path's weight in the graph).  The hierarchy rows come
first, under the header they have always had; the ``relabel`` rows follow
under their own.  The report holds no timing, so it repeats exactly on any
host — CI diffs it against ``benchmarks/profiles/route_invariant_pr28.txt``.
The exit code is the number of violations (``over_est`` + over the bound +
``inf_est`` + ``failed``, capped at 255).
"""

import argparse
import functools
import itertools
import sys

from repro.graphs import all_pairs_weighted_distances
from repro.routing import (RelabelingRoutingScheme, build_compact_routing,
                           validate_route)
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
RELABEL_CS = (2, 0.5, 0.2)
RELABEL_KS = (2, 3)
#: Slack for float sums: a route's weight is an integer sum, its estimate a
#: sum of ``(1+eps)``-rounded floats.
TOLERANCE = 1e-9
INF = float("inf")

COLUMNS = ("pairs", "over_est", "max_w/est", "over_4k-3", "max", "mean",
           "inf_est", "failed")
RELABEL_COLUMNS = COLUMNS[:3] + ("over_6k-1",) + COLUMNS[4:] + ("long",)


def probe_traces(traces, graph, exact, bound):
    """One row of the report (``COLUMNS`` order) and its violation count."""
    pairs = over_estimate = over_bound = inf_estimates = failed = 0
    worst_ratio = worst_stretch = total_stretch = 0.0
    for trace in traces:
        pairs += 1
        inf_estimates += trace.estimate == INF
        if not validate_route(graph, trace):
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
    delivered = pairs - failed
    row = (pairs, over_estimate, f"{worst_ratio:.3f}", over_bound,
           f"{worst_stretch:.3f}", f"{total_stretch / max(1, delivered):.3f}",
           inf_estimates, failed)
    return row, over_estimate + over_bound + inf_estimates + failed


@functools.lru_cache(maxsize=None)
def graph_inputs(spec):
    """``(graph, all ordered pairs, exact distances)`` of one graph spec."""
    graph = parse_graph_spec(spec)
    return (graph, list(itertools.permutations(graph.nodes(), 2)),
            all_pairs_weighted_distances(graph))


def hierarchy_rows(spec):
    """``(prefix, row, violations)`` of the 9 hierarchies of one graph."""
    graph, pairs, exact = graph_inputs(spec)
    for mode, k in itertools.product(MODES, KS):
        hierarchy = build_compact_routing(
            graph, k=k, epsilon=0.25, engine="batched", mode=mode)
        row, bad = probe_traces(hierarchy.route_batch(pairs, kernel="dict"),
                                graph, exact, 4 * k - 3)
        yield f"{spec:<30}{mode:<11}{k:>2}", row, bad


def relabel_rows(spec):
    """``(prefix, row, violations)`` of the 6 relabeling schemes of one
    graph; ``long`` is the share of pairs on the long-range path."""
    graph, pairs, exact = graph_inputs(spec)
    for c, k in itertools.product(RELABEL_CS, RELABEL_KS):
        scheme = RelabelingRoutingScheme.build(graph, k=k, epsilon=0.25,
                                               seed=0, budget_constant=c)
        row, bad = probe_traces((scheme.route(s, t) for s, t in pairs),
                                graph, exact, 6 * k - 1)
        yield (f"{spec:<30}{'relabel':<11}{k:>2}{c:>5}",
               row + (f"{scheme.long_range_fraction(pairs):.3f}",), bad)


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
    sections = (
        (f"{'graph':<30}{'mode':<11}{'k':>2}", COLUMNS, hierarchy_rows),
        (f"{'graph':<30}{'scheme':<11}{'k':>2}{'c':>5}", RELABEL_COLUMNS,
         relabel_rows),
    )
    violations = 0
    try:
        for header, columns, rows in sections:
            out.write(header + "".join(f"{name:>11}" for name in columns)
                      + "\n")
            for spec in args.graph or GRAPHS:
                for prefix, row, bad in rows(spec):
                    violations += bad
                    out.write(prefix + "".join(f"{value:>11}" for value in row)
                              + "\n")
                    out.flush()
        out.write(f"violations {violations}\n")
    finally:
        if args.out:
            out.close()
    return min(violations, 255)


if __name__ == "__main__":
    raise SystemExit(main())
