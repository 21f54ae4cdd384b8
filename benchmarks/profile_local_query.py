"""What one locally served pair costs, counted layer by layer.

    PYTHONPATH=src python benchmarks/profile_local_query.py --out FILE

Two shapes over the ledger's ``query_local_er`` graph (ER n=500, weights
1..8; graph and streams come from ``benchmarks/e2e/workloads.py`` so they
cannot drift): the workload's own — ``k=3``, 20,000 uniform pairs in batches
of 64 — and ``k=2`` under a zipf stream, whose bunch rows are longer and
whose sources repeat within a batch.  Each hierarchy is built, saved and
loaded back, then routed over the whole stream.  A loaded hierarchy selects
levels as the build does, in one pass per batch
(``CompactRoutingHierarchy._select_levels``): per pair and level, one probe
of the source's bunch dict for the target's pivot.

``counts`` lines say how much work that took, from counting stand-ins hung on
the *loaded objects* (the program carries no counters):

``levels_probed``      bunch-dict probes per pair (at most ``k``: the
                       selection stops at the first level that hits, and
                       skips a level without a pivot);
``anchor_entries``     skeleton-list entries handed to the anchor scan of
                       ``_skeleton_half``, per route: a node's list is
                       scanned once per ``(level, pivot)``, when its
                       half-route to the pivot is first needed;
``halves_stored``      entries of the half-route tables after the pass
                       (``_skeleton_tails``: one flat tuple per ``(level,
                       pivot, node)`` routed, the pivot's own included), so
                       a skeleton route is two table probes and one list;
``adjacency_lookups``  lookups in the graph's adjacency map made during the
                       whole ``route_batch`` pass, per hop of the routed
                       paths.  The load checks every tree against the
                       graph once, before the stand-in is hung; a route is
                       weighed from the trees' ``dist`` tables, so this
                       reads 0.

The counts repeat exactly on any host; CI diffs the ``==`` and ``counts``
lines against ``benchmarks/profiles/local_query_pr48.txt``.  ``time`` lines
are best-of-three microseconds per pair on un-instrumented objects —
informational; ``benchmarks/e2e/run.py`` measures.
"""

import argparse
import dataclasses
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "e2e"))
import workloads  # noqa: E402  (benchmarks/e2e)

from repro import routing, serving  # noqa: E402

DEFAULT_SEED = 20150721
SPEC = workloads.SPECS["query_local_er"]
SHAPES = (("query_local_er", 3, "uniform"), ("k2_zipf", 2, "zipf"))


class CountingBunch(dict):
    """A source's bunch at one level, counting the probes made in it."""

    def __init__(self, row, counts):
        super().__init__(row)
        self._counts = counts

    def get(self, key, default=None):
        self._counts["levels_probed"] += 1
        return super().get(key, default)


class CountingRow(dict):
    """A skeleton-list row that counts the entries it hands to a scan."""

    def __init__(self, row, counts):
        super().__init__(row)
        self._counts = counts

    def items(self):
        self._counts["anchor_entries"] += len(self)
        return super().items()


class CountingAdjacency(dict):
    """The graph's adjacency map, counting the lookups made in it."""

    lookups = 0

    def __getitem__(self, node):
        self.lookups += 1
        return super().__getitem__(node)

    def __contains__(self, node):
        self.lookups += 1
        return super().__contains__(node)


def instrument(hierarchy, counts):
    """Hang the counting stand-ins on one loaded hierarchy, and return the
    counting adjacency map now behind its graph."""
    for data in hierarchy.level_data:
        data.bunches = {node: CountingBunch(row, counts)
                        for node, row in data.bunches.items()}

    if hierarchy.skeleton_anchors is not None:      # a truncated-mode build
        anchors = hierarchy.skeleton_anchors
        for node, row in anchors.items():
            anchors[node] = CountingRow(row, counts)

    adjacency = CountingAdjacency(hierarchy.graph._adj)
    hierarchy.graph._adj = adjacency
    return adjacency


def count_pass(path, batches):
    hierarchy, _ = serving.load_hierarchy(path)
    counts = dict.fromkeys(("levels_probed", "anchor_entries", "hops"), 0)
    adjacency = instrument(hierarchy, counts)
    for batch in batches:
        counts["hops"] += sum(trace.hops
                              for trace in hierarchy.route_batch(batch))
    counts["adjacency_lookups"] = adjacency.lookups
    counts["halves_stored"] = sum(
        len(halves) for _, halves in hierarchy._skeleton_tail_tables.values())
    return counts


def best_us_per_pair(call, batches, pairs, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for batch in batches:
            call(batch)
        best = min(best, time.perf_counter() - start)
    return best * 1e6 / pairs


def time_pass(path, batches, pairs):
    hierarchy, _ = serving.load_hierarchy(path)
    timings = {
        "distance": best_us_per_pair(hierarchy.distance_batch, batches, pairs),
        "route": best_us_per_pair(hierarchy.route_batch, batches, pairs)}
    with serving.open_service(serving.ServingConfig(
            artifact_path=path, workers=1,
            cache=serving.CacheConfig(capacity=SPEC.cache))) as service:
        timings["service.route"] = best_us_per_pair(
            service.route_batch, batches, pairs)
    return timings


def profile_shape(name, k, stream_kind, seed, workdir, out):
    spec = dataclasses.replace(SPEC, stream=stream_kind)
    graph = workloads.make_graph(spec, seed, False)
    stream = workloads.make_stream(spec, graph.nodes(), seed, False)
    batches = [stream[lo:lo + spec.batch]
               for lo in range(0, len(stream), spec.batch)]
    path = os.path.join(workdir, f"{name}.artifact")
    serving.save_hierarchy(routing.build_compact_routing(
        graph, k=k, epsilon=workloads.EPSILON, engine="batched"),
        path, format=2)
    pairs = len(stream)
    out.write(f"== {name}: er n={graph.num_nodes} seed {seed}, k={k}, "
              f"{pairs} {stream_kind} pairs in {len(batches)} batches of "
              f"{spec.batch} ==\n")
    counts = count_pass(path, batches)
    hops = counts.pop("hops")
    for unit, total, names in (
            ("pair", pairs, ("levels_probed",)),
            ("route", pairs, ("anchor_entries", "halves_stored")),
            ("hop", hops, ("adjacency_lookups",))):
        out.write(f"counts per {unit:<6}({total} {unit}s)" + "".join(
            f"  {key} {counts[key]} = {counts[key] / total:.3f}"
            for key in names) + "\n")
    timings = time_pass(path, batches, pairs)
    out.write("time us/pair (informational)" + "".join(
        f"  {key} {value:.2f}" for key, value in timings.items()) + "\n")
    out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    args = parser.parse_args(argv)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        with tempfile.TemporaryDirectory(prefix="profile-local-") as workdir:
            for name, k, stream_kind in SHAPES:
                profile_shape(name, k, stream_kind, args.seed, workdir, out)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
