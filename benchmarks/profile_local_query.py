"""What one locally served pair costs, counted layer by layer.

    PYTHONPATH=src python benchmarks/profile_local_query.py --out FILE

Two shapes over the ledger's ``query_local_er`` graph (ER n=500, weights
1..8; graph and streams come from ``benchmarks/e2e/workloads.py`` so they
cannot drift): the workload's own — ``k=3``, 20,000 uniform pairs in batches
of 64 — and ``k=2`` under a zipf stream, whose bunch rows are longer and
whose sources repeat within a batch.  Each hierarchy is built, saved and
loaded back, then routed over the whole stream through the columnar kernel.

``counts`` lines say how much work that took, from counting stand-ins hung on
the *loaded objects* (the program carries no counters):

``index_reads``        ``OffsetRecordTable._entry`` calls;
``rows_touched``       distinct ``(level, source)`` rows per batch (the
                       kernel's own ``bunch_rows_decoded`` stat);
``records_scanned``    records of the rows a reader method handed back, and
``values_decoded``     how many of their float64 values were unpacked —
                       :data:`ROW_READERS` says how each reader adds up;
``anchor_entries``     skeleton-list entries handed to the anchor scan of
                       ``_route_via_skeleton``, per route;
``adjacency_lookups``  lookups in the graph's adjacency map made during the
                       whole ``route_batch`` pass, per hop of the routed
                       paths.  The tree sections are materialised first
                       (loading a tree checks it against the graph once);
                       after that a route is weighed from the trees' ``dist``
                       tables, so this reads 0.

They repeat exactly on any host; CI diffs the ``==`` and ``counts`` lines
against ``benchmarks/profiles/local_query_pr29.txt``.  ``time`` lines are
best-of-three microseconds per pair on un-instrumented objects —
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

#: The ``OffsetRecordTable`` methods that hand a row's records to a caller:
#: ``name -> (records scanned, float64 values decoded)`` of one return value.
ROW_READERS = {
    "row_map": lambda row: (len(row), len(row)),        # whole row -> dict
    "row_keys": lambda found: (len(found[1]), 0),       # key column only
}


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


def instrument(hierarchy, kernel, counts):
    """Hang the counting stand-ins on one loaded hierarchy, and return the
    counting adjacency map now behind its graph."""
    table = kernel._bunch_table

    def counting(method, on_return):
        def wrapper(*args):
            result = method(*args)
            on_return(result)
            return result
        return wrapper

    def add(name, amount=1):
        counts[name] += amount

    table._entry = counting(table._entry, lambda _: add("index_reads"))
    for name, tally in ROW_READERS.items():
        if hasattr(table, name):
            def on_row(result, tally=tally):
                scanned, decoded = tally(result)
                add("records_scanned", scanned)
                add("values_decoded", decoded)
            setattr(table, name, counting(getattr(table, name), on_row))
    if hasattr(table, "value_at"):
        table.value_at = counting(table.value_at,
                                  lambda _: add("values_decoded"))

    if hierarchy.pde_skel is not None:      # a truncated-mode build
        estimates = hierarchy.pde_skel.estimates
        for node, row in estimates.items():
            estimates[node] = CountingRow(row, counts)

    # Every tree section is materialised (and checked) before counting.
    for data in hierarchy.level_data:
        data.trees
    adjacency = CountingAdjacency(hierarchy.graph._adj)
    hierarchy.graph._adj = adjacency
    return adjacency


def load(path):
    hierarchy, _ = serving.load_hierarchy(path)
    kernel = hierarchy.query_kernel(
        serving.resolve_query_kernel("auto", hierarchy))
    return hierarchy, kernel


def count_pass(path, batches):
    hierarchy, kernel = load(path)
    counts = dict.fromkeys(
        ("index_reads", "records_scanned", "values_decoded",
         "anchor_entries", "adjacency_lookups", "hops"), 0)
    adjacency = instrument(hierarchy, kernel, counts)
    for batch in batches:
        counts["hops"] += sum(trace.hops for trace in
                              hierarchy.route_batch(batch, kernel="columnar"))
    counts["adjacency_lookups"] = adjacency.lookups
    counts["rows_touched"] = kernel.stats["bunch_rows_decoded"]
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
    hierarchy, kernel = load(path)
    timings = {
        "select": best_us_per_pair(kernel.select_batch, batches, pairs),
        "distance": best_us_per_pair(hierarchy.distance_batch, batches, pairs),
        "route": best_us_per_pair(hierarchy.route_batch, batches, pairs),
    }
    with serving.open_service(serving.ServingConfig(
            artifact_path=path, workers=1, kernel="auto",
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
            ("pair", pairs, ("index_reads", "rows_touched",
                             "records_scanned", "values_decoded")),
            ("route", pairs, ("anchor_entries",)),
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
