"""Per-process CPU of the remote serving path, and the codec steps behind it.

    python benchmarks/profile_remote.py [--parent DIR] [--out FILE]

Starts ``repro-serve --workers 2 --cache-size 8192`` on the ledger's
``query_remote_road`` artifact (``road:rows=20,cols=20``) and zipf stream —
graph, stream and server launcher are imported from ``benchmarks/e2e`` so
they cannot drift — and drives pipelined route and distance passes through
one ``ClientSession`` at window 8, after a warm pass (every pair then hits
the workers' result caches).  Two tables come out, in microseconds per
pair:

* **CPU per process** — ``utime + stime`` of the client, the server and
  each shard worker from ``/proc/<pid>/stat`` around the measured passes,
  next to the wall time.  The server is one GIL: its CPU per pair is the
  floor of the wall time per pair, whatever the cores do.
* **Steps, timed from outside** — each codec or pickle step of one round
  trip, run alone in this process over the real batches and the real
  answers: what the server does to a query (decode the frame, pickle the
  shards), to the workers' results (unpickle objects or texts, encode the
  object tree, or splice texts) and what the client does to the reply
  (``json.loads`` inside ``read_frame``, ``decode_answers``).

``--parent DIR`` (a checkout of the parent commit) measures that tree
first, in its own subprocess, and prints both columns side by side; a
step a tree does not have (``splice_frame`` before PR 18) reads ``-``.
The host is shared and noisy: CPU per pair repeats to within a few
percent, wall time less well; the ledger (``benchmarks/e2e/run.py``)
decides claims, this says where the microseconds are.
"""

import argparse
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20150721
WINDOW = 8
#: Walks over the stream per CPU sample (a 10 ms tick is then 0.16 us/pair).
WALKS = 10
TICKS = os.sysconf("SC_CLK_TCK")

PROCESSES = ("client", "server", "worker 0", "worker 1")
STEPS = ("decode query", "pickle shards", "unpickle results (objects)",
         "unpickle results (texts)", "encode (object tree)",
         "splice (texts)", "client json.loads", "client decode_answers")


# ----------------------------------------------------------------------
# one tree, measured in this process (the --child mode)
# ----------------------------------------------------------------------
def cpu_seconds(pid):
    """``utime + stime`` of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS


def children_of(pid):
    """Direct children (the shard workers of a server), oldest first."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                parent = int(fh.read().rsplit(") ", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue        # exited while we looked
        if parent == pid:
            found.append(int(entry))
    return sorted(found)


def pipelined_pass(session, kind, batches):
    tickets = [session.submit(kind, batch) for batch in batches]
    return [session.gather(ticket) for ticket in tickets]


def measure_cpu(session, pids, kind, batches, passes):
    """Median per-pair CPU of every process, and wall, over ``passes``."""
    pairs = sum(len(batch) for batch in batches)
    samples = {name: [] for name in PROCESSES + ("wall",)}
    for _ in range(passes):
        before = [cpu_seconds(pid) for pid in pids]
        start = time.perf_counter()
        # Several walks per sample: /proc counts in 10 ms ticks.
        for _ in range(WALKS):
            pipelined_pass(session, kind, batches)
        wall = time.perf_counter() - start
        after = [cpu_seconds(pid) for pid in pids]
        for name, a, b in zip(PROCESSES, before, after):
            samples[name].append((b - a) * 1e6 / (WALKS * pairs))
        samples["wall"].append(wall * 1e6 / (WALKS * pairs))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def time_step(step, repeats=5):
    """Best-of-``repeats`` seconds of ``step()`` (the steps are pure)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


def measure_steps(wire, kind, batches, answers):
    """The outside-timed step table of one query kind, µs per pair."""
    pairs = sum(len(batch) for batch in batches)
    served = {"queries": pairs, "batches": len(batches)}
    queries = [wire.encode_frame({"type": "query", "id": index, "kind": kind,
                                  "pairs": wire.pack_pairs(batch)})
               for index, batch in enumerate(batches)]
    # The two workers' round-robin shards: position i goes to worker i % 2.
    shards = [[list(enumerate(batch))[worker::2] for worker in range(2)]
              for batch in batches]
    envelopes = [{"type": "answers", "id": index, "kind": kind,
                  "served": served} for index in range(len(batches))]
    replies = [wire.encode_frame({**envelope, "values":
                                  wire.encode_answers(kind, values)})
               for envelope, values in zip(envelopes, answers)]
    decoded = [wire.read_frame(io.BytesIO(reply))["values"]
               for reply in replies]
    dumps = lambda value: pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    objects = [dumps(list(enumerate(values))) for values in answers]
    steps = {
        "decode query": lambda: [
            wire.unpack_pairs(wire.read_frame(io.BytesIO(query))["pairs"])
            for query in queries],
        "pickle shards": lambda: [
            dumps(("query", 1, kind, shard, True))
            for pair in shards for shard in pair],
        "unpickle results (objects)": lambda: [
            pickle.loads(blob) for blob in objects],
        "encode (object tree)": lambda: [
            wire.encode_frame({**envelope, "values":
                               wire.encode_answers(kind, values)})
            for envelope, values in zip(envelopes, answers)],
        "client json.loads": lambda: [
            wire.read_frame(io.BytesIO(reply)) for reply in replies],
        "client decode_answers": lambda: [
            wire.decode_answers(kind, values) for values in decoded],
    }
    if hasattr(wire, "splice_frame"):
        texts = [wire.encode_answer_texts(kind, values) for values in answers]
        blobs = [dumps(list(enumerate(values))) for values in texts]
        spliced = [wire.splice_frame(envelope, values)
                   for envelope, values in zip(envelopes, texts)]
        if spliced != replies:
            raise SystemExit(f"{kind}: spliced frames differ from "
                             f"encode_frame of the object tree")
        steps["unpickle results (texts)"] = lambda: [
            pickle.loads(blob) for blob in blobs]
        steps["splice (texts)"] = lambda: [
            wire.splice_frame(envelope, values)
            for envelope, values in zip(envelopes, texts)]
    return {name: time_step(step) * 1e6 / pairs
            for name, step in steps.items()}


def child(args):
    """Measure the tree at ``args.src``; one JSON object on stdout."""
    sys.path[:0] = [args.src, os.path.join(HERE, "e2e")]
    import repro.serving as serving
    from repro.serving import wire
    import workloads

    spec = workloads.SPECS["query_remote_road"]
    graph = workloads.make_graph(spec, args.seed, False)
    stream = workloads.make_stream(spec, graph.nodes(), args.seed, False)
    batches = [stream[lo:lo + spec.batch]
               for lo in range(0, len(stream), spec.batch)]
    result = {"pairs": len(stream), "batches": len(batches),
              "distinct_pairs": len(set(stream))}
    with tempfile.TemporaryDirectory(prefix="profile-remote-") as workdir:
        product = workloads.build_product(spec, graph, workdir)
        server = workloads.ServerProcess(args.src, product.path, workers=2,
                                         cache=spec.cache)
        try:
            session = serving.ClientSession.connect(
                server.address(), timeout=workloads.CONNECT_DEADLINE,
                reply_timeout=workloads.REPLY_DEADLINE, window=WINDOW)
            with session:
                pids = [os.getpid(), server.process.pid]
                pids += children_of(server.process.pid)
                if len(pids) != len(PROCESSES):
                    raise SystemExit(f"expected 2 shard workers under the "
                                     f"server, found pids {pids[2:]}")
                for kind in ("route", "distance"):
                    answers = pipelined_pass(session, kind, batches)  # warm
                    result[kind] = {
                        "cpu": measure_cpu(session, pids, kind, batches,
                                           args.passes),
                        "steps": measure_steps(wire, kind, batches,
                                               answers)}
        finally:
            server.stop()
    print(json.dumps(result))


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def run_child(src, args):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", "--src", src,
         "--seed", str(args.seed), "--passes", str(args.passes)],
        check=True, stdout=subprocess.PIPE, text=True, timeout=600)
    return json.loads(out.stdout.splitlines()[-1])


def report(columns, args):
    """``columns``: ``[(label, child result), ...]`` side by side."""
    first = columns[0][1]
    lines = [
        f"# profile_remote: road:rows=20,cols=20 seed={args.seed}, "
        f"{first['pairs']} zipf pairs ({first['distinct_pairs']} distinct) "
        f"in {first['batches']} batches, 2 workers, cache 8192, "
        f"window {WINDOW}, {args.passes} samples of {WALKS} warm passes",
        "# microseconds per pair; CPU is utime+stime from /proc/<pid>/stat"]
    header = "".join(f"{label:>12}" for label, _ in columns)
    for kind in ("route", "distance"):
        for table, names in (("cpu", PROCESSES + ("wall",)),
                             ("steps", STEPS)):
            title = (f"{kind}: CPU per process" if table == "cpu"
                     else f"{kind}: steps, timed from outside")
            lines += ["", f"{title:<38}{header}"]
            for name in names:
                cells = [result[kind][table].get(name)
                         for _, result in columns]
                lines.append(f"  {name:<36}" + "".join(
                    f"{'-':>12}" if cell is None else f"{cell:>12.2f}"
                    for cell in cells))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="DIR",
                        help="checkout of the parent commit: measured first, "
                             "printed as the left column")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--passes", type=int, default=5,
                        help="CPU samples per query kind (median reported)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report here")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0
    columns = []
    if args.parent:
        columns.append(("parent", run_child(
            os.path.join(os.path.abspath(args.parent), "src"), args)))
    columns.append(("change" if args.parent else "this tree",
                    run_child(os.path.join(ROOT, "src"), args)))
    text = report(columns, args)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
