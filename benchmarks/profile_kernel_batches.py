"""Which batch sizes reach the columnar kernel's level selection.

    PYTHONPATH=src python benchmarks/profile_kernel_batches.py --out FILE

Runs every workload of ``BENCHMARK.json`` once through
``benchmarks/e2e/run.py --workload NAME --trace 0`` (untraced, the
manifest's own run length) and records the size of every
``ColumnarQueryKernel.select_batch`` call made by any process of the run —
``repro-serve`` and its shard workers included, which is where the remote
workload's cache misses are selected.  A ``sitecustomize`` module put on
``PYTHONPATH`` installs the recorder as each interpreter starts, so the
program itself carries no counter.

One line per workload and size bin gives the calls and the pairs they
carried; the ``share`` line gives the share of selected pairs that arrive
in batches below ``tables.VECTOR_MIN_PAIRS`` (the per-pair loop) and at or
above it (the vectorised path).  A workload that never reaches the kernel
(``apsp_er``; the remote one's timed rounds all hit the cache) shows only
the calls of its set-up and warm-up.

With ``benchmarks/profile_local_query.py``'s ``sweep`` lines — the cost
per pair of both paths at each batch size — this is what
``VECTOR_MIN_PAIRS`` is set from.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")
sys.path.insert(0, SRC)

from repro.routing import tables  # noqa: E402

#: Lower edges of the size bins (the last bin is open).
BINS = (1, 2, 8, 16, 24, 32, 64, 65)

#: Installed in every interpreter of a run: appends the size of each
#: ``select_batch`` call, one decimal line per call, to a file per process
#: (written at once: the server's workers are stopped by signal).
HOOK = '''\
import os

def _install(directory):
    from repro.routing import tables
    select_batch = tables.ColumnarQueryKernel.select_batch
    fd = None

    def recording(self, pairs):
        nonlocal fd
        pairs = list(pairs)
        if fd is None:
            fd = os.open(os.path.join(directory, f"{{os.getpid()}}.sizes"),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(fd, b"%d\\n" % len(pairs))
        return select_batch(self, pairs)

    tables.ColumnarQueryKernel.select_batch = recording

_install({directory!r})
'''


def bin_of(size):
    return max(edge for edge in BINS if edge <= size)


def bin_label(edge):
    following = [later for later in BINS if later > edge]
    if not following:
        return f"{edge}+"
    upper = following[0] - 1
    return str(edge) if upper == edge else f"{edge}-{upper}"


def record_sizes(workload, seed, workdir):
    """``Counter(size -> calls)`` of one untraced run of ``workload``."""
    hook_dir = os.path.join(workdir, f"{workload}-hook")
    sizes_dir = os.path.join(workdir, f"{workload}-sizes")
    os.makedirs(hook_dir)
    os.makedirs(sizes_dir)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as fh:
        fh.write(HOOK.format(directory=sizes_dir))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", "0", "--out", os.path.join(workdir, "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} run failed ({done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    sizes = collections.Counter()
    for name in os.listdir(sizes_dir):
        with open(os.path.join(sizes_dir, name), encoding="ascii") as fh:
            sizes.update(int(line) for line in fh)
    return sizes


def report(workload, sizes, out):
    calls = collections.Counter()
    pairs = collections.Counter()
    for size, count in sizes.items():
        calls[bin_of(size)] += count
        pairs[bin_of(size)] += size * count
    total = sum(pairs.values())
    out.write(f"== {workload}: {sum(calls.values())} select_batch calls, "
              f"{total} pairs ==\n")
    for edge in BINS:
        if calls[edge]:
            out.write(f"batch {bin_label(edge):>6}  calls {calls[edge]:>7}"
                      f"  pairs {pairs[edge]:>8}"
                      f"  = {pairs[edge] / total:.3f} of pairs\n")
    below = sum(size * count for size, count in sizes.items()
                if size < tables.VECTOR_MIN_PAIRS)
    out.write(f"share  below VECTOR_MIN_PAIRS={tables.VECTOR_MIN_PAIRS} "
              f"{below / total if total else 0.0:.3f}  at or above "
              f"{(total - below) / total if total else 0.0:.3f}\n")
    out.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20150721)
    parser.add_argument("--workload", action="append", default=None,
                        help="one workload (repeatable; default: all)")
    parser.add_argument("--out", default=None,
                        help="write the report here (default: stdout)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["workloads"]]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        with tempfile.TemporaryDirectory(prefix="kernel-batches-") as workdir:
            for workload in args.workload or names:
                report(workload, record_sizes(workload, args.seed, workdir),
                       out)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
