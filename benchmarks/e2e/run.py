#!/usr/bin/env python3
"""End-to-end performance ledger: build, APSP, local and remote serving.

One workload run (what the benchmark driver invokes)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it is the ledger: every workload in a fresh
subprocess, untraced and then traced, collected into ``OUT/result.json``
with a provenance block.  ``--compare A B`` checks two such files against
the bounds in ``BENCHMARK.json``.  ``--smoke`` swaps in tiny sizes.

Metric names, units, directions and bounds are declared once, in
``BENCHMARK.json``; see ``README.md`` for definitions and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: Seeds: runs use ``DEFAULT_SEED``; ``HELD_OUT_SEED`` is reserved for
#: confirming a claim on inputs nobody tuned against.
DEFAULT_SEED = 20150721
HELD_OUT_SEED = 4111987

#: Per-child deadline of the ledger (the driver's own limit is 180 s).
CHILD_DEADLINE_S = 175.0


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, whole ledger in < 15 s")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="result directory "
                             "(default: .bench_work/out in the checkout)")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger: untraced runs per workload, on seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result.json files and exit")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, manifest: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found — the benchmark runs the "
              f"program from source and there is none here", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hostclock
    clock = hostclock.HostClock()
    clock.start_timer()         # before the program is imported: set-up too
    import measure              # is reported at the reference host speed
    import runner
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; declared: "
              f"{sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else float(manifest["run_seconds"]))
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    scratch = os.path.join(ROOT, ".bench_work")
    out_dir = args.out or os.path.join(scratch, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=scratch)
    stem = os.path.join(out_dir,
                        f"{spec.name}-seed{args.seed}-trace{args.trace}")
    run = runner.Run(spec, args.seed, args.smoke, SRC, workdir, clock)
    try:
        if args.trace:
            values, extra = runner.run_traced(run, stem + ".trace.jsonl")
        else:
            values, extra = runner.run_end_to_end(run, seconds, STARTED)
    finally:
        clock.stop_timer()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        print(f"error: emitted metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(units) - set(values))}, "
              f"undeclared {sorted(set(values) - set(units))}",
              file=sys.stderr)
        return 2
    correct = run.failed == 0
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record = {
        "workload": spec.name, "trace": args.trace, "smoke": args.smoke,
        "seconds": seconds, "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / max(1, run.attempted),
        "metrics": metrics, "detail": extra.get("detail", {}),
        "provenance": measure.provenance(ROOT, args.seed, clock,
                                         extra["counts"]),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {spec.name} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed}"
          + (" NOISY HOST" if record["provenance"]["noisy_host"] else ""))
    for name in units:
        print(f"{name:48s} {values[name]:>16.6f} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the ledger: every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_ledger(args: argparse.Namespace, manifest: dict) -> int:
    out_dir = os.path.abspath(
        args.out or os.path.join(ROOT, ".bench_work", "out"))
    os.makedirs(out_dir, exist_ok=True)
    names = [entry["name"] for entry in manifest["workloads"]]
    plan = [(name, args.seed + index, 0)
            for name in names for index in range(args.runs)]
    plan += [(name, args.seed, 1) for name in names]
    runs, failures = [], 0
    for name, seed, trace in plan:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(seed),
                   "--trace", str(trace), "--out", out_dir]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        record_path = os.path.join(out_dir,
                                   f"{name}-seed{seed}-trace{trace}.json")
        if os.path.exists(record_path):
            os.remove(record_path)
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_DEADLINE_S)
            code, output = done.returncode, done.stdout + done.stderr
        except subprocess.TimeoutExpired as exc:
            code, output = -1, f"timed out after {exc.timeout}s"
        lines = output.strip().splitlines()
        print("\n".join(lines[:-1] if code == 0 else lines), flush=True)
        if code != 0 or not os.path.exists(record_path):
            failures += 1
            runs.append({"workload": name, "seed": seed, "trace": trace,
                         "correct": False, "exit_code": code})
            continue
        with open(record_path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    result_path = os.path.join(out_dir, "result.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=2, sort_keys=True)
    print(f"# wrote {result_path}: {len(runs)} runs, {failures} failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(MANIFEST):
        print(f"error: {MANIFEST} not found", file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.compare:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(args.compare[0], args.compare[1], manifest)
    if args.workload:
        return run_workload(args, manifest)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found", file=sys.stderr)
        return 2
    return run_ledger(args, manifest)


if __name__ == "__main__":
    raise SystemExit(main())
