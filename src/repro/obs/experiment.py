"""``repro-experiment`` — regression-gated serving experiment harness.

A named experiment is one serving session (described entirely by
``repro-serve`` flags) run into a *run directory* that captures everything
needed to reproduce and to compare it later::

    repro-experiment run --name warm-cache --out runs \\
        -- --graph er:n=300,p=0.03,seed=1 --k 3 --workload zipf \\
           --queries 2000 --telemetry

    repro-experiment compare runs/warm-cache/<baseline> runs/warm-cache/<cand>

Each run directory holds three JSON files:

* ``config.json`` — the harness parameters plus the fully *resolved*
  :class:`~repro.serving.config.ServingConfig` (``to_dict()`` form), so the
  exact session can be re-run from the directory alone;
* ``metrics.json`` — the complete result record
  (the ``repro-serve --json`` schema: throughput, per-batch latency
  quantiles, stage split, serving counters, and — when ``--telemetry`` was
  passed — the full per-span histogram buckets);
* ``environment.json`` — provenance of where the run happened (python,
  platform, machine, timestamp).

``compare`` diffs two run directories against declared regression
thresholds (defaults: p99 per-batch latency and throughput may each be at
most 10% worse than baseline) and exits non-zero when any threshold is
violated — a CI gate, not just a report.

This module is *not* imported by ``repro.obs.__init__``: it pulls in the
serving stack, and the obs package proper must stay a dependency leaf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Threshold",
    "DEFAULT_THRESHOLDS",
    "environment_provenance",
    "write_run_directory",
    "record_benchmark_run",
    "load_run",
    "compare_runs",
    "main",
]


# ======================================================================
# thresholds
# ======================================================================

@dataclass(frozen=True)
class Threshold:
    """One regression gate: a metric, how much worse it may get, and which
    direction is "better".

    ``metric`` is a dotted path into the run's ``metrics.json`` record
    (e.g. ``latency_ms.p99`` or ``queries_per_second``);
    ``max_regression_pct`` is the largest tolerated regression in percent
    of the baseline value.
    """

    metric: str
    max_regression_pct: float
    higher_is_better: bool

    @classmethod
    def parse(cls, spec: str) -> "Threshold":
        """Parse ``metric:pct[:higher|lower]`` (direction = which way is
        *better*; default ``higher``, i.e. throughput-style)."""
        parts = spec.split(":")
        if not parts[0]:
            raise ValueError(f"threshold spec {spec!r} has no metric path")
        if len(parts) > 3:
            raise ValueError(
                f"threshold spec {spec!r} has too many fields "
                "(want metric:pct[:higher|lower])")
        pct = float(parts[1]) if len(parts) > 1 and parts[1] else 10.0
        direction = parts[2] if len(parts) > 2 else "higher"
        if direction not in ("higher", "lower"):
            raise ValueError(
                f"threshold direction must be 'higher' or 'lower' "
                f"(which way is better), got {direction!r}")
        return cls(metric=parts[0], max_regression_pct=pct,
                   higher_is_better=(direction == "higher"))


#: The default gates: per-batch p99 latency and end-to-end throughput may
#: each regress by at most 10% against the baseline run.
DEFAULT_THRESHOLDS: Tuple[Threshold, ...] = (
    Threshold("latency_ms.p99", 10.0, higher_is_better=False),
    Threshold("queries_per_second", 10.0, higher_is_better=True),
)


def _lookup(record: Mapping, path: str):
    """Walk a dotted path into nested dicts; ``None`` when absent."""
    node = record
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def compare_runs(baseline: Mapping, candidate: Mapping,
                 thresholds: Sequence[Threshold] = DEFAULT_THRESHOLDS,
                 ) -> List[Dict[str, object]]:
    """Evaluate every threshold over two ``metrics.json`` records.

    Returns one evaluation dict per threshold with keys ``metric``,
    ``baseline``, ``candidate``, ``regression_pct``, ``limit_pct`` and
    ``status`` (``ok`` / ``regression`` / ``skipped``).  A metric missing
    or null on either side is ``skipped`` — absence is not a pass, and the
    caller decides whether skips should fail the gate (the CLI reports
    them but only ``regression`` flips the exit code).
    """
    evaluations: List[Dict[str, object]] = []
    for threshold in thresholds:
        base = _lookup(baseline, threshold.metric)
        cand = _lookup(candidate, threshold.metric)
        entry: Dict[str, object] = {
            "metric": threshold.metric,
            "baseline": base,
            "candidate": cand,
            "limit_pct": threshold.max_regression_pct,
            "higher_is_better": threshold.higher_is_better,
        }
        if (not isinstance(base, (int, float)) or isinstance(base, bool)
                or not isinstance(cand, (int, float))
                or isinstance(cand, bool)):
            entry["regression_pct"] = None
            entry["status"] = "skipped"
            evaluations.append(entry)
            continue
        if base == 0:
            # No baseline signal to regress against: only flag movement in
            # the "worse" direction away from an exact zero.
            worse = cand < 0 if threshold.higher_is_better else cand > 0
            regression = math.inf if worse else 0.0
        elif threshold.higher_is_better:
            regression = (base - cand) / abs(base) * 100.0
        else:
            regression = (cand - base) / abs(base) * 100.0
        entry["regression_pct"] = (round(regression, 3)
                                   if math.isfinite(regression)
                                   else regression)
        entry["status"] = ("ok" if regression <= threshold.max_regression_pct
                           else "regression")
        evaluations.append(entry)
    return evaluations


# ======================================================================
# run directories
# ======================================================================

def environment_provenance() -> Dict[str, object]:
    """Where this run happened — recorded verbatim into the run directory."""
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": platform.node(),
        "pid": os.getpid(),
        "cwd": os.getcwd(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _write_json(path: str, payload: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def write_run_directory(run_dir: str, record: Mapping, config: Mapping,
                        environment: Optional[Mapping] = None) -> str:
    """Materialise one run directory (``config.json`` / ``metrics.json`` /
    ``environment.json``); returns ``run_dir``.

    Shared by the ``run`` subcommand and the benchmark scripts, so every
    producer emits the same layout ``compare`` and CI consume.
    """
    os.makedirs(run_dir, exist_ok=True)
    _write_json(os.path.join(run_dir, "config.json"), config)
    _write_json(os.path.join(run_dir, "metrics.json"), record)
    _write_json(os.path.join(run_dir, "environment.json"),
                environment if environment is not None
                else environment_provenance())
    return run_dir


def record_benchmark_run(name: str, payload: Mapping, config: Mapping,
                         out_path: Optional[str] = None,
                         run_dir: Optional[str] = None) -> str:
    """Persist one benchmark result through the run-directory flow.

    The one wiring every ``benchmarks/bench_*.py`` CLI shares: the payload
    lands in a run directory (``runs/<name>/<utc-timestamp>-<pid>`` unless
    ``run_dir`` names one), making it a first-class ``repro-experiment
    compare`` citizen, and the flat CI artifact (``out_path``) is *derived*
    from that directory by reading it back — one source of truth, two
    consumers.  Returns the run directory path.
    """
    if run_dir is None:
        run_id = (time.strftime("%Y%m%dT%H%M%S", time.gmtime())
                  + f"-{os.getpid()}")
        run_dir = os.path.join("runs", name, run_id)
    write_run_directory(run_dir, payload, dict(config, name=name))
    print(f"wrote run directory {run_dir}")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(load_run(run_dir)["metrics"], handle, indent=2)
        print(f"wrote {out_path}")
    return run_dir


def load_run(run_dir: str) -> Dict[str, Dict]:
    """Read a run directory back; ``metrics.json`` is required, the other
    two files are optional (empty dict when absent)."""
    metrics_path = os.path.join(run_dir, "metrics.json")
    if not os.path.isfile(metrics_path):
        raise FileNotFoundError(
            f"{run_dir!r} is not a run directory (no metrics.json)")
    out: Dict[str, Dict] = {}
    for name in ("config", "metrics", "environment"):
        path = os.path.join(run_dir, f"{name}.json")
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as handle:
                out[name] = json.load(handle)
        else:
            out[name] = {}
    return out


# ======================================================================
# CLI
# ======================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Run named serving experiments into run directories "
                    "and gate changes on metric regressions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one serving session into a run directory")
    run.add_argument("--name", required=True,
                     help="experiment name (groups runs under "
                          "OUT/NAME/RUN_ID)")
    run.add_argument("--out", default="runs",
                     help="root directory for run directories "
                          "(default ./runs)")
    run.add_argument("--run-id", default=None,
                     help="run directory name (default: UTC timestamp + "
                          "pid)")
    run.add_argument("--json", action="store_true",
                     help="echo the metrics record as JSON on stdout")
    run.add_argument("serve_args", nargs=argparse.REMAINDER,
                     help="repro-serve flags describing the session "
                          "(separate with --)")

    compare = sub.add_parser(
        "compare", help="diff two run directories against regression "
                        "thresholds; non-zero exit on violation")
    compare.add_argument("baseline", help="baseline run directory")
    compare.add_argument("candidate", help="candidate run directory")
    compare.add_argument("--threshold", action="append", default=None,
                         metavar="METRIC:PCT[:higher|lower]",
                         help="override the default gates (latency_ms.p99 "
                              "and queries_per_second, 10%% each); "
                              "direction says which way is better; "
                              "repeatable")
    compare.add_argument("--json", action="store_true",
                         help="emit the evaluation list as JSON")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # The session itself is described in repro-serve's own flag language,
    # validated by repro-serve's own parser — one grammar, two entry
    # points.  Imported here (not at module top) to keep repro.obs a
    # dependency leaf for everything except this harness entry point.
    from ..serving.cli import (
        build_parser as build_serve_parser,
        config_from_args,
        run_serving_session,
    )

    serve_args_raw = list(args.serve_args)
    if serve_args_raw and serve_args_raw[0] == "--":
        serve_args_raw = serve_args_raw[1:]
    serve_parser = build_serve_parser()
    serve_parser.prog = "repro-experiment run --"
    serve_args = serve_parser.parse_args(serve_args_raw)
    config = config_from_args(serve_args, serve_parser)

    record, _stats, ok = run_serving_session(config)
    record = dict(record)
    record["ok"] = ok

    run_id = args.run_id
    if run_id is None:
        run_id = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) \
            + f"-{os.getpid()}"
    run_dir = os.path.join(args.out, args.name, run_id)
    write_run_directory(run_dir, record, {
        "name": args.name,
        "run_id": run_id,
        "serving": config.to_dict(),
    })

    if args.json:
        json.dump(record, sys.stdout, indent=2, default=str)
        print()
    else:
        latency = record.get("latency_ms", {})
        p99 = latency.get("p99")
        p99_text = f"{p99:.2f} ms" if isinstance(p99, float) else "n/a"
        print(f"run {args.name}/{run_id}: "
              f"{record['queries_per_second']:,.0f} q/s, "
              f"p99 {p99_text} -> {run_dir}")
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    thresholds = (tuple(Threshold.parse(spec) for spec in args.threshold)
                  if args.threshold else DEFAULT_THRESHOLDS)
    baseline = load_run(args.baseline)["metrics"]
    candidate = load_run(args.candidate)["metrics"]
    evaluations = compare_runs(baseline, candidate, thresholds)
    failed = [e for e in evaluations if e["status"] == "regression"]

    if args.json:
        json.dump({"evaluations": evaluations,
                   "ok": not failed}, sys.stdout, indent=2, default=str)
        print()
    else:
        for entry in evaluations:
            regression = entry["regression_pct"]
            detail = (f"{regression:+.1f}% (limit "
                      f"{entry['limit_pct']:.0f}%)"
                      if isinstance(regression, float)
                      else "metric missing on one side")
            print(f"[{entry['status']:^10}] {entry['metric']}: "
                  f"{entry['baseline']} -> {entry['candidate']}  {detail}")
        verdict = ("FAIL: "
                   f"{len(failed)} regression(s) over threshold"
                   if failed else "OK: no regressions over threshold")
        print(verdict)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
