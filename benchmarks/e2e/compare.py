"""``run.py --compare A B``: two ledger result files against the bounds.

Per workload x end-to-end metric it prints both medians, how much worse B
is than A (signed by the metric's direction) and the bound, and exits 1 if
any metric is outside its bound.  A metric inside its bound whose
run-to-run spread is wider than the bound is reported as ``unresolved``,
never as unchanged, unless every B run reads better than every A run.
Per-layer metrics carry no bound; they are listed for attribution, and the
ones that are exact counts are checked for identity.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

#: Metrics that must repeat bit-for-bit on the same commit and seed.
EXACT = frozenset((
    "mean_stretch",
    "core.weight_rounding.levels",
    "core.source_detection.calls",
    "core.source_detection.entries",
    "core.pde.calls",
    "serving.artifacts.bytes",
    "routing.tables.bunch_rows_decoded_per_pair",
    "routing.tables.groups_per_batch",
    "serving.cache.hit_rate",
    "serving.cache.evictions",
    "serving.sharded.calls",
    "serving.wire.query_bytes_per_pair",
    "serving.wire.answer_bytes_per_pair",
    "serving.wire.calls",
    "serving.session.calls",
    "serving.server.calls",
))


def _load(path: str) -> Dict[Tuple[str, int], List[Dict[str, Any]]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    grouped: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for run in runs:
        if run.get("correct") and "metrics" in run:
            grouped.setdefault((run["workload"], run["trace"]),
                               []).append(run)
    return grouped


def _quartiles(runs: List[Dict[str, Any]], name: str
               ) -> Tuple[float, float, float, List[float]]:
    """``(median, q1, q3, values)`` across runs; a single run falls back to
    the quartiles of its own repeats."""
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3, values
    detail = runs[0].get("detail", {}).get(name, {})
    value = values[0]
    return value, detail.get("q1", value), detail.get("q3", value), values


def main(path_a: str, path_b: str, manifest: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    regressions = unresolved = 0
    print(f"{'workload':18s} {'metric':14s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in (entry["name"] for entry in manifest["workloads"]):
        runs_a, runs_b = a.get((workload, 0)), b.get((workload, 0))
        if not runs_a or not runs_b:
            print(f"{workload:18s} missing from "
                  f"{path_a if not runs_a else path_b}")
            regressions += 1
            continue
        for entry in manifest["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            med_a, q1_a, q3_a, vals_a = _quartiles(runs_a, name)
            med_b, q1_b, q3_b, vals_b = _quartiles(runs_b, name)
            lower = entry["better"] == "lower"
            worse = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
            spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            b_always_better = (max(vals_b) < min(vals_a) if lower
                               else min(vals_b) > max(vals_a))
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound and not b_always_better:
                verdict = f"unresolved (spread {spread:.3f})"
                unresolved += 1
            else:
                verdict = "ok"
            if name in EXACT and vals_a != vals_b:
                verdict += ", exact value differs"
            print(f"{workload:18s} {name:14s} {med_a:14.5g} {med_b:14.5g} "
                  f"{worse:+9.3f} {bound:6.2f}  {verdict}")

    print(f"\n{'workload':18s} {'per-layer metric':46s} {'A':>13s} "
          f"{'B':>13s} {'change':>8s}")
    for workload in (entry["name"] for entry in manifest["workloads"]):
        runs_a, runs_b = a.get((workload, 1)), b.get((workload, 1))
        if not runs_a or not runs_b:
            continue
        for entry in manifest["per_layer"]:
            name = entry["name"]
            med_a = _quartiles(runs_a, name)[0]
            med_b = _quartiles(runs_b, name)[0]
            if med_a == 0 and med_b == 0:
                continue        # layer not on this workload's path
            change = (med_b - med_a) / med_a if med_a else float("inf")
            note = ""
            if name in EXACT:
                note = "  exact: same" if med_a == med_b \
                    else "  exact: DIFFERS"
            print(f"{workload:18s} {name:46s} {med_a:13.5g} {med_b:13.5g} "
                  f"{change:+8.3f}{note}")
    print(f"\n{regressions} outside bound, {unresolved} unresolved")
    if regressions:
        return 1
    return 2 if unresolved else 0
