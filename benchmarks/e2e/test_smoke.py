"""Smoke test of the end-to-end ledger (tiny sizes, a few seconds).

Asserts the contract between ``BENCHMARK.json`` and what ``run.py`` prints:
every declared metric appears exactly once per workload, under a name made
of ``[A-Za-z0-9_.-]``, in the run that owns it (end-to-end metrics in the
untraced run, per-layer metrics in the traced one).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "result.json", encoding="utf-8") as fh:
        return done.stdout, json.load(fh)["runs"], out


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in MANIFEST["end_to_end"])
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": entry["bound"]}
               for entry in MANIFEST["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_once_per_workload(ledger, trace, key):
    stdout, runs, _ = ledger
    declared = {entry["name"]: entry["unit"] for entry in MANIFEST[key]}
    for workload in WORKLOADS:
        (run,) = [r for r in runs
                  if r["workload"] == workload and r["trace"] == trace]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert {name: m["unit"] for name, m in run["metrics"].items()} \
            == declared
        for name in declared:
            assert NAME.fullmatch(name)
            assert isinstance(run["metrics"][name]["value"], (int, float))
        block = stdout.split(f"# {workload} ")[1 + trace].split("\n# ")[0]
        printed = [line.split()[0] for line in block.splitlines()[1:]
                   if line and not line.startswith("{")]
        assert sorted(printed) == sorted(declared)


def test_layers_off_the_path_report_zero(ledger):
    _, runs, _ = ledger
    traced = {r["workload"]: r["metrics"] for r in runs if r["trace"] == 1}
    transport = [name for name in traced["query_local_er"]
                 if name.startswith(("serving.sharded.", "serving.wire.",
                                     "serving.session.", "serving.server."))]
    assert transport
    assert all(traced["query_local_er"][name]["value"] == 0
               for name in transport)
    assert traced["query_remote_road"]["serving.session.calls"]["value"] > 0
    assert traced["query_remote_road"]["serving.cache.hit_rate"]["value"] \
        >= 0.95
    assert traced["apsp_er"]["core.apsp.self_s"]["value"] > 0
    assert traced["build_er"]["core.apsp.self_s"]["value"] == 0
    for metrics in traced.values():
        assert metrics["trace.attributed_share"]["value"] >= 0.9


def test_provenance_block(ledger):
    _, runs, _ = ledger
    for run in runs:
        block = run["provenance"]
        assert {"commit", "cpu_count", "python", "numpy", "repro_no_numpy",
                "seed", "counts", "host.calib_loop_s", "noisy_host"} \
            <= set(block)


def test_compare_result_with_itself(ledger):
    stdout, _, out = ledger
    result = str(out / "result.json")
    done = _run("--compare", result, result)
    # Identical files can never be outside a bound (exit 1); repeats of a
    # tiny run may well be too noisy to call unchanged (exit 2).
    assert done.returncode in (0, 2), done.stdout + done.stderr
    assert "REGRESSION" not in done.stdout
    for workload in WORKLOADS:
        for entry in MANIFEST["end_to_end"]:
            assert re.search(rf"{workload}\s+{entry['name']}\s", done.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "build_er",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
