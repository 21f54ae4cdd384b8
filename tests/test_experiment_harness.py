"""The repro-experiment harness: run directories and regression gates."""

import json
import os

import pytest

from repro.obs.experiment import (
    DEFAULT_THRESHOLDS,
    Threshold,
    compare_runs,
    load_run,
    main as experiment_main,
    write_run_directory,
)
from repro.serving.cli import main as serve_main

SERVE_ARGS = ["--graph", "er:n=25,p=0.2,seed=2,weights=uniform:1:20",
              "--k", "2", "--workload", "zipf", "--queries", "200",
              "--batch-size", "25"]


class TestThresholds:
    def test_parse_full_spec(self):
        threshold = Threshold.parse("latency_ms.p99:25:lower")
        assert threshold.metric == "latency_ms.p99"
        assert threshold.max_regression_pct == 25.0
        assert not threshold.higher_is_better

    def test_parse_defaults(self):
        threshold = Threshold.parse("queries_per_second")
        assert threshold.max_regression_pct == 10.0
        assert threshold.higher_is_better

    @pytest.mark.parametrize("bad", ["", ":10", "m:10:sideways", "m:1:2:3"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Threshold.parse(bad)


class TestCompareRuns:
    def test_within_threshold_is_ok(self):
        baseline = {"latency_ms": {"p99": 1.0}, "queries_per_second": 1000}
        candidate = {"latency_ms": {"p99": 1.05},
                     "queries_per_second": 960}
        evaluations = compare_runs(baseline, candidate)
        assert [e["status"] for e in evaluations] == ["ok", "ok"]

    def test_seeded_p99_regression_flagged(self):
        baseline = {"latency_ms": {"p99": 1.0}, "queries_per_second": 1000}
        candidate = {"latency_ms": {"p99": 1.5},
                     "queries_per_second": 1000}
        evaluations = compare_runs(baseline, candidate)
        by_metric = {e["metric"]: e for e in evaluations}
        assert by_metric["latency_ms.p99"]["status"] == "regression"
        assert by_metric["latency_ms.p99"]["regression_pct"] \
            == pytest.approx(50.0)
        assert by_metric["queries_per_second"]["status"] == "ok"

    def test_improvements_never_flag(self):
        baseline = {"latency_ms": {"p99": 2.0}, "queries_per_second": 500}
        candidate = {"latency_ms": {"p99": 0.5},
                     "queries_per_second": 5000}
        assert all(e["status"] == "ok"
                   for e in compare_runs(baseline, candidate))

    def test_missing_metric_is_skipped_not_passed(self):
        evaluations = compare_runs({}, {"latency_ms": {"p99": 1.0}},
                                   DEFAULT_THRESHOLDS)
        assert all(e["status"] == "skipped" for e in evaluations)

    def test_zero_baseline_only_flags_movement_toward_worse(self):
        thresholds = (Threshold("errors", 0.0, higher_is_better=False),)
        assert compare_runs({"errors": 0}, {"errors": 0},
                            thresholds)[0]["status"] == "ok"
        assert compare_runs({"errors": 0}, {"errors": 3},
                            thresholds)[0]["status"] == "regression"


class TestRunDirectories:
    def test_write_and_load_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "exp" / "r1")
        record = {"queries_per_second": 123.0,
                  "latency_ms": {"p99": 0.8}}
        config = {"name": "exp", "serving": {"workers": 1}}
        write_run_directory(run_dir, record, config)
        loaded = load_run(run_dir)
        assert loaded["metrics"] == record
        assert loaded["config"] == config
        assert "python" in loaded["environment"]
        assert "timestamp_utc" in loaded["environment"]

    def test_load_rejects_non_run_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path))


class TestExperimentCli:
    def test_run_writes_run_directory(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = experiment_main(["run", "--name", "smoke", "--out", out,
                                "--run-id", "r1", "--"]
                               + SERVE_ARGS + ["--telemetry"])
        assert code == 0
        assert "smoke/r1" in capsys.readouterr().out
        run_dir = os.path.join(out, "smoke", "r1")
        loaded = load_run(run_dir)
        record = loaded["metrics"]
        assert record["queries"] == 200
        assert record["ok"] is True
        assert record["latency_ms"]["batches"] == 8
        assert record["stage_seconds"]["query"] > 0
        # --telemetry flowed through: full histogram buckets on disk
        telemetry = record["extra"]["telemetry"]
        assert "kernel_batch" in telemetry
        assert telemetry["kernel_batch"]["count"] == 8
        config = loaded["config"]
        assert config["serving"]["telemetry"] is True
        assert config["serving"]["workload"]["name"] == "zipf"

    def test_compare_gates_on_seeded_regression(self, tmp_path, capsys):
        base_dir = str(tmp_path / "a")
        cand_dir = str(tmp_path / "b")
        base = {"latency_ms": {"p99": 1.0}, "queries_per_second": 1000.0}
        worse = {"latency_ms": {"p99": 1.2}, "queries_per_second": 1000.0}
        write_run_directory(base_dir, base, {})
        write_run_directory(cand_dir, worse, {})
        assert experiment_main(["compare", base_dir, cand_dir]) == 1
        assert "regression" in capsys.readouterr().out
        assert experiment_main(["compare", base_dir, base_dir]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_honours_custom_thresholds(self, tmp_path, capsys):
        base_dir = str(tmp_path / "a")
        cand_dir = str(tmp_path / "b")
        write_run_directory(base_dir, {"latency_ms": {"p99": 1.0},
                                       "queries_per_second": 1000.0}, {})
        write_run_directory(cand_dir, {"latency_ms": {"p99": 1.2},
                                       "queries_per_second": 900.0}, {})
        assert experiment_main(
            ["compare", base_dir, cand_dir,
             "--threshold", "latency_ms.p99:30:lower",
             "--threshold", "queries_per_second:15:higher",
             "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["evaluations"]) == 2

    def test_two_runs_and_compare_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        for run_id in ("base", "cand"):
            assert experiment_main(["run", "--name", "e2e", "--out", out,
                                    "--run-id", run_id, "--"]
                                   + SERVE_ARGS) == 0
        capsys.readouterr()
        # identical deterministic sessions: gate on exact-match metrics
        # (wall-clock ones are noisy on tiny runs)
        code = experiment_main(
            ["compare", os.path.join(out, "e2e", "base"),
             os.path.join(out, "e2e", "cand"),
             "--threshold", "queries:0:higher",
             "--threshold", "delivered:0:higher",
             "--threshold", "cache_hit_rate:0:higher"])
        assert code == 0


class TestCliJsonSchema:
    def test_json_record_has_latency_and_stages(self, tmp_path, capsys):
        artifact = str(tmp_path / "schema.artifact")
        assert serve_main(SERVE_ARGS + ["--artifact", artifact,
                                        "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        latency = record["latency_ms"]
        assert set(latency) == {"p50", "p95", "p99", "mean", "max",
                                "batches"}
        assert latency["batches"] == 8
        assert latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]
        stages = record["stage_seconds"]
        assert set(stages) == {"build", "load", "query"}
        assert stages["build"] > 0

    def test_human_output_prints_p99_and_stages(self, capsys):
        assert serve_main(SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "ms/batch" in out
        assert "stages:" in out

    def test_sharded_merge_matches_single_process_totals(self, tmp_path,
                                                         capsys):
        artifact = str(tmp_path / "merge.artifact")
        argv = SERVE_ARGS + ["--artifact", artifact, "--telemetry",
                             "--json"]
        assert serve_main(argv) == 0
        local = json.loads(capsys.readouterr().out)
        assert serve_main(argv + ["--workers", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        # Per-worker registries merged through ServingStats.merge equal
        # the single-process totals for partition-invariant metrics.
        assert sharded["queries"] == local["queries"]
        assert sharded["delivered"] == local["delivered"]
        local_tel = local["extra"]["telemetry"]
        sharded_tel = sharded["extra"]["telemetry"]
        # The front-end scattered every one of the 8 client batches once;
        # the workers' merged kernel_batch spans cover the per-worker
        # sub-batches those scatters produced (at most workers x batches,
        # at least one per client batch).
        assert sharded_tel["scatter"]["count"] == local["batches"]
        assert sharded_tel["gather"]["count"] == local["batches"]
        assert local["batches"] <= sharded_tel["kernel_batch"]["count"] \
            <= 2 * local["batches"]
        assert local_tel["kernel_batch"]["count"] == local["batches"]
        # front-end spans exist only on the sharded side
        assert "scatter" not in local_tel
