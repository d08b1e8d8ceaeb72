"""Bench-telemetry pipeline: artifact writer, bench-compare engine, CLI,
and the end-to-end guarantee that the figure2 bench emits an artifact
whose MWS numbers match the golden fixture."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reporting import (
    compare_artifacts,
    metric_direction,
    render_comparison,
)
from repro.reporting import telemetry

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "fixtures" / "figure2_golden.json").read_text())
BASELINE_PATH = ROOT / "benchmarks" / "baselines" / "BENCH_figure2.json"


def _artifact(metrics, name="demo"):
    return {"bench": name, "schema": 1, "metrics": metrics}


class TestArtifactWriter:
    def test_build_artifact_shape(self):
        artifact = telemetry.build_artifact(
            "demo",
            metrics={"sor.mws_opt": 64},
            wall_s={"test_row[sor]": 0.5},
            counters={"search.cache.hits": 3},
        )
        assert artifact["bench"] == "demo"
        assert artifact["schema"] == telemetry.SCHEMA_VERSION
        assert artifact["metrics"] == {"sor.mws_opt": 64}
        assert artifact["wall_s"] == {"test_row[sor]": 0.5}
        assert artifact["counters"] == {"search.cache.hits": 3}
        assert "python" in artifact["host"]
        assert artifact["created_unix"] > 0

    def test_write_artifact_names_file_after_bench(self, tmp_path):
        artifact = telemetry.build_artifact("demo", metrics={"x": 1})
        path = telemetry.write_artifact(artifact, tmp_path)
        assert path == tmp_path / "BENCH_demo.json"
        assert json.loads(path.read_text())["metrics"] == {"x": 1}

    def test_artifact_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.ARTIFACT_DIR_ENV, str(tmp_path / "out"))
        assert telemetry.artifact_dir() == tmp_path / "out"
        assert telemetry.artifact_dir(default=tmp_path) == tmp_path / "out"
        monkeypatch.delenv(telemetry.ARTIFACT_DIR_ENV)
        assert telemetry.artifact_dir() == telemetry.DEFAULT_ARTIFACT_DIR
        assert telemetry.artifact_dir(default=tmp_path) == tmp_path


class TestCompareEngine:
    def test_direction_inference(self):
        assert metric_direction("sor.opt_reduction") == 1
        assert metric_direction("warm_speedup") == 1
        assert metric_direction("search.cache.hits") == 1
        assert metric_direction("sor.mws_opt") == -1
        assert metric_direction("serial_s") == -1

    def test_identical_artifacts_ok(self):
        a = _artifact({"sor.mws_opt": 64, "sor.opt_reduction": 94.5})
        comparison = compare_artifacts(a, a)
        assert comparison.ok
        assert not comparison.regressions

    def test_lower_is_better_regression(self):
        old = _artifact({"sor.mws_opt": 64})
        new = _artifact({"sor.mws_opt": 128})
        comparison = compare_artifacts(old, new)
        assert not comparison.ok
        assert comparison.regressions[0].key == "sor.mws_opt"

    def test_higher_is_better_regression(self):
        old = _artifact({"sor.opt_reduction": 94.5})
        new = _artifact({"sor.opt_reduction": 50.0})
        comparison = compare_artifacts(old, new)
        assert not comparison.ok

    def test_improvement_is_not_a_regression(self):
        old = _artifact({"sor.mws_opt": 128, "sor.opt_reduction": 50.0})
        new = _artifact({"sor.mws_opt": 64, "sor.opt_reduction": 94.5})
        assert compare_artifacts(old, new).ok

    def test_threshold_gives_slack(self):
        old = _artifact({"sor.mws_opt": 100})
        new = _artifact({"sor.mws_opt": 104})
        assert compare_artifacts(old, new, threshold=0.05).ok
        assert not compare_artifacts(old, new, threshold=0.01).ok

    def test_missing_metric_fails(self):
        old = _artifact({"sor.mws_opt": 64, "sor.default": 1156})
        new = _artifact({"sor.mws_opt": 64})
        comparison = compare_artifacts(old, new)
        assert comparison.missing == ("sor.default",)
        assert not comparison.ok

    def test_added_metric_is_fine(self):
        old = _artifact({"sor.mws_opt": 64})
        new = _artifact({"sor.mws_opt": 64, "sor.default": 1156})
        comparison = compare_artifacts(old, new)
        assert comparison.added == ("sor.default",)
        assert comparison.ok

    def test_non_numeric_and_bool_metrics_skipped(self):
        old = _artifact({"label": "sor", "flag": True, "sor.mws_opt": 64})
        new = _artifact({"label": "other", "flag": False, "sor.mws_opt": 64})
        comparison = compare_artifacts(old, new)
        assert [d.key for d in comparison.deltas] == ["sor.mws_opt"]
        assert comparison.ok

    def test_render_marks_regressions(self):
        old = _artifact({"sor.mws_opt": 64})
        new = _artifact({"sor.mws_opt": 128})
        text = render_comparison(compare_artifacts(old, new))
        assert "REGRESSION" in text
        assert "REGRESSIONS DETECTED" in text
        ok_text = render_comparison(compare_artifacts(old, old))
        assert "result: OK" in ok_text


class TestBenchCompareCli:
    def _write(self, tmp_path, name, metrics):
        path = tmp_path / name
        path.write_text(json.dumps(_artifact(metrics)))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        from repro.cli import main

        old = self._write(tmp_path, "old.json", {"sor.mws_opt": 64})
        new = self._write(tmp_path, "new.json", {"sor.mws_opt": 64})
        assert main(["bench-compare", old, new]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_regression(self, tmp_path, capsys):
        from repro.cli import main

        old = self._write(tmp_path, "old.json", {"sor.mws_opt": 64})
        new = self._write(tmp_path, "new.json", {"sor.mws_opt": 128})
        assert main(["bench-compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        from repro.cli import main

        old = self._write(tmp_path, "old.json", {"sor.mws_opt": 100})
        new = self._write(tmp_path, "new.json", {"sor.mws_opt": 104})
        assert main(["bench-compare", old, new]) == 0
        assert main(["bench-compare", "--threshold", "0.01", old, new]) == 1

    def test_malformed_artifact_errors(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = self._write(tmp_path, "good.json", {})
        assert main(["bench-compare", str(bad), good]) == 1
        assert "error:" in capsys.readouterr().err


class TestBaselineFixture:
    def test_baseline_matches_golden_mws(self):
        """The checked-in compare baseline must agree with the golden
        figure2 fixture kernel by kernel."""
        baseline = json.loads(BASELINE_PATH.read_text())
        metrics = baseline["metrics"]
        for kernel, values in GOLDEN.items():
            for field in ("default", "mws_unopt", "mws_opt"):
                assert metrics[f"{kernel}.{field}"] == values[field], (
                    kernel,
                    field,
                )


class TestEndToEndArtifact:
    def test_figure2_bench_emits_golden_artifact(self, tmp_path):
        """Run the figure2 kernel-row benches in a subprocess and check
        the emitted BENCH_figure2.json against the golden fixture."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["BENCH_ARTIFACT_DIR"] = str(tmp_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(ROOT / "benchmarks" / "bench_figure2_table.py"),
                "-k",
                "kernel_row",
                "-q",
                "-p",
                "no:cacheprovider",
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        artifact = json.loads((tmp_path / "BENCH_figure2.json").read_text())
        assert artifact["bench"] == "figure2"
        for kernel, values in GOLDEN.items():
            for field in ("default", "mws_unopt", "mws_opt"):
                assert artifact["metrics"][f"{kernel}.{field}"] == values[field]
        # Wall-clock and counter totals came along.
        assert artifact["wall_s"]
        assert artifact["counters"].get("search.candidates.examined", 0) > 0
