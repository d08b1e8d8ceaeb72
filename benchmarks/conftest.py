"""Shared helpers for the benchmark harness.

Every file here regenerates one table, figure or numbered worked example
of the paper (see DESIGN.md's per-experiment index).  Each benchmark
asserts the reproduced values (paper-vs-measured is recorded in
EXPERIMENTS.md) and times the underlying algorithm via pytest-benchmark.

Telemetry: modules declaring ``BENCH_NAME = "<name>"`` get a
``BENCH_<name>.json`` artifact at session end (written by
:mod:`repro.reporting.telemetry` into ``benchmarks/artifacts/``, or
``$BENCH_ARTIFACT_DIR``) with every ``record()``-ed number, per-test
wall seconds, and the observer's counter totals for the session;
``repro bench-compare`` diffs two such artifacts.

Run:  pytest benchmarks/ --benchmark-only
"""

import time
from pathlib import Path

import pytest

from repro import obs
from repro.reporting.telemetry import artifact_dir, build_artifact, write_artifact

#: Artifacts land beside the benches, whatever the working directory.
ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"

#: bench name -> {"metrics": {...}, "wall_s": {...}} accumulated over
#: the session; flushed to BENCH_<name>.json by pytest_sessionfinish.
_RUNS: dict = {}


def record(benchmark, **info):
    """Attach reproduced numbers to the benchmark's extra_info."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def pytest_sessionstart(session):
    # One in-memory observer for the whole bench session so artifacts
    # can report counter totals (cache hits, simulator calls, ...).
    obs.enable()


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Capture wall-clock and recorded metrics of each bench test."""
    name = getattr(request.module, "BENCH_NAME", None)
    start = time.perf_counter()
    yield
    if name is None:
        return
    run = _RUNS.setdefault(name, {"metrics": {}, "wall_s": {}})
    run["wall_s"][request.node.name] = round(time.perf_counter() - start, 6)
    bench = request.node.funcargs.get("benchmark")
    extra = getattr(bench, "extra_info", None)
    if not extra:
        return
    # Parametrized tests prefix their metrics with the param id
    # (e.g. "sor.mws_opt"); bare tests with the test name sans "test_".
    if getattr(request.node, "callspec", None) is not None:
        prefix = request.node.callspec.id
    else:
        prefix = request.node.name.removeprefix("test_")
    for key, value in extra.items():
        run["metrics"][f"{prefix}.{key}"] = value


def pytest_sessionfinish(session, exitstatus):
    observer = obs.disable()
    if not _RUNS:
        return
    counters = observer.summary().get("counters", {}) if observer else {}
    for name, run in sorted(_RUNS.items()):
        artifact = build_artifact(
            name,
            metrics=run["metrics"],
            wall_s=run["wall_s"],
            counters=counters,
        )
        path = write_artifact(artifact, artifact_dir(default=ARTIFACT_DIR))
        print(f"\nbench telemetry: {path}")
