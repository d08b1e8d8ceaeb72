"""Bench-telemetry artifacts: writers and comparison.

One module owns the whole ``BENCH_<name>.json`` life cycle: the writer
(:func:`build_artifact` / :func:`write_artifact` — used by the benchmark
harness) and the comparison engine
behind ``repro bench-compare``.  The comparison diffs only the
``metrics`` sections of two artifacts.  Direction is inferred from the
metric name — reductions, speedups and hit counts are higher-is-better,
everything else (MWS words, wall seconds, memory) lower-is-better — and
a change is a regression when it moves in the bad direction by more
than the relative threshold.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

SCHEMA_VERSION = 1

ARTIFACT_DIR_ENV = "BENCH_ARTIFACT_DIR"

#: Resolved relative to the working directory; the benchmark harness
#: (benchmarks/conftest.py) passes its own absolute path instead.
DEFAULT_ARTIFACT_DIR = Path("benchmarks") / "artifacts"


def artifact_dir(default: Path | None = None) -> Path:
    """Artifact destination: ``$BENCH_ARTIFACT_DIR`` or the default."""
    override = os.environ.get(ARTIFACT_DIR_ENV)
    if override:
        return Path(override)
    return default if default is not None else DEFAULT_ARTIFACT_DIR


def host_metadata() -> dict[str, Any]:
    """Python/platform/CPU plus the git commit when available."""
    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=5,
        )
        if proc.returncode == 0:
            meta["commit"] = proc.stdout.strip()
    except OSError:
        pass
    return meta


def build_artifact(
    name: str,
    metrics: Mapping[str, Any],
    wall_s: Mapping[str, float] | None = None,
    counters: Mapping[str, int] | None = None,
) -> dict[str, Any]:
    """Assemble one bench's artifact dict (JSON-ready)."""
    return {
        "bench": name,
        "schema": SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "host": host_metadata(),
        "metrics": dict(sorted(metrics.items())),
        "wall_s": dict(sorted((wall_s or {}).items())),
        "counters": dict(sorted((counters or {}).items())),
    }


def write_artifact(artifact: Mapping[str, Any], directory: Path | None = None) -> Path:
    """Write ``BENCH_<name>.json``; returns the path."""
    directory = Path(directory) if directory is not None else artifact_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{artifact['bench']}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path

#: Substrings marking a metric where bigger numbers are good.
HIGHER_IS_BETTER_MARKERS = ("reduction", "speedup", "hits")


def metric_direction(key: str) -> int:
    """+1 when higher is better for this metric, -1 when lower is."""
    lowered = key.lower()
    if any(marker in lowered for marker in HIGHER_IS_BETTER_MARKERS):
        return 1
    return -1


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two artifacts."""

    key: str
    old: float
    new: float
    direction: int  # +1 higher-is-better, -1 lower-is-better
    regressed: bool

    @property
    def rel_change(self) -> float:
        """Relative change, positive = grew; infinite when old == 0."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)


@dataclass(frozen=True)
class Comparison:
    """Full diff of two artifacts' metrics."""

    bench: str
    deltas: tuple[MetricDelta, ...]
    missing: tuple[str, ...]  # in old but not new
    added: tuple[str, ...]  # in new but not old
    threshold: float

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        """No regressions and no metric disappeared."""
        return not self.regressions and not self.missing


def _numeric_metrics(artifact: Mapping[str, Any]) -> dict[str, float]:
    out = {}
    for key, value in artifact.get("metrics", {}).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def compare_artifacts(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = 0.05,
) -> Comparison:
    """Diff two artifacts' numeric metrics.

    ``threshold`` is the relative slack before a bad-direction move
    counts as a regression (0.05 = 5%).
    """
    old_metrics = _numeric_metrics(old)
    new_metrics = _numeric_metrics(new)
    deltas = []
    for key in sorted(old_metrics.keys() & new_metrics.keys()):
        before, after = old_metrics[key], new_metrics[key]
        direction = metric_direction(key)
        if before == 0:
            worse = (after < 0) if direction > 0 else (after > 0)
            regressed = worse and abs(after) > threshold
        else:
            rel = (after - before) / abs(before)
            regressed = (-direction * rel) > threshold
        deltas.append(MetricDelta(key, before, after, direction, regressed))
    return Comparison(
        bench=str(new.get("bench", old.get("bench", "?"))),
        deltas=tuple(deltas),
        missing=tuple(sorted(old_metrics.keys() - new_metrics.keys())),
        added=tuple(sorted(new_metrics.keys() - old_metrics.keys())),
        threshold=threshold,
    )


# ----------------------------------------------------------------------
# multi-point trend (the whole checked-in BENCH_*.json trajectory)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricTrend:
    """One metric's last-``window`` trajectory and its verdict.

    A *trend regression* is stricter than a pairwise one: the metric
    must move monotonically in the bad direction across every point of
    the window **and** the total move must exceed the threshold.  A
    single noisy point therefore never fails the build — only a
    sustained drift does.
    """

    key: str
    values: tuple[float, ...]
    direction: int  # +1 higher-is-better, -1 lower-is-better
    regressed: bool

    @property
    def rel_change(self) -> float:
        """Total relative change first -> last; positive = grew."""
        first, last = self.values[0], self.values[-1]
        if first == 0:
            return 0.0 if last == 0 else float("inf")
        return (last - first) / abs(first)


@dataclass(frozen=True)
class TrendReport:
    """Trend verdicts over a trajectory of artifacts for one bench."""

    bench: str
    window: int
    threshold: float
    points: int  # artifacts actually considered (may be < window)
    trends: tuple[MetricTrend, ...]

    @property
    def regressions(self) -> tuple[MetricTrend, ...]:
        return tuple(t for t in self.trends if t.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _trajectory_metrics(artifact: Mapping[str, Any]) -> dict[str, float]:
    """Numeric metrics plus the synthetic ``total_wall_s``.

    Wall times live in the artifact's ``wall_s`` section, not
    ``metrics``; the trend checker folds their sum in as one
    lower-is-better series so a wall-clock drift is watchable without
    every bench naming its phases identically.
    """
    out = _numeric_metrics(artifact)
    walls = artifact.get("wall_s", {})
    if isinstance(walls, Mapping) and walls:
        total = 0.0
        for value in walls.values():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += float(value)
        out["total_wall_s"] = total
    return out


def _monotone_bad(values: tuple[float, ...], direction: int) -> bool:
    """Every step non-improving in the bad direction."""
    if direction > 0:  # higher-is-better: bad = non-increasing
        return all(b <= a for a, b in zip(values, values[1:]))
    return all(b >= a for a, b in zip(values, values[1:]))


def compare_trajectory(
    artifacts: Sequence[Mapping[str, Any]],
    window: int = 3,
    threshold: float = 0.2,
) -> TrendReport:
    """Trend-check the last ``window`` points of a bench trajectory.

    ``artifacts`` are ordered by their ``created_unix`` stamp (ties keep
    input order, so append-order histories behave).  A metric regresses
    when its last ``window`` values move monotonically in the bad
    direction and the total move is at least ``threshold`` relative to
    the window's first value.  Fewer than ``window`` points can never
    regress — one baseline pair is ``bench-compare``'s job.
    """
    ordered = sorted(
        range(len(artifacts)),
        key=lambda i: (artifacts[i].get("created_unix", 0.0), i),
    )
    tail = [artifacts[i] for i in ordered[-window:]]
    bench = str(tail[-1].get("bench", "?")) if tail else "?"
    if len(tail) < window:
        return TrendReport(bench, window, threshold, len(tail), ())
    series = [_trajectory_metrics(a) for a in tail]
    shared = set(series[0])
    for metrics in series[1:]:
        shared &= set(metrics)
    trends = []
    for key in sorted(shared):
        values = tuple(metrics[key] for metrics in series)
        direction = metric_direction(key)
        first = values[0]
        if first == 0:
            total_bad = False
        else:
            rel = (values[-1] - first) / abs(first)
            total_bad = (-direction * rel) >= threshold
        regressed = total_bad and _monotone_bad(values, direction)
        trends.append(MetricTrend(key, values, direction, regressed))
    return TrendReport(bench, window, threshold, len(tail), tuple(trends))


def render_trend(report: TrendReport, verbose: bool = False) -> str:
    """Human-readable trend table; regressions always shown."""
    lines = [
        f"bench {report.bench}: trend over last {report.points} point(s) "
        f"(window {report.window}, threshold {report.threshold:.0%})"
    ]
    if report.points < report.window:
        lines.append(
            f"not enough history ({report.points} < {report.window}): skipped"
        )
        return "\n".join(lines)
    shown = [t for t in report.trends if t.regressed or verbose]
    if shown:
        header = f"{'metric':<40} {'trajectory':<28} {'change':>9}  verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for t in shown:
            traj = " -> ".join(f"{v:g}" for v in t.values)
            change = (
                "n/a" if t.rel_change == float("inf")
                else f"{t.rel_change:+.1%}"
            )
            verdict = "TREND REGRESSION" if t.regressed else "ok"
            lines.append(f"{t.key:<40} {traj:<28} {change:>9}  {verdict}")
    else:
        lines.append("no sustained drifts")
    lines.append(f"result: {'OK' if report.ok else 'TREND REGRESSIONS DETECTED'}")
    return "\n".join(lines)


def render_comparison(comparison: Comparison, verbose: bool = False) -> str:
    """Human-readable diff; regressions always shown, the rest gated on
    ``verbose``."""
    lines = [
        f"bench {comparison.bench}: {len(comparison.deltas)} shared metric(s), "
        f"threshold {comparison.threshold:.0%}"
    ]
    shown = [
        d for d in comparison.deltas if d.regressed or verbose or d.old != d.new
    ]
    if shown:
        header = f"{'metric':<40} {'old':>12} {'new':>12} {'change':>9}  verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for d in shown:
            change = "n/a" if d.rel_change == float("inf") else f"{d.rel_change:+.1%}"
            verdict = "REGRESSION" if d.regressed else "ok"
            arrow = "higher=better" if d.direction > 0 else "lower=better"
            lines.append(
                f"{d.key:<40} {d.old:>12g} {d.new:>12g} {change:>9}  "
                f"{verdict} ({arrow})"
            )
    else:
        lines.append("no metric changes")
    for key in comparison.missing:
        lines.append(f"missing in new artifact: {key}  REGRESSION")
    if verbose:
        for key in comparison.added:
            lines.append(f"new metric: {key}")
    lines.append(
        f"result: {'OK' if comparison.ok else 'REGRESSIONS DETECTED'}"
    )
    return "\n".join(lines)
