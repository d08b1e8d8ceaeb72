#!/usr/bin/env python3
"""End-to-end benchmark of the repro package: four workloads, every answer checked.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--src DIR] [--out FILE]

Each workload runs in child interpreters (``workloads.py``) that import
``repro`` from ``--src`` (default: this checkout's ``src``), with every
``REPRO_*`` and ``BENCH_*`` variable removed from their environment so
the program runs with its defaults.  An untraced run prints the
``end_to_end`` metrics of ``BENCHMARK.json``; a traced run prints its
``per_layer`` metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out`` also writes the full record, host stamp included,
for ``compare.py``.

Exit status: 0 when every answer was right, 1 when any was wrong, 2 when
a workload could not run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / "benchmarks" / "artifacts" / "e2e"
WORKLOADS = ("figure2-cold", "hierarchy-cold", "serve-warm", "serve-mixed")
STRIPPED_PREFIXES = ("REPRO_", "BENCH_")

#: Interpreters started per untraced workload to time set-up; the last
#: one goes on to measure.
SETUPS = 3

#: Wall-time cap of one workload, set-ups included.
LIMIT_S = 170.0


class WorkloadError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def child_env(src: Path, tmp: Path) -> tuple[dict[str, str], list[str]]:
    """The children's environment, and the variables removed from it."""
    removed = sorted(k for k in os.environ if k.startswith(STRIPPED_PREFIXES))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    return env, removed


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(cmd: list[str], env: dict, deadline: float) -> float:
    """Run one child to completion; seconds from spawn until it was ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               _stop_group, (proc,))
    watchdog.start()
    ready = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        _stop_group(proc)
    if code != 0 or ready is None:
        raise WorkloadError(f"{' '.join(cmd[1:4])}: child exited with {code}")
    return ready


def git_sha(src: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_stamp(src: Path, seed: int, removed: list[str]) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "cffi": importlib.util.find_spec("cffi") is not None,
        "git_sha": git_sha(src),
        "seed": seed,
        "removed_env": removed,
    }


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and its diagnostics."""
    samples = result["samples_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * statistics.median(samples),
        "throughput": len(samples) / result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    diagnostics = {"samples": len(samples), "setup_samples_s": setups,
                   "wall_s": result["wall_s"]}
    for q in (90, 99):
        value = stats.percentile(samples, q)
        if value is not None:
            diagnostics[f"latency_p{q}_ms"] = 1000.0 * value
    return metrics, diagnostics


def run_workload(name: str, args, spec: dict, env: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    deadline = time.monotonic() + LIMIT_S
    setups = [run_child(cmd + ["--setup-only"], env, deadline)
              for _ in range(SETUPS - 1 if not args.trace else 0)]
    setups.append(run_child(cmd, env, deadline))
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    for store in work.glob("store-*"):
        shutil.rmtree(store, ignore_errors=True)
    if args.trace:
        section = "per_layer"
        metrics, diagnostics = result["layers"], {
            "untraced_targets": result["untraced_targets"],
            "spans": str(work / "spans.json"),
        }
    else:
        section = "end_to_end"
        metrics, diagnostics = end_to_end(result, setups)
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(declared):
        raise WorkloadError(
            f"{name}: metrics {sorted(set(metrics) ^ set(declared))} do not "
            f"match BENCHMARK.json {section}"
        )
    attempted = result["attempted"]
    diagnostics["failed_share"] = result["failed"] / attempted
    diagnostics["errors"] = result["errors"]
    diagnostics["wrong"] = result["wrong"]
    if "reference_checked" in result:
        diagnostics["reference_checked"] = result["reference_checked"]
    return {
        "correct": result["wrong_answers"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "wrong_answers": result["wrong_answers"],
        "metrics": {k: {"value": v, "unit": declared[k]}
                    for k, v in metrics.items()},
        "diagnostics": diagnostics,
    }


def render(name: str, outcome: dict) -> str:
    lines = [
        f"{name}: {'correct' if outcome['correct'] else 'WRONG ANSWERS'}, "
        f"attempted {outcome['attempted']}, failed {outcome['failed']}, "
        f"wrong {outcome['wrong_answers']}"
    ]
    for metric, entry in outcome["metrics"].items():
        lines.append(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in outcome["diagnostics"].items():
        if isinstance(value, float):
            lines.append(f"  ({key:<26} {value:>14.6g})")
    for message in outcome["diagnostics"]["wrong"] + outcome["diagnostics"]["errors"]:
        lines.append(f"  ! {message.strip()}")
    return "\n".join(lines)


def summary_line(outcomes: dict[str, dict]) -> dict:
    """The result line: one workload's metrics by name; with several
    workloads, ``workload/metric``."""
    single = len(outcomes) == 1
    metrics = {}
    for name, outcome in outcomes.items():
        for metric, entry in outcome["metrics"].items():
            metrics[metric if single else f"{name}/{metric}"] = entry
    return {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json; compare.py "
                             "refuses records of different lengths)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics instead")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree whose repro package is measured")
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    outcomes = {}
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        tmp = WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env, removed = child_env(src, tmp)
        stamp = host_stamp(src, args.seed, removed)
        print("host: " + json.dumps(stamp), flush=True)
        for name in args.workload:
            outcomes[name] = run_workload(name, args, spec, env)
            print(render(name, outcomes[name]), flush=True)
    except (WorkloadError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(json.dumps({
            "stamp": stamp, "trace": bool(args.trace), "seconds": args.seconds,
            "workloads": outcomes,
        }, indent=1) + "\n", encoding="utf-8")
    line = summary_line(outcomes)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
