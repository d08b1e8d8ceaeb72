#!/usr/bin/env python3
"""Compare benchmark records of a parent (A) and a change (B).

    python benchmarks/e2e/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is one ``run.py --out`` record.  Runs are paired in the order
given, so list both sides in the order they ran.  Every end-to-end
metric of ``BENCHMARK.json`` gets one verdict per workload (see
:func:`stats.verdict`): ``better``, ``no-worse``, ``worse`` or
``unresolved`` (``setup_s`` on its medians alone, never ``unresolved``).
``failed_share`` is ``worse`` when its median rose,
``wrong_answers`` when any change run had one.  Per-layer metrics are
listed without a verdict.

Exit status: 0 when no verdict is ``worse`` or ``unresolved``, 1
otherwise, 2 when the records cannot be compared (different host stamps,
run lengths or tracing, or no common workload).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import stats

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Stamp fields that must agree for two records to be comparable; the
#: git SHA and the seed may differ.
HOST_KEYS = ("nproc", "cpu", "python", "numpy", "cffi")

#: Metrics judged on their medians alone.  Set-up time is interpreter
#: start and imports, whose run-to-run spread on a shared host is often
#: wider than any useful bound.
MEDIAN_ONLY = ("setup_s",)


def host(record: dict) -> dict:
    return {key: record["stamp"].get(key) for key in HOST_KEYS}


def run_kind(record: dict) -> dict:
    """What a record measured: its run length and whether it was traced."""
    return {"seconds": record.get("seconds"), "trace": record.get("trace")}


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for record in records:
        entry = record["workloads"].get(workload, {}).get("metrics", {})
        if metric in entry:
            out.append(entry[metric]["value"])
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    workloads = sorted(
        set().union(*(r["workloads"] for r in parent))
        & set().union(*(r["workloads"] for r in change))
    )
    for workload in workloads:
        metrics = sorted({
            metric for r in parent
            for metric in r["workloads"].get(workload, {}).get("metrics", {})
        })
        for metric in metrics:
            a, b = values(parent, workload, metric), values(change, workload, metric)
            if not a or not b:
                continue
            if metric in bounded:
                row = stats.verdict(a, b, bounded[metric]["better"],
                                    bounded[metric]["bound"],
                                    judge_spread=metric not in MEDIAN_ONLY)
            else:
                row = {"parent_median": statistics.median(a),
                       "change_median": statistics.median(b), "verdict": "-"}
            rows.append({"workload": workload, "metric": metric, **row})
        runs = [[r["workloads"][workload] for r in side
                 if workload in r["workloads"]] for side in (parent, change)]
        failed = [statistics.median([o["failed"] / o["attempted"] for o in side])
                  for side in runs]
        wrong = [max(o["wrong_answers"] for o in side) for side in runs]
        rows.append({
            "workload": workload, "metric": "failed_share",
            "parent_median": failed[0], "change_median": failed[1],
            "verdict": "worse" if failed[1] > failed[0] else "no-worse",
        })
        rows.append({
            "workload": workload, "metric": "wrong_answers (max)",
            "parent_median": wrong[0], "change_median": wrong[1],
            "verdict": "worse" if wrong[1] > 0 else "no-worse",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<26} {'parent':>12} {'change':>12} "
             f"{'change%':>8} {'wins':>5}  verdict"]
    for row in rows:
        pct = row.get("change_pct")
        wins = row.get("win_share")
        lines.append(
            f"{row['workload']:<15} {row['metric']:<26} "
            f"{row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
            f"{'' if pct is None else f'{pct:+.1f}':>8} "
            f"{'' if wins is None else f'{wins:.2f}':>5}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print("error: need records on both sides of --", file=sys.stderr)
        return 2
    parent = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths_a]
    change = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths_b]
    stamps = {json.dumps(host(r), sort_keys=True) for r in parent + change}
    if len(stamps) != 1:
        print("error: host stamps differ; refusing to compare:\n  "
              + "\n  ".join(sorted(stamps)), file=sys.stderr)
        return 2
    kinds = {json.dumps(run_kind(r), sort_keys=True) for r in parent + change}
    if len(kinds) != 1:
        print("error: records differ in run length or tracing; refusing to "
              "compare:\n  " + "\n  ".join(sorted(kinds)), file=sys.stderr)
        return 2
    rows = compare(parent, change, json.loads(SPEC.read_text(encoding="utf-8")))
    if not rows:
        print("error: no workload in common", file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
