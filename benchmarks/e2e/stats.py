"""Sample statistics of the benchmark: percentiles, quartiles, verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that one slow sample moves it.
MIN_BEYOND = 10

#: Share of parent/change pairs the change must win to claim a gain.
WIN_SHARE = 0.9

VERDICTS = ("better", "no-worse", "worse", "unresolved")


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie above it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    judge_spread: bool = True,
) -> dict:
    """Judge one (metric, workload) from paired parent and change runs.

    ``better`` when the change wins at least 9/10 of the pairs (runs
    paired in order, ties counting for neither) and the medians differ
    by more than the parent's own quartile distance.  Otherwise, when
    ``judge_spread`` and either side's quartile spread exceeds
    ``bound``, ``unresolved`` — unless every change run reads better
    than every parent run.  Otherwise ``worse`` when the change's median
    is worse than the parent's by more than ``bound`` (a share of the
    parent's median), else ``no-worse``.
    """
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1_a, q3_a = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_share = wins / len(pairs)
    gain = sign * (med_b - med_a)
    out = {
        "parent_median": med_a,
        "change_median": med_b,
        "parent_quartiles": [q1_a, q3_a],
        "change_quartiles": list(quartiles(change)),
        "win_share": win_share,
        "change_pct": 100.0 * (med_b - med_a) / abs(med_a) if med_a else math.inf,
    }
    spread = max(relative_iqr(parent), relative_iqr(change))
    if win_share >= WIN_SHARE and gain > q3_a - q1_a:
        out["verdict"] = "better"
    elif judge_spread and spread > bound:
        all_better = all(
            sign * (b - a) > 0 for a in parent for b in change
        )
        out["verdict"] = "no-worse" if all_better else "unresolved"
    elif -gain > bound * abs(med_a):
        out["verdict"] = "worse"
    else:
        out["verdict"] = "no-worse"
    return out
