"""Branch-and-bound minimization of the eq. (2) objective (Section 4.2).

The paper: "We use either a branch and bound technique (or general
nonlinear programming techniques) to minimize this function; the number
of variables is linear in the number of nested loops which is usually
very small in practice."  This module implements that search for the 2-D
case: minimize

    MWS(a, b) = (min((N1-1)/|b|, (N2-1)/|a|) + 1) * |alpha2*a - alpha1*b|

over integer rows ``(a, b)`` subject to the tiling constraints
``a*d1 + b*d2 >= 0``.  Branching splits the (a, b) box; bounding uses
``window_step_min * 1`` (maxspan >= 1) per box, where ``window_step_min``
is the smallest achievable ``|alpha2*a - alpha1*b|`` over the box —
computed exactly from the box corners and the line ``alpha2*a = alpha1*b``.

The alternative the paper suggests — "minimize ``5a - 2b`` subject to the
constraints" — is exposed as :func:`minimize_window_step` (a tiny exact
integer program over the same boxes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro import obs
from repro.transform import journal
from repro.window.mws import mws_2d_estimate_batch


@dataclass(frozen=True)
class BBResult:
    """Outcome of the branch-and-bound minimization."""

    row: tuple[int, int]
    objective: Fraction
    nodes_explored: int
    candidates_evaluated: int


def _window_step_lower_bound(
    alpha1: int, alpha2: int, box: tuple[int, int, int, int]
) -> int:
    """Exact min of ``|alpha2*a - alpha1*b|`` over integer points of a box.

    The function is linear; its min over the box is 0 iff the zero line
    crosses the box on an integer point, else it is achieved on the
    boundary — scan the shorter box side.
    """
    a_lo, a_hi, b_lo, b_hi = box
    best = None
    if (a_hi - a_lo) <= (b_hi - b_lo):
        for a in range(a_lo, a_hi + 1):
            # alpha2*a - alpha1*b: extremes at b bounds; zero near
            # b = alpha2*a/alpha1 when alpha1 != 0.
            candidates = {b_lo, b_hi}
            if alpha1 != 0:
                near = alpha2 * a / alpha1
                for b in (math.floor(near), math.ceil(near)):
                    if b_lo <= b <= b_hi:
                        candidates.add(b)
            for b in candidates:
                value = abs(alpha2 * a - alpha1 * b)
                if best is None or value < best:
                    best = value
    else:
        for b in range(b_lo, b_hi + 1):
            candidates = {a_lo, a_hi}
            if alpha2 != 0:
                near = alpha1 * b / alpha2
                for a in (math.floor(near), math.ceil(near)):
                    if a_lo <= a <= a_hi:
                        candidates.add(a)
            for a in candidates:
                value = abs(alpha2 * a - alpha1 * b)
                if best is None or value < best:
                    best = value
    return best if best is not None else 0


def _feasible(a: int, b: int, distances: Sequence[Sequence[int]]) -> bool:
    return all(a * d1 + b * d2 >= 0 for d1, d2 in distances)


def _box_may_be_feasible(
    box: tuple[int, int, int, int], distances: Sequence[Sequence[int]]
) -> bool:
    """A linear constraint holds somewhere in the box iff it holds at the
    maximizing corner."""
    a_lo, a_hi, b_lo, b_hi = box
    for d1, d2 in distances:
        best = max(
            a * d1 + b * d2
            for a in (a_lo, a_hi)
            for b in (b_lo, b_hi)
        )
        if best < 0:
            return False
    return True


@obs.profiled("search.branch_bound")
def branch_and_bound_mws_2d(
    alpha1: int,
    alpha2: int,
    n1: int,
    n2: int,
    distances: Sequence[Sequence[int]],
    bound: int = 16,
) -> BBResult:
    """Minimize eq. (2) over coprime tileable rows with |a|,|b| <= bound.

    Equivalent in result to exhaustive enumeration (tested) but prunes
    with the window-step bound against the best value found so far,
    exploring far fewer nodes at large bounds.

    >>> r = branch_and_bound_mws_2d(2, 5, 25, 10, [(3, -2), (2, 0), (5, -2)])
    >>> (r.row, r.objective)
    ((2, 3), Fraction(22, 1))
    """
    best_value: Fraction | None = None
    best_row: tuple[int, int] | None = None
    nodes = 0
    evaluated = 0
    pruned = 0
    jr = journal.active()
    # Rows and negated rows scan the same loop backwards; canonicalize to
    # a >= 0 as the search half-space.
    stack = [(0, bound, -bound, bound)]
    while stack:
        box = stack.pop()
        a_lo, a_hi, b_lo, b_hi = box
        if a_lo > a_hi or b_lo > b_hi:
            continue
        nodes += 1
        if not _box_may_be_feasible(box, distances):
            pruned += 1
            if jr is not None:
                jr.record(
                    "prune", box, "pruned",
                    reason="infeasible: tiling constraints unsatisfiable over box",
                )
            continue
        # Lower bound on the objective over this box: maxspan >= 1.
        step_bound = _window_step_lower_bound(alpha1, alpha2, box)
        if step_bound > 0 and best_value is not None and step_bound >= best_value:
            pruned += 1
            if jr is not None:
                jr.record(
                    "prune", box, "pruned",
                    reason=f"bound: window-step lower bound {step_bound} "
                           f">= incumbent {best_value}",
                )
            continue
        if (a_hi - a_lo) <= 1 and (b_hi - b_lo) <= 1:
            # Leaf cells are evaluated unconditionally (no intra-leaf
            # pruning), so batching the estimate calls is exactly
            # semantics-preserving: same cells, same order, same
            # incumbent updates, same journal records.
            cells = [
                (a, b)
                for a in range(a_lo, a_hi + 1)
                for b in range(b_lo, b_hi + 1)
                if (a, b) != (0, 0)
                and math.gcd(a, b) == 1
                and not (a == 0 and b < 0)
                and _feasible(a, b, distances)
            ]
            for (a, b), value in zip(
                cells, mws_2d_estimate_batch(alpha1, alpha2, n1, n2, cells)
            ):
                evaluated += 1
                if jr is not None:
                    jr.record("bb", (a, b), "candidate", estimate=value)
                if best_value is None or value < best_value:
                    best_value = value
                    best_row = (a, b)
            continue
        # Branch on the longer axis.
        if (a_hi - a_lo) >= (b_hi - b_lo):
            mid = (a_lo + a_hi) // 2
            stack.append((a_lo, mid, b_lo, b_hi))
            stack.append((mid + 1, a_hi, b_lo, b_hi))
        else:
            mid = (b_lo + b_hi) // 2
            stack.append((a_lo, a_hi, b_lo, mid))
            stack.append((a_lo, a_hi, mid + 1, b_hi))
    if best_row is None:
        raise ValueError("no feasible coprime row in the search box")
    obs.counter("search.bb.nodes", nodes)
    obs.counter("search.bb.evaluated", evaluated)
    obs.counter("search.bb.pruned", pruned)
    return BBResult(best_row, best_value, nodes, evaluated)


@obs.profiled("search.minimize_window_step")
def minimize_window_step(
    alpha1: int,
    alpha2: int,
    distances: Sequence[Sequence[int]],
    bound: int = 16,
) -> tuple[int, int]:
    """The paper's shortcut: minimize ``|alpha2*a - alpha1*b|`` alone.

    "Alternately, if we minimize 5a - 2b subject to constraints, we get
    very good solutions in practice."  Exact over the bounded box; ties
    broken toward small entries.
    """
    best = None
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            if a == 0 and b < 0:
                continue
            if not _feasible(a, b, distances):
                continue
            key = (abs(alpha2 * a - alpha1 * b), abs(a) + abs(b))
            if best is None or key < best[0]:
                best = (key, (a, b))
    if best is None:
        raise ValueError("no feasible coprime row in the search box")
    return best[1]
