"""Symbolic (sympy) maximum-window-size expressions.

Two layers:

* Paper forms — equation (2) and the Section 4.3 formula as expressions
  in symbolic trip counts, the shape in which the paper states them
  ("MWS is a function of the loop limits").  Substituting numbers
  reproduces :mod:`repro.window.mws` *exactly*, for every sign of the
  access coefficients and reuse components (property-tested): signs are
  folded by the absolute values inside ``window_step`` and the span
  denominators in the 2-D form, and the 3-D form carries the same
  lex-normalization, fit guard and clamps as the numeric estimator as a
  :class:`sympy.Piecewise`.

* Exact parametric derivation — :func:`derive_parametric_mws` produces a
  closed form that matches the exact *simulators* (not the estimates) as
  a function of the trip counts, by exact polynomial interpolation of
  the engines on resized programs with held-out verification (see
  :mod:`repro.estimation.parametric` for the machinery and the fallback
  contract).
"""

from __future__ import annotations

import sympy

from repro.estimation.parametric import (
    ParametricExpr,
    derivation_base,
    derivation_supported,
    derive_polynomial,
    with_trip_counts,
)
from repro.estimation.symbolic import trip_symbols
from repro.ir.program import Program


def symbolic_mws_2d(
    alpha1: int, alpha2: int, a: int, b: int
) -> tuple[sympy.Expr, tuple[sympy.Symbol, ...]]:
    """Eq. (2) with symbolic ``N1, N2`` for fixed access row and T row.

    Coefficient signs need no assumption: the window step is
    ``|alpha2*a - alpha1*b|`` and the spans divide by ``|a|``, ``|b|``,
    so negated access rows or transformation rows give the same
    expression the numeric :func:`repro.window.mws.mws_2d_estimate`
    computes (pinned by the signed-range regression tests).

    >>> expr, (n1, n2) = symbolic_mws_2d(2, 5, 1, 0)
    >>> expr
    5*N2
    >>> expr.subs({n1: 25, n2: 10})
    50
    >>> symbolic_mws_2d(-2, -5, 1, 0)[0]  # negated access row: same window
    5*N2
    >>> expr, (n1, n2) = symbolic_mws_2d(2, 5, 2, 3)
    >>> expr.subs({n1: 25, n2: 10})  # Min picks the exhausted extent
    22
    """
    n1, n2 = trip_symbols(2)
    if a == 0 and b == 0:
        raise ValueError("transformation row (0, 0) is singular")
    window_step = abs(alpha2 * a - alpha1 * b)
    if window_step == 0:
        return sympy.Integer(1), (n1, n2)
    spans = []
    if b != 0:
        spans.append((n1 - 1) / sympy.Integer(abs(b)))
    if a != 0:
        spans.append((n2 - 1) / sympy.Integer(abs(a)))
    if len(spans) == 1:
        maxspan = spans[0] + 1
    else:
        maxspan = sympy.Min(*spans) + 1
    return maxspan * window_step, (n1, n2)


def symbolic_mws_3d(
    reuse_vector: tuple[int, int, int]
) -> tuple[sympy.Expr, tuple[sympy.Symbol, ...]]:
    """Section 4.3 formula with symbolic ``N1, N2, N3``.

    Mirrors :func:`repro.window.mws.mws_3d_estimate` exactly, including
    its regime guard: when the reuse vector does not fit the iteration
    box (some ``|d_j| >= N_j``) no iteration pair realizes the reuse and
    the window holds only the element in flight, so the expression is a
    :class:`sympy.Piecewise` collapsing to 1 outside the fit region.
    Inside it the clamps ``max(0, N - |d|)`` of the numeric form are
    strictly positive and drop out.

    >>> expr, syms = symbolic_mws_3d((1, 3, -3))
    >>> expr.subs(dict(zip(syms, (10, 20, 30))))
    541
    >>> expr.subs(dict(zip(syms, (10, 3, 30))))  # |d2| >= N2: no reuse
    1
    """
    d1, d2, d3 = reuse_vector
    if d1 < 0:
        d1, d2, d3 = -d1, -d2, -d3
    trips = trip_symbols(3)
    n1, n2, n3 = trips
    inner = (n2 - abs(d2)) * (n3 - abs(d3))
    if d2 <= 0:
        core = d1 * inner + 1
    else:
        core = d1 * inner + abs(d2) * (n3 - abs(d3)) + 1
    fits = sympy.And(n1 > abs(d1), n2 > abs(d2), n3 > abs(d3))
    if fits is sympy.true:
        return core, trips
    return sympy.Piecewise((core, fits), (1, True)), trips


def scaling_exponent(expression: sympy.Expr, symbol: sympy.Symbol) -> int:
    """Degree of the MWS expression in one loop limit.

    Quantifies the paper's Section 4.3 observation: pushing the reuse to
    inner levels removes whole factors of ``N`` from the window.
    Piecewise guards are stripped first (the scaling question is about
    the generic large-``N`` regime, where the non-degenerate arm rules).
    """
    if isinstance(expression, sympy.Piecewise):
        expression = expression.args[0][0]
    return sympy.degree(sympy.expand(expression), symbol)


def derive_parametric_mws(
    program: Program,
    array: str | None = None,
    transformation=None,
    seed: int = 0,
) -> ParametricExpr | None:
    """Exact MWS as a closed form in the trip counts, or ``None``.

    ``array=None`` derives the program-level total window (the Figure-2
    objective); a name derives that array alone.  ``transformation``
    derives the window under a candidate execution order.  The result
    matches the exact window engines identically at every bound vector
    inside its ``domain`` — interpolation is verified against the
    simulator on held-out vectors (including per-axis corners, which
    expose regime switches) before being returned; any mismatch means
    ``None`` and the caller simulates instead.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j] = 0
    ...   }
    ... }
    ... ''')
    >>> pe = derive_parametric_mws(p, "X")
    >>> pe.expr  # saturated in N1: the reuse spans 5 rows, no more
    5*N2 - 10
    >>> pe.substitute((25, 10))  # eq. (2) estimates 50; the truth
    40
    """
    from repro.window.simulator import max_total_window, max_window_size

    if not derivation_supported(program, array):
        return None
    base = derivation_base(program, array, transformation)

    def evaluate(trips: tuple[int, ...]) -> int:
        resized = with_trip_counts(program, trips)
        if array is None:
            return max_total_window(resized, transformation)
        return max_window_size(resized, array, transformation)

    fit = derive_polynomial(evaluate, program.nest.depth, base, seed=seed)
    if fit is None:
        return None
    expr, symbols, checked, method = fit
    return ParametricExpr("mws", array, expr, symbols, base, method, checked)
