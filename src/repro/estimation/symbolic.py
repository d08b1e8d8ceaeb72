"""Symbolic (sympy) versions of the Section 3 closed forms.

The paper derives its counts as *expressions in the loop limits*
(``reuse = (N1-1)(N2-2)``, ``A_d = 2 N1 N2 - reuse``, ...).  This module
produces exactly those expressions with sympy symbols for the trip
counts, so a designer can see the memory requirement as a function of
problem size before fixing it — e.g. to solve ``A_d(N) <= capacity`` for
the largest image a given SRAM supports.

Substituting concrete trip counts reproduces the numeric estimators
(property-tested).
"""

from __future__ import annotations

from typing import Sequence

import sympy

from repro.dependence.analysis import self_reuse_distance
from repro.dependence.reuse import group_reuse_distances
from repro.ir.program import Program


def trip_symbols(depth: int) -> tuple[sympy.Symbol, ...]:
    """``(N1, ..., Nn)`` as positive integer sympy symbols."""
    return tuple(
        sympy.Symbol(f"N{k + 1}", positive=True, integer=True)
        for k in range(depth)
    )


def symbolic_reuse_clamped(
    distances: Sequence[Sequence[int]],
    trips: Sequence[sympy.Expr],
) -> sympy.Expr:
    """``sum_k prod_j Max(0, N_j - |d_kj|)`` — the guarded reuse count.

    Unlike :func:`symbolic_reuse`, valid for *every* positive bound
    vector: when a distance component exceeds its trip count the term
    clamps to zero instead of going negative, exactly as the numeric
    :func:`repro.estimation.distinct.reuse_from_distances` does.

    >>> n1, n2 = trip_symbols(2)
    >>> symbolic_reuse_clamped([(1, -2)], (n1, n2)).subs({n1: 5, n2: 2})
    0
    """
    total = sympy.Integer(0)
    for d in distances:
        if len(d) != len(trips):
            raise ValueError("distance arity != nest depth")
        term = sympy.Integer(1)
        for n, dj in zip(trips, d):
            term *= sympy.Max(0, n - abs(dj))
        total += term
    return total


def symbolic_reuse(
    distances: Sequence[Sequence[int]],
    trips: Sequence[sympy.Expr],
) -> sympy.Expr:
    """``sum_k prod_j (N_j - |d_kj|)`` as a sympy expression.

    >>> n1, n2 = trip_symbols(2)
    >>> symbolic_reuse([(1, -2)], (n1, n2))
    (N1 - 1)*(N2 - 2)
    """
    total = sympy.Integer(0)
    for d in distances:
        if len(d) != len(trips):
            raise ValueError("distance arity != nest depth")
        term = sympy.Integer(1)
        for n, dj in zip(trips, d):
            term *= (n - abs(dj))
        total += term
    return sympy.expand(total) if len(distances) > 1 else total


def symbolic_distinct_accesses(
    program: Program, array: str
) -> tuple[sympy.Expr, tuple[sympy.Symbol, ...]]:
    """The paper's ``A_d`` as an expression in symbolic trip counts.

    Dispatches like the numeric estimator: ``d == n`` multi-reference
    (``A_d = r * prod N - reuse``) and single-reference kernel reuse
    (``A_d = prod N - reuse``), the distances read in the program's box
    (:func:`~repro.dependence.analysis.dependence_distance`).  Returns
    ``(expression, symbols)``; substituting the numeric trip counts gives
    the numeric estimate.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 10 {
    ...   for j = 1 to 10 {
    ...     A[i][j] = A[i-1][j+2]
    ...   }
    ... }
    ... ''')
    >>> expr, syms = symbolic_distinct_accesses(p, "A")
    >>> expr
    2*N1*N2 - (N1 - 1)*(N2 - 2)
    """
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        raise ValueError(
            f"{array}: symbolic closed forms need uniformly generated references"
        )
    trips = trip_symbols(program.nest.depth)
    volume = sympy.Integer(1)
    for n in trips:
        volume *= n
    has_kernel = bool(refs[0].reuse_directions())
    spans = program.nest.spans

    if not has_kernel:
        if len(refs) == 1 or len({r.offset for r in refs}) == 1:
            return volume, trips
        distances = group_reuse_distances(refs, spans)
        reuse = symbolic_reuse(distances, trips)
        return len(refs) * volume - reuse, trips
    if len(refs) == 1 or len({r.offset for r in refs}) == 1:
        vector = self_reuse_distance(refs[0], spans)
        reuse = symbolic_reuse([vector] if vector else [], trips)
        return volume - reuse, trips
    raise ValueError(
        f"{array}: no paper closed form for multiple kernel-reuse references; "
        "estimate_distinct_accesses counts them exactly"
    )


def derive_parametric_distinct(program: Program, array: str, seed: int = 0):
    """Exact ``A_d`` as a closed form in the trip counts, or ``None``.

    Strategy: try the paper's closed form first
    (:func:`symbolic_distinct_accesses`) and keep it only if it matches
    the exact enumerative counter on every held-out bound vector — the
    paper's dispatch is exact for its covered cases, but the verification
    makes that an observed fact rather than an assumption.  Where no
    closed form applies (non-uniform references, multiple kernel-reuse
    references) fall back to exact polynomial interpolation of the
    enumerative counter itself.  Either way the returned expression is
    exact on its domain; ``None`` means "enumerate instead".

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 10 {
    ...   for j = 1 to 10 {
    ...     A[i][j] = A[i-1][j+2]
    ...   }
    ... }
    ... ''')
    >>> pe = derive_parametric_distinct(p, "A")
    >>> sympy.expand(pe.expr)
    N1*N2 + 2*N1 + N2 - 2
    >>> pe.substitute((10, 10))
    128
    """
    import random

    from repro.estimation.exact import exact_distinct_accesses
    from repro.estimation.parametric import (
        ParametricExpr,
        derivation_base,
        derivation_feasible,
        derivation_supported,
        derive_polynomial,
        verify_expression,
        with_trip_counts,
    )

    if not derivation_supported(program, array):
        return None
    depth = program.nest.depth
    base = derivation_base(program, array)

    def evaluate(trips: tuple[int, ...]) -> int:
        return exact_distinct_accesses(with_trip_counts(program, trips), array)

    try:
        expr, symbols = symbolic_distinct_accesses(program, array)
    except (KeyError, ValueError):
        expr = None
    if expr is not None and derivation_feasible(base, 5):
        rng = random.Random(f"param-distinct:{seed}:{depth}:{base}")
        checked = verify_expression(expr, symbols, evaluate, base, 5, rng)
        if checked is not None:
            return ParametricExpr(
                "distinct", array, expr, tuple(symbols), base,
                "closed-form", checked,
            )
    fit = derive_polynomial(evaluate, depth, base, seed=seed)
    if fit is None:
        return None
    expr, symbols, checked, method = fit
    return ParametricExpr("distinct", array, expr, symbols, base, method, checked)


def derive_parametric_reuse(program: Program, array: str, seed: int = 0):
    """Paper Section 3 reuse count as a guarded closed form, or ``None``.

    Built directly from the constant distance vectors (self reuse from
    the access-matrix kernel, group reuse from offset differences) with
    ``Max(0, ...)`` clamps, so it is valid at *every* positive bound
    vector — the domain is all-ones.  ``None`` when the references admit
    no constant distance vectors (non-uniform pairs) or their kernel's
    vector is past ``REPRO_DENSE_BUDGET``.
    """
    from repro.estimation.parametric import ParametricExpr

    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        return None
    spans = program.nest.spans
    try:
        vector = self_reuse_distance(refs[0], spans)
        distances = [vector] if vector else []
        if len({r.offset for r in refs}) > 1:
            distances.extend(group_reuse_distances(refs, spans))
    except ValueError:
        # A kernel of dimension >= 2 whose vector is past
        # REPRO_DENSE_BUDGET: no closed form.
        return None
    trips = trip_symbols(program.nest.depth)
    expr = symbolic_reuse_clamped(distances, trips)
    return ParametricExpr(
        "reuse", array, expr, trips, (1,) * program.nest.depth,
        "closed-form", 0,
    )


def max_problem_size(
    expression: sympy.Expr,
    symbols: Sequence[sympy.Symbol],
    capacity: int,
    square: bool = True,
) -> int | None:
    """Largest ``N`` with ``A_d(N, ..., N) <= capacity`` (square nests).

    The designer-facing inverse question: how large a problem fits a
    given memory?  Monotone in ``N``, so a doubling-then-bisect search
    on the substituted expression is exact.  Returns None when even
    ``N = 1`` exceeds the capacity.
    """
    if not square:
        raise NotImplementedError("only square problem sizes are searched")
    n = sympy.Symbol("n", positive=True, integer=True)
    single = expression.subs({s: n for s in symbols})

    def value(k: int) -> int:
        return int(single.subs(n, k))

    if value(1) > capacity:
        return None
    hi = 1
    while value(hi * 2) <= capacity:
        hi *= 2
        if hi > 1 << 24:
            return hi  # effectively unbounded for any real capacity
    lo = hi
    hi = hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if value(mid) <= capacity:
            lo = mid
        else:
            hi = mid
    return lo
