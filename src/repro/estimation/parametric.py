"""Parametric (symbolic-in-the-bounds) analysis infrastructure.

The paper states MWS and distinct-access counts as *functions of the
loop limits* — but the exact engines answer for one concrete bound
vector at a time.  This module closes the gap: it derives closed-form
sympy expressions in the symbolic trip counts ``(N1..Nn)`` that agree
*exactly* with the simulators, by exact polynomial interpolation of the
engines themselves on a small grid of resized programs, verified on
held-out bound vectors before being trusted.

Why interpolation rather than the paper's formulas: eq. (2) and the
Section 4.3 form are *estimates* (Example 8's identity estimate is 50
where the exact window is 44).  The exact MWS of a fixed access pattern
is, away from degenerate small-bound regimes, a polynomial of low
degree in each trip count (the window is a union of boxes whose extents
are affine in the ``N_j``); sampling the exact engine at enough sizes
and interpolating recovers that polynomial exactly — integer arithmetic
end to end, no floating point.  Where the polynomial regime has not yet
been entered (trip counts smaller than the reuse distances) the derived
expression is *not* valid, so every :class:`ParametricExpr` carries a
``domain`` — minimal trip counts per level — and refuses to substitute
below it.  Verification failure (a regime switch inside the sampled
range, e.g. a ``Min`` between spans) makes derivation return ``None``
and callers fall back to plain simulation; the fallback is always safe.

Keying: a parametric result is a property of the program *family* — the
access structure with the loop bounds stripped.  :func:`parametric_signature`
canonicalizes lower bounds to 1 (folding the shift into the reference
offsets, which preserves the access stream exactly) and hashes the rest,
so one derived record answers every member of the family.

Counters: ``param.derived`` (successful derivations), ``param.fallback``
(queries answered by simulation because derivation failed or the bounds
fell outside the domain), ``param.subs_hits`` (queries answered by pure
substitution).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import sympy

from repro import obs
from repro.dependence.analysis import dependence_distance, self_reuse_distance
from repro.estimation.symbolic import trip_symbols
from repro.ir.loop import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.ir.statement import Statement
from repro.store.lru import LRUCache

#: Hard ceiling on nest depth for derivation (grid size is exponential).
MAX_DEPTH = 6

#: Largest interpolation grid we are willing to evaluate.
_MAX_GRID = 256

#: Largest resized-program iteration count touched during derivation;
#: beyond this, deriving costs more than it can plausibly save.
_MAX_POINT_ITERS = 400_000

#: Verification points beyond the per-axis corners.
_EXTRA_SAMPLES = 3


# ----------------------------------------------------------------------
# program-family plumbing
# ----------------------------------------------------------------------

def with_trip_counts(program: Program, trips: Sequence[int]) -> Program:
    """The same program with trip counts replaced (lower bounds kept).

    Explicit declarations are dropped: they may not cover the resized
    footprint, and nothing the parametric engines compute (windows,
    distinct counts) consults them.
    """
    if len(trips) != program.nest.depth:
        raise ValueError(
            f"{len(trips)} trip counts for a depth-{program.nest.depth} nest"
        )
    loops = tuple(
        Loop(lp.index, lp.lower, lp.lower + int(t) - 1)
        for lp, t in zip(program.nest.loops, trips)
    )
    return Program(LoopNest(loops), program.statements, name=program.name)


def normalize_lowers(program: Program) -> Program:
    """Shift every loop to start at 1, folding the shift into offsets.

    Iteration ``i`` of the original maps to ``i' = i - (lower - 1)`` and
    the element ``A i + c`` becomes ``A i' + (c + A (lower - 1))`` — the
    access stream is untouched, so every window/distinct result carries
    over exactly.
    """
    lowers = program.nest.lowers
    if all(lo == 1 for lo in lowers):
        return program
    shift = tuple(lo - 1 for lo in lowers)
    loops = tuple(Loop(lp.index, 1, lp.trip_count) for lp in program.nest.loops)

    def adjust(ref: ArrayRef) -> ArrayRef:
        delta = ref.access.apply(shift)
        offset = tuple(c + d for c, d in zip(ref.offset, delta))
        return ArrayRef(ref.array, ref.access, offset, ref.kind)

    statements = tuple(
        Statement(
            stmt.label,
            tuple(adjust(r) for r in stmt.writes),
            tuple(adjust(r) for r in stmt.reads),
        )
        for stmt in program.statements
    )
    return Program(LoopNest(loops), statements, name=program.name)


def parametric_signature(program: Program) -> str:
    """Content hash of the program *family*: structure minus the bounds.

    Two programs share a parametric signature iff they differ only in
    their loop bounds (after lower-bound normalization), i.e. iff one
    derived expression answers both.
    """
    norm = normalize_lowers(program)
    content = (
        norm.nest.depth,
        tuple(
            (ref.array, ref.access.rows, tuple(ref.offset), ref.is_write)
            for ref in norm.references
        ),
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()


# ----------------------------------------------------------------------
# the derived object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParametricExpr:
    """A closed-form expression in the symbolic trip counts.

    ``domain`` is the per-level minimal trip count at which the
    expression was derived and verified; :meth:`substitute` returns
    ``None`` below it (the caller falls back to simulation) rather than
    ever returning a value the derivation did not cover.
    """

    kind: str  # "mws" | "distinct" | "reuse"
    array: str | None
    expr: sympy.Expr
    symbols: tuple[sympy.Symbol, ...]
    domain: tuple[int, ...]
    method: str
    checked: int  # held-out bound vectors the expression was verified on

    def substitute(self, trips: Sequence[int]) -> int | None:
        """Exact value at concrete trip counts, or ``None`` off-domain."""
        if len(trips) != len(self.symbols):
            raise ValueError(
                f"{len(trips)} trip counts for {len(self.symbols)} symbols"
            )
        if any(t < d for t, d in zip(trips, self.domain)):
            return None
        value = self.expr.subs(
            {s: sympy.Integer(int(t)) for s, t in zip(self.symbols, trips)}
        )
        if value.free_symbols or not value.is_Integer or value < 0:
            return None
        return int(value)

    def __str__(self) -> str:
        target = self.array if self.array is not None else "<total>"
        return f"{self.kind}({target}) = {self.expr}  [{self.method}]"


def encode_parametric(pe: ParametricExpr) -> dict:
    """JSON-safe payload for :mod:`repro.store` persistence."""
    return {
        "schema": 1,
        "kind": pe.kind,
        "array": pe.array,
        "expr": sympy.srepr(pe.expr),
        "symbols": [s.name for s in pe.symbols],
        "domain": list(pe.domain),
        "method": pe.method,
        "checked": pe.checked,
    }


def decode_parametric(value) -> ParametricExpr | None:
    """Stored payload -> :class:`ParametricExpr`; ``None`` (a miss) when
    the payload does not decode — never an exception."""
    try:
        if value.get("schema") != 1:
            raise ValueError("unknown parametric schema")
        symbols = trip_symbols(len(value["symbols"]))
        if [s.name for s in symbols] != list(value["symbols"]):
            raise ValueError("unexpected symbol names")
        expr = sympy.sympify(value["expr"])
        if not expr.free_symbols <= set(symbols):
            raise ValueError("stray free symbols")
        domain = tuple(int(d) for d in value["domain"])
        if len(domain) != len(symbols):
            raise ValueError("domain arity mismatch")
        return ParametricExpr(
            str(value["kind"]),
            value["array"],
            expr,
            symbols,
            domain,
            str(value["method"]),
            int(value["checked"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, sympy.SympifyError):
        obs.counter("store.corrupt")
        return None


# ----------------------------------------------------------------------
# derivation: exact interpolation of the exact engines
# ----------------------------------------------------------------------

def derivation_base(
    program: Program,
    array: str | None = None,
    transformation=None,
) -> tuple[int, ...]:
    """Per-level minimal trip counts at which derivation is attempted.

    The polynomial regime starts once every trip count clears the reuse
    distances along its level with margin — empirically the boundary
    sits near *twice* the distance component (e.g. ``X[2i + 5j]`` with
    reuse vector ``(5, -2)`` saturates in ``N1`` at 10): below it, the
    box truncates how many carriers of the reuse fit, clamping terms
    like ``min(N1 - d1, ...)``.  This is a heuristic, not a proof —
    verification decides; a base that is too small simply makes
    derivation fail and the caller fall back to simulation.

    Every *pairwise* dependence distance is folded in, not just the
    Section-3 common-sink set: a distance that is out of bounds for the
    concrete program (hence invisible to its numeric estimate) still
    bends the parametric family once the bounds grow past it, and a
    base below it would verify entirely inside the clamped regime
    (found by the conformance fuzz: an ``A d = Δb`` solution of
    ``(8, 5, 7)`` between two writes with no common sink).  For the
    same reason the requirement is not capped: an expensive base makes
    :func:`derivation_feasible` decline rather than silently verifying
    short of the regime boundary.  A kernel of dimension >= 2 has no
    box-free smallest member; its vector is the one in the program's box
    (the box itself past ``REPRO_DENSE_BUDGET``).
    """
    depth = program.nest.depth
    comp = [0] * depth
    arrays = (array,) if array is not None else program.arrays
    spans = program.nest.spans

    def fold(distance, *refs) -> None:
        try:
            vector = distance(*refs, spans) or ()
        except ValueError:
            # A kernel of dimension >= 2 past REPRO_DENSE_BUDGET: its
            # vector lies in the box, so the box bounds it.
            vector = spans
        for j, d in enumerate(vector):
            comp[j] = max(comp[j], abs(int(d)))

    for name in arrays:
        refs = list(program.refs_to(name))
        for ref in refs:
            fold(self_reuse_distance, ref)
        if len(refs) > 1 and program.is_uniformly_generated(name):
            # Both orientations: dependence_distance keeps only the lex-
            # positive family member, and with an empty kernel the
            # particular solution of one orientation is lex-negative.
            for i, src in enumerate(refs):
                for sink in refs[i + 1:]:
                    fold(dependence_distance, src, sink)
                    fold(dependence_distance, sink, src)
    bump = 0
    if transformation is not None:
        bump = 2 * max(abs(v) for row in transformation.rows for v in row)
    return tuple(max(3, 2 * c + 2 + bump) for c in comp)


def derivation_supported(program: Program, array: str | None = None) -> bool:
    """Whether the regime-start heuristic is trustworthy for the array.

    References that are not uniformly generated (different access
    matrices on one array) intersect along lattices
    :func:`derivation_base` cannot see: a cross-statement solution of
    ``A1 x + b1 = A2 y + b2`` entering the iteration box past the
    verification window makes an interpolant verify entirely inside
    the clamped regime yet miscount beyond it (corpus seed 1007, where
    the images first meet at ``N3 = 9``).  With no sound bound on
    where those regimes start, derivation declines and the caller
    simulates — the fallback contract.  ``array=None`` (the program
    total) requires every array to qualify.
    """
    names = (array,) if array is not None else program.arrays
    for name in names:
        refs = list(program.refs_to(name))
        if len(refs) > 1 and not program.is_uniformly_generated(name):
            return False
    return True


def _lagrange_basis(
    symbol: sympy.Symbol, nodes: Sequence[int], k: int
) -> sympy.Expr:
    numerator = sympy.Integer(1)
    denominator = 1
    for j, xj in enumerate(nodes):
        if j == k:
            continue
        numerator *= symbol - xj
        denominator *= nodes[k] - xj
    return numerator / sympy.Integer(denominator)


def _fit(
    nodes_per_dim: Sequence[Sequence[int]],
    values: dict[tuple[int, ...], int],
    symbols: Sequence[sympy.Symbol],
) -> sympy.Expr:
    """Tensor-product Lagrange interpolant through the grid values.

    Exact rational arithmetic: the result reproduces every grid value
    identically, and is the unique polynomial of the grid's per-variable
    degrees doing so.
    """
    total = sympy.Integer(0)
    for point, value in values.items():
        term = sympy.Integer(value)
        for symbol, nodes, coord in zip(symbols, nodes_per_dim, point):
            term *= _lagrange_basis(symbol, nodes, nodes.index(coord))
        total += term
    return sympy.expand(total)


def _verification_points(
    base: Sequence[int], spread: int, rng: random.Random, extra: int
) -> list[tuple[int, ...]]:
    """Held-out bound vectors: per-axis corners, the diagonal, random fill.

    The box corners (one axis at its minimum while the rest sit high,
    and vice versa) expose ``Min``-style regime switches between an axis
    and a constant.  The *square* points — every trip count at
    ``max(base)``, then each axis stretched past it — straddle the
    ``N_i == N_j`` diagonal, where skewing transformations put their
    regime boundaries; an asymmetric base box sits entirely on one side
    of that diagonal and would never notice the switch (found by the
    parametric conformance fuzz).
    """
    depth = len(base)
    points: set[tuple[int, ...]] = set()
    high = tuple(b + spread for b in base)
    points.add(high)
    for j in range(depth):
        low_j = list(high)
        low_j[j] = base[j]
        points.add(tuple(low_j))
        high_j = list(base)
        high_j[j] = base[j] + spread
        points.add(tuple(high_j))
    peak = max(base)
    square = (peak,) * depth
    points.add(square)
    for j in range(depth):
        stretched = list(square)
        stretched[j] = peak + spread
        points.add(tuple(stretched))
    target = min(2 * depth + 1 + extra, (spread + 1) ** depth)
    while len(points) < target:
        points.add(tuple(b + rng.randint(0, spread) for b in base))
    return sorted(points)


def derivation_feasible(base: Sequence[int], spread: int) -> bool:
    """Would derivation stay within the evaluation budget?

    Budgeted against the largest verification point — the stretched
    square corner at ``max(base) + spread`` on every axis — not just
    the base box.
    """
    if len(base) > MAX_DEPTH:
        return False
    total = (max(base) + spread) ** len(base)
    return total <= _MAX_POINT_ITERS


def verify_expression(
    expr: sympy.Expr,
    symbols: Sequence[sympy.Symbol],
    evaluate: Callable[[tuple[int, ...]], int],
    base: Sequence[int],
    spread: int,
    rng: random.Random,
) -> int | None:
    """Count of held-out points where ``expr`` matches ``evaluate``,
    or ``None`` on the first mismatch."""
    points = _verification_points(base, spread, rng, _EXTRA_SAMPLES)
    for point in points:
        got = expr.subs({s: sympy.Integer(v) for s, v in zip(symbols, point)})
        if got != evaluate(point):
            return None
    return len(points)


def derive_polynomial(
    evaluate: Callable[[tuple[int, ...]], int],
    depth: int,
    base: Sequence[int],
    degrees: Sequence[int] = (1, 2),
    seed: int = 0,
) -> tuple[sympy.Expr, tuple[sympy.Symbol, ...], int, str] | None:
    """Interpolate ``evaluate`` as a polynomial in the trip counts.

    Tries each per-variable degree in order; an interpolant is accepted
    only if it reproduces ``evaluate`` exactly on every held-out
    verification point (corners + random, deterministic in ``seed``).
    Returns ``(expr, symbols, checked, method)`` or ``None``.
    """
    spread = max(degrees) + 3
    if not derivation_feasible(base, spread):
        return None
    symbols = trip_symbols(depth)
    rng = random.Random(f"param:{seed}:{depth}:{tuple(base)}")
    cache: dict[tuple[int, ...], int] = {}

    def cached_eval(point: tuple[int, ...]) -> int:
        if point not in cache:
            cache[point] = int(evaluate(point))
        return cache[point]

    check_points = _verification_points(base, spread, rng, _EXTRA_SAMPLES)
    for degree in degrees:
        if (degree + 1) ** depth > _MAX_GRID:
            continue
        nodes_per_dim = [
            tuple(b + k for k in range(degree + 1)) for b in base
        ]
        grid = list(itertools.product(*nodes_per_dim))
        values = {point: cached_eval(point) for point in grid}
        expr = _fit(nodes_per_dim, values, symbols)
        ok = all(
            expr.subs({s: sympy.Integer(v) for s, v in zip(symbols, point)})
            == cached_eval(point)
            for point in check_points
        )
        if ok:
            return expr, symbols, len(check_points), f"interpolated-deg{degree}"
    return None


# ----------------------------------------------------------------------
# cache + store resolution
# ----------------------------------------------------------------------

_PARAM_CACHE_LIMIT = 1024
_PARAM_CACHE: LRUCache = LRUCache(_PARAM_CACHE_LIMIT, counter="param.cache")

#: In-cache marker for "derivation was attempted and failed" — kept so a
#: hot loop over an underivable program pays the derivation cost once.
_FAILED = object()

_FAILED_PAYLOAD = {"schema": 1, "failed": True}


def clear_param_cache() -> None:
    """Drop memoized parametric derivations (tests, benchmarks)."""
    _PARAM_CACHE.clear()


def _t_rows(transformation) -> tuple | None:
    return None if transformation is None else transformation.rows


def resolve_parametric(
    program: Program,
    kind: str,
    array: str | None = None,
    transformation=None,
    store=None,
    seed: int = 0,
) -> ParametricExpr | None:
    """Derived expression for the program's family — cache, then store,
    then a fresh derivation (persisting failures too, so warm runs skip
    re-deriving what cannot be derived)."""
    psig = parametric_signature(program)
    rows = _t_rows(transformation)
    key = (psig, kind, array, rows)
    cached = _PARAM_CACHE.get(key)
    if cached is not None:
        obs.counter("param.cache.hits")
        return None if cached is _FAILED else cached
    store_key = {"psig": psig, "kind": kind, "array": array, "t": rows}
    if store is not None:
        payload = store.get("parametric", store_key)
        if payload is not None:
            if isinstance(payload, dict) and payload.get("failed") is True:
                _PARAM_CACHE.put(key, _FAILED)
                return None
            decoded = decode_parametric(payload)
            if decoded is not None:
                _PARAM_CACHE.put(key, decoded)
                return decoded
    with obs.span("param.derive", kind=kind, array=array or "<total>"):
        derived = _derive(program, kind, array, transformation, seed)
    if derived is None:
        obs.counter("param.derive_failed")
        _PARAM_CACHE.put(key, _FAILED)
        if store is not None:
            store.put("parametric", store_key, dict(_FAILED_PAYLOAD))
        return None
    obs.counter("param.derived")
    _PARAM_CACHE.put(key, derived)
    if store is not None:
        store.put("parametric", store_key, encode_parametric(derived))
    return derived


def _derive(
    program: Program,
    kind: str,
    array: str | None,
    transformation,
    seed: int,
) -> ParametricExpr | None:
    # Imported lazily: window.symbolic imports this module.
    if kind == "mws":
        from repro.window.symbolic import derive_parametric_mws

        return derive_parametric_mws(
            program,
            array=array,
            transformation=transformation,
            seed=seed,
        )
    if kind == "distinct":
        from repro.estimation.symbolic import derive_parametric_distinct

        if array is None:
            raise ValueError("distinct derivation needs an array name")
        return derive_parametric_distinct(program, array, seed=seed)
    if kind == "reuse":
        from repro.estimation.symbolic import derive_parametric_reuse

        if array is None:
            raise ValueError("reuse derivation needs an array name")
        return derive_parametric_reuse(program, array, seed=seed)
    raise ValueError(f"unknown parametric kind {kind!r}")


def parametric_value(
    program: Program,
    kind: str,
    array: str | None = None,
    transformation=None,
    store=None,
    seed: int = 0,
) -> int | None:
    """One concrete answer by derivation + substitution, or ``None``.

    ``None`` means "fall back to the exact engines" (derivation failed
    or the program's bounds sit below the verified domain) and bumps
    ``param.fallback``; a served value bumps ``param.subs_hits``.
    """
    pe = resolve_parametric(
        program,
        kind,
        array=array,
        transformation=transformation,
        store=store,
        seed=seed,
    )
    value = None
    if pe is not None:
        value = pe.substitute(program.nest.trip_counts)
    if value is None:
        obs.counter("param.fallback")
        return None
    obs.counter("param.subs_hits")
    return value
