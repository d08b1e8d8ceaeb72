"""Closed-form maximum window size estimates (paper eq. (1)-(2), Sec. 4.3).

2-D case: a single family of uniformly generated references
``X[a1*i + a2*j + c_k]`` in an ``N1 x N2`` nest, transformed by a
unimodular ``T = [[a, b], [c, d]]``.  Eq. (1):

    MWS = maxspan * |a2*a - a1*b| / det(T)

where ``maxspan`` is the maximum inner trip count of the transformed
nest.  Eq. (2) instantiates maxspan for a rectangular original domain:

    maxspan ~= min((N1-1)/|b|, (N2-1)/|a|) + 1

(the inner loop walks the direction ``(-b, a)`` across the box; whichever
box extent is exhausted first limits the walk).  The two branches printed
in the paper are the two arms of this ``min``; the unified form below
reproduces every number in the paper: identity on Example 8 gives 50, the
optimal ``(a, b) = (2, 3)`` gives 22 (actual 21), identity on Example 7
gives 90 (Eisenbeis et al. report 89 with their per-dependence window).

3-D case (Section 4.3): with reuse (nullspace) vector ``(d1, d2, d3)``,

    MWS = d1*(N2-|d2|)*(N3-|d3|) + 1                      if d2 <= 0
    MWS = d1*(N2-|d2|)*(N3-|d3|) + |d2|*(N3-|d3|) + 1     if d2 >  0

(The paper's Example 10 prints 540, omitting its own ``+1``; the formula
as stated gives 541 and the exact simulator arbitrates in the bench.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro import obs
from repro.dependence.analysis import self_reuse_distance
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.linalg import IntMatrix


def mws_2d_estimate(
    alpha1: int, alpha2: int, n1: int, n2: int, a: int, b: int
) -> Fraction:
    """Eq. (2) estimate of MWS for ``X[alpha1*i + alpha2*j + c]`` under a
    transformation with first row ``(a, b)``.

    Exact rational arithmetic; callers may round.  ``(a, b) = (1, 0)`` is
    the untransformed loop.

    >>> mws_2d_estimate(2, 5, 25, 10, 1, 0)
    Fraction(50, 1)
    >>> mws_2d_estimate(2, 5, 25, 10, 2, 3)
    Fraction(22, 1)
    """
    obs.counter("estimate.eq2.calls")
    return _eq2_value(alpha1, alpha2, n1, n2, a, b)


def _eq2_value(
    alpha1: int, alpha2: int, n1: int, n2: int, a: int, b: int
) -> Fraction:
    if a == 0 and b == 0:
        raise ValueError("transformation row (0, 0) is singular")
    window_step = abs(alpha2 * a - alpha1 * b)
    if window_step == 0:
        # The outer loop is aligned with the access function: all
        # iterations touching an element are consecutive in the inner
        # loop, so the window holds at most the element in flight.
        return Fraction(1)
    spans = []
    if b != 0:
        spans.append(Fraction(n1 - 1, abs(b)))
    if a != 0:
        spans.append(Fraction(n2 - 1, abs(a)))
    maxspan = min(spans) + 1
    return maxspan * window_step


def mws_2d_estimate_batch(
    alpha1: int,
    alpha2: int,
    n1: int,
    n2: int,
    rows: "Sequence[tuple[int, int]]",
) -> list[Fraction]:
    """Eq. (2) for many candidate rows of one access/nest, in row order.

    Value-identical to calling :func:`mws_2d_estimate` per row, with one
    ``estimate.eq2.calls`` counter bump of ``len(rows)`` instead of one
    per row — the enumeration phases of the 2-D search and the
    branch-and-bound leaves score whole groups at a time.

    >>> mws_2d_estimate_batch(2, 5, 25, 10, [(1, 0), (2, 3)])
    [Fraction(50, 1), Fraction(22, 1)]
    """
    if not rows:
        return []
    obs.counter("estimate.eq2.calls", len(rows))
    return [_eq2_value(alpha1, alpha2, n1, n2, a, b) for a, b in rows]


@obs.profiled("estimate.mws_2d_for_array")
def mws_2d_for_array(
    program: Program, array: str, transformation: IntMatrix | None = None
) -> Fraction:
    """Eq. (2) applied to a program's uniformly generated 1-D array.

    Uses the shared access row ``(alpha1, alpha2)`` and the first row of
    the transformation (identity when None).
    """
    refs = program.refs_to(array)
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        raise ValueError(f"{array}: references are not uniformly generated")
    ref = refs[0]
    if ref.rank != 1 or ref.nest_depth != 2:
        raise ValueError("eq. (2) is defined for 1-D arrays in 2-D nests")
    alpha1, alpha2 = ref.access.row(0)
    n1, n2 = program.nest.trip_counts
    if transformation is None:
        a, b = 1, 0
    else:
        a, b = transformation.row(0)
    return mws_2d_estimate(alpha1, alpha2, n1, n2, a, b)


def mws_3d_estimate(reuse_vector: tuple[int, int, int], trips: tuple[int, int, int]) -> int:
    """Section 4.3 closed form from the reuse (nullspace) vector.

    The reuse vector is taken lex-positive (``d1 >= 0``); components
    exceeding the trip counts clamp the products at zero.

    >>> mws_3d_estimate((1, 3, -3), (10, 20, 30))
    541
    """
    d1, d2, d3 = reuse_vector
    if d1 < 0:
        d1, d2, d3 = -d1, -d2, -d3
    n1, n2, n3 = trips
    if abs(d1) >= n1 or abs(d2) >= n2 or abs(d3) >= n3:
        # The reuse vector does not fit in the iteration box: no iteration
        # pair realizes the reuse, so only the in-flight element is live.
        return 1
    inner = max(0, n2 - abs(d2)) * max(0, n3 - abs(d3))
    if d2 <= 0:
        return d1 * inner + 1
    return d1 * inner + abs(d2) * max(0, n3 - abs(d3)) + 1


@obs.profiled("estimate.mws_3d_for_ref")
def mws_3d_for_ref(ref: ArrayRef, nest: LoopNest) -> int:
    """Section 4.3 estimate for a single reference in a 3-deep nest.

    The reuse vector is :func:`self_reuse_distance`'s in the nest's box,
    which raises ``ValueError`` for a 2-D kernel past
    ``REPRO_DENSE_BUDGET``."""
    if ref.nest_depth != 3:
        raise ValueError("mws_3d_for_ref expects a 3-deep nest")
    v = self_reuse_distance(ref, nest.spans)
    if v is None:
        # No two iterations share an element: the window never holds
        # anything beyond the element in flight.
        return 1
    trips = nest.trip_counts
    return mws_3d_estimate(v, trips)  # type: ignore[arg-type]
