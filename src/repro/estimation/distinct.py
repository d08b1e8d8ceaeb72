"""Closed-form distinct-access counts for uniformly generated references.

The paper's Section 3 formulas:

* ``d == n`` (access matrix square, non-singular), ``r`` references:
  the ``r - 1`` dependences into the sink reference give
  ``reuse = sum_k prod_j (N_j - |d_kj|)`` and
  ``A_d = r * prod_j N_j - reuse``  (Examples 2, 3).

* ``d == n - 1``, single reference: reuse flows along the kernel vector
  ``v`` of the access matrix, ``reuse = prod_j (N_j - |v_j|)`` and
  ``A_d = prod_j N_j - reuse``  (Examples 4, 5).

Both are exact under the paper's assumptions; the estimator records which
case fired and whether exactness is guaranteed, and counts the touched
elements exactly where the paper gives no closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.dependence.analysis import self_reuse_distance
from repro.dependence.reuse import group_reuse_distances
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef


@dataclass(frozen=True)
class DistinctAccessEstimate:
    """Result of a distinct-access estimate for one array.

    ``lower == upper`` when the method is exact; they bracket the true
    count otherwise.  ``method`` names the formula used (for reports and
    tests), ``exact`` records the paper's exactness guarantee.
    """

    array: str
    lower: int
    upper: int
    method: str
    exact: bool
    reuse: int | None = None

    @property
    def value(self) -> int:
        """Point estimate; midpoint when only bounds are known."""
        return (self.lower + self.upper) // 2

    def __str__(self) -> str:
        if self.exact:
            return f"{self.array}: A_d = {self.lower} ({self.method})"
        return f"{self.array}: {self.lower} <= A_d <= {self.upper} ({self.method})"


def reuse_from_distances(
    trip_counts: Sequence[int], distances: Sequence[Sequence[int]]
) -> int:
    """``sum_k prod_j max(0, N_j - |d_kj|)`` — the shaded-region count.

    Each dependence ``d`` contributes the number of iterations that are a
    sink of that dependence: the box shrunk by ``|d_j|`` per axis
    (Figure 1).  Components larger than the trip count clamp to zero.

    >>> reuse_from_distances((10, 10), [(1, 0), (0, 1), (1, 1)])
    261
    """
    total = 0
    for d in distances:
        if len(d) != len(trip_counts):
            raise ValueError("distance arity != nest depth")
        term = 1
        for n, dj in zip(trip_counts, d):
            term *= max(0, n - abs(dj))
        total += term
    return total


def distinct_accesses_same_rank(
    program: Program, array: str
) -> DistinctAccessEstimate:
    """Paper Section 3.1 (``d == n``, non-singular access, r references).

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 10 {
    ...   for j = 1 to 10 {
    ...     Z[i][j] = A[i][j] + A[i-1][j] + A[i][j-1] + A[i-1][j-1]
    ...   }
    ... }
    ... ''')
    >>> distinct_accesses_same_rank(p, "A").upper
    139
    """
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        raise ValueError(f"{array}: references are not uniformly generated")
    access = refs[0].access
    if not access.is_square() or access.det() == 0:
        raise ValueError(f"{array}: access matrix is singular or not square")
    trips = program.nest.trip_counts
    total = program.nest.total_iterations
    # References sharing an offset touch exactly the same elements; the
    # sink formula counts reuse only along nonzero distances, so duplicates
    # must collapse to a single reference before counting r.
    refs = list({ref.offset: ref for ref in refs}.values())
    r = len(refs)
    if r == 1:
        return DistinctAccessEstimate(array, total, total, "d==n single ref", True, 0)
    distances = group_reuse_distances(refs, program.nest.spans)
    reuse = reuse_from_distances(trips, distances)
    value = r * total - reuse
    # The sink-based formula counts only the r-1 dependences into one sink
    # reference.  For r == 2 that is all the reuse there is and the count
    # is exact; for r > 2 the non-sink references can overlap each other
    # (paper Example 3: formula 139, true union 121), so the value is an
    # upper bound on the true distinct count.
    exact = r == 2
    # For r > 2 the formula value is an upper bound; any single injective
    # reference already touches `total` distinct elements, the floor.
    lower = value if exact else min(total, value)
    return DistinctAccessEstimate(array, lower, value, "d==n multi ref", exact, reuse)


def distinct_accesses_single_ref(
    ref: ArrayRef, nest: LoopNest
) -> DistinctAccessEstimate:
    """Paper Section 3.2 (``d == n - 1``, single reference).

    A kernel of dimension >= 2 takes its reuse vector inside the nest's
    box, and raises ``ValueError`` when that is past ``REPRO_DENSE_BUDGET``
    (:func:`~repro.dependence.analysis.self_reuse_distance`).

    >>> from repro.ir import NestBuilder
    >>> p = (NestBuilder().loop("i", 1, 20).loop("j", 1, 10)
    ...      .use("S1", ("A", [[2, 5]], [1])).build())
    >>> distinct_accesses_single_ref(p.references[0], p.nest).lower
    80
    """
    v = self_reuse_distance(ref, nest.spans)
    trips = nest.trip_counts
    total = nest.total_iterations
    if v is None:
        return DistinctAccessEstimate(
            ref.array, total, total, "injective single ref", True, 0
        )
    reuse = reuse_from_distances(trips, [v])
    value = total - reuse
    # Exact when the kernel is one-dimensional and the reuse vector fits in
    # the box (paper's d == n-1 case).
    exact = len(ref.reuse_directions()) == 1
    return DistinctAccessEstimate(
        ref.array, value, value, "d==n-1 single ref", exact, reuse
    )


@obs.profiled("estimate.distinct")
def estimate_distinct_accesses(
    program: Program, array: str
) -> DistinctAccessEstimate:
    """Dispatch to the right Section 3 formula for one array.

    Uniformly generated arrays get the paper's closed forms where it has
    one: ``d == n`` (:func:`distinct_accesses_same_rank`), injective
    accesses, a single reference with kernel reuse
    (:func:`distinct_accesses_single_ref`), and our exact union for
    several 1-D references in a 2-deep nest
    (:mod:`repro.estimation.multiref`).  Non-uniform 1-D arrays get the
    Section 3.2 bounds (:func:`repro.estimation.bounds.nonuniform_bounds`).
    Every other array, which the paper leaves without a closed form, gets
    the exact count of its touched elements (:func:`_counted`).
    """
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        if any(ref.rank != 1 for ref in refs):
            return _counted(program, array)
        from repro.estimation.bounds import nonuniform_bounds

        b = nonuniform_bounds(program, array)
        return DistinctAccessEstimate(
            array, b.lower, b.upper, "non-uniform bounds", False, None
        )
    access = refs[0].access
    has_kernel = bool(refs[0].reuse_directions())
    if not has_kernel and access.is_square():
        return distinct_accesses_same_rank(program, array)
    if not has_kernel:
        # Injective but rectangular (d > n): each iteration a fresh element
        # per offset group.
        trips = program.nest.trip_counts
        total = program.nest.total_iterations
        offsets = {ref.offset for ref in refs}
        if len(offsets) == 1:
            return DistinctAccessEstimate(array, total, total, "injective", True, 0)
        distances = group_reuse_distances(refs, program.nest.spans)
        reuse = reuse_from_distances(trips, distances)
        value = len(refs) * total - reuse
        return DistinctAccessEstimate(array, value, value, "injective multi ref", True, reuse)
    if len(refs) == 1:
        try:
            return distinct_accesses_single_ref(refs[0], program.nest)
        except ValueError:
            # The reuse vector of a kernel of dimension >= 2 is past
            # REPRO_DENSE_BUDGET: unknown, so count instead.
            return _counted(program, array)
    from repro.estimation.multiref import (
        distinct_accesses_multiref_1d,
        supports_exact_multiref,
    )

    if supports_exact_multiref(program, array):
        return distinct_accesses_multiref_1d(program, array)
    return _counted(program, array)


def _counted(program: Program, array: str) -> DistinctAccessEstimate:
    """The exact count of the array's touched elements, on the engine the
    nest's size selects: the dense engine's element ids within
    ``REPRO_DENSE_BUDGET``, the streaming engine's lifetimes past it."""
    from repro.window import fast, streaming
    from repro.window.simulator import resolve_engine

    if resolve_engine(program) == "fast":
        count = len(fast._element_state(program, array).packed)
    else:
        ((ids, _, _),) = streaming._stream_lifetimes(program, (array,), None)
        count = len(ids)
    return DistinctAccessEstimate(array, count, count, "exact count", True, None)
