"""Section 3.2 bounds for non-uniformly generated references.

When references to one array have different access matrices, dependences
are not constant distance vectors and exact closed-form counting is out of
reach (the paper cites Clauss and Pugh for exact-but-expensive methods).
The paper's bounds, for one-dimensional references ``f_k = a_k i + b_k j +
c_k`` over a 2-D nest:

* upper bound: ``UB_max - LB_min + 1`` — the full value interval between
  the smallest attainable value of any reference and the largest;
* lower bound: the upper bound minus the Sylvester gap count
  ``(|a|-1)(|b|-1)/2`` at *each* end of the interval, charged to the
  reference that achieves that extreme (Example 6: ``191 - 6 - 6 = 179``,
  with the actual count 181).

The "lower bound" is the paper's close heuristic, not a guarantee: it
corrects only the two global extremes, so interior gaps — where one
reference's dense region hands over to another's — can push the true
count slightly below it.  The test suite bounds that slack by the total
Sylvester gap mass of the references.

The module also holds the search cascade's certified reuse facts
(:func:`certified_reuse`) and :func:`transfer_lower_bound`, which reads
the simulators' one access trace
(:func:`repro.memory.scratchpad.access_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.linalg.frobenius import sylvester_count


@dataclass(frozen=True)
class NonUniformBounds:
    """Bounds on the distinct-access count of a non-uniform array."""

    array: str
    lower: int
    upper: int
    lb_min: int
    ub_max: int

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper


def _value_range(ref: ArrayRef, lowers, uppers) -> tuple[int, int]:
    """Exact [min, max] of the (1-D) subscript over the iteration box."""
    row = ref.access.row(0)
    lo = hi = ref.offset[0]
    for coeff, lb, ub in zip(row, lowers, uppers):
        if coeff >= 0:
            lo += coeff * lb
            hi += coeff * ub
        else:
            lo += coeff * ub
            hi += coeff * lb
    return lo, hi


def _end_correction(ref: ArrayRef) -> int:
    """Sylvester gap count near one end of the reference's value range.

    Defined for 2-D nests: the two nonzero coefficients of the subscript
    row.  References with a zero coefficient (or any unit coefficient, via
    the Sylvester formula itself) have no gaps.
    """
    coeffs = [c for c in ref.access.row(0) if c != 0]
    if len(coeffs) < 2:
        return 0
    if len(coeffs) != 2:
        # Deeper nests: gaps are bounded by the two smallest coefficient
        # magnitudes; use them (conservative for the lower bound).
        coeffs = sorted(coeffs, key=abs)[:2]
    return sylvester_count(coeffs[0], coeffs[1])


def nonuniform_bounds(program: Program, array: str) -> NonUniformBounds:
    """The paper's bounds for a non-uniformly generated 1-D array.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 20 {
    ...   for j = 1 to 20 {
    ...     S1: A[3*i + 7*j - 10] = 0
    ...     S2: B[0] = A[4*i - 3*j + 60]
    ...   }
    ... }
    ... ''')
    >>> b = nonuniform_bounds(p, "A")
    >>> (b.lower, b.upper)
    (179, 191)
    """
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if any(ref.rank != 1 for ref in refs):
        raise ValueError(
            f"{array}: the Section 3.2 bounds are defined for 1-D references"
        )
    lowers, uppers = program.nest.lowers, program.nest.uppers
    ranges = [_value_range(ref, lowers, uppers) for ref in refs]
    lb_min = min(lo for lo, _ in ranges)
    ub_max = max(hi for _, hi in ranges)

    # The paper's formula presumes the per-reference value ranges overlap
    # into one interval; we generalize to connected components of their
    # union (single component == the paper's bound exactly).  Per
    # component: upper = length; lower = length minus the Sylvester gap
    # count at each end, charged to the reference achieving that end.
    items = sorted(zip(ranges, refs), key=lambda item: item[0])
    components: list[tuple[int, int, list]] = []
    for (lo, hi), ref in items:
        if components and lo <= components[-1][1] + 1:
            prev_lo, prev_hi, members = components[-1]
            components[-1] = (prev_lo, max(prev_hi, hi), members + [((lo, hi), ref)])
        else:
            components.append((lo, hi, [((lo, hi), ref)]))

    def _exact_ref_count(ref) -> int | None:
        # Exact per-reference image count, available for 2-D nests via
        # the structured image machinery (count is offset-invariant).
        if program.nest.depth != 2:
            return None
        from repro.polyhedral.image_set import affine_image_1d

        a, b = ref.access.row(0)
        n1, n2 = program.nest.trip_counts
        return affine_image_1d(a, b, n1, n2).count

    def _is_dense(ref) -> bool:
        # The paper's interval reasoning presumes a gcd-1 (dense) image.
        import math as _math

        coeffs = [c for c in ref.access.row(0) if c != 0]
        if not coeffs:
            return False
        g = 0
        for c in coeffs:
            g = _math.gcd(g, c)
        return g == 1

    upper = 0
    lower = 0
    for comp_lo, comp_hi, members in components:
        length = comp_hi - comp_lo + 1
        member_counts = [_exact_ref_count(ref) for _, ref in members]
        if all(count is not None for count in member_counts):
            comp_upper = min(length, sum(member_counts))
        else:
            comp_upper = length
        upper += comp_upper
        if all(_is_dense(ref) for _, ref in members):
            low_achievers = [ref for (lo, _), ref in members if lo == comp_lo]
            high_achievers = [ref for (_, hi), ref in members if hi == comp_hi]
            low_corr = min(_end_correction(ref) for ref in low_achievers)
            high_corr = min(_end_correction(ref) for ref in high_achievers)
            comp_lower = max(0, length - low_corr - high_corr)
        elif any(count is not None for count in member_counts):
            # Sparse (non-coprime) members break the interval argument:
            # fall back to "the union is at least its largest member".
            comp_lower = max(c for c in member_counts if c is not None)
        else:
            comp_lower = 0
        lower += min(comp_lower, comp_upper)
    return NonUniformBounds(array, lower, upper, lb_min, ub_max)


# ---------------------------------------------------------------------------
# Cascade support: certified reuse facts for the search's pruning tier.
# ---------------------------------------------------------------------------


def certified_reuse(program: Program, array: str) -> bool | None:
    """Transformation-invariant reuse fact for one array, or ``None``.

    ``True``  — some element is touched at two *distinct* iterations, so
    the exact MWS of the array is >= 1 under **every** unimodular
    re-ordering (any order separates distinct iterations in time).

    ``False`` — no element is ever touched at two distinct iterations,
    so the exact MWS is 0 under **every** ordering (an element touched
    only at one time never enters the window).  This lets the search
    finalize all candidates for the array without simulating any.

    ``None``  — undecided (non-uniform references, or a family past the
    dense budget).  Undecided never prunes.

    Two distinct in-box iterations touch one element iff the family of
    some ordered pair of offsets has a lex-positive member in the
    difference box, which :func:`repro.dependence.analysis.family_in_box`
    decides exactly for every kernel dimension.
    """
    if not program.is_uniformly_generated(array):
        return None
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    from repro.dependence.analysis import family_in_box

    spans = program.nest.spans
    offsets = dict.fromkeys(ref.offset for ref in refs)
    undecided = False
    for ca in offsets:
        for cb in offsets:
            members = family_in_box(
                refs[0].access, [a - b for a, b in zip(ca, cb)], spans
            )
            if members:
                return True
            undecided |= members is None
    return None if undecided else False


# ---------------------------------------------------------------------------
# Off-chip transfer lower bound (Hong-Kung phases, Dinh-Demmel style).
# ---------------------------------------------------------------------------


def transfer_lower_bound(
    program: Program,
    capacity: int,
    array: str | None = None,
    transformation=None,
) -> int:
    """Admissible lower bound on off-chip transfers at ``capacity`` words.

    Two classic arguments, both valid for *any* replacement policy (so in
    particular for the Belady simulation and for any DMA/tiling plan whose
    resident set never exceeds ``capacity``):

    * cold traffic — every distinct element must be fetched at least once,
      and every distinct *written* element must reach the backing store at
      least once (the simulator's final flush guarantees the latter);
    * phase traffic (Hong & Kung's I/O argument) — cut the trace into
      consecutive phases, closing a phase once it has touched ``2 *
      capacity`` distinct elements.  At most ``capacity`` of a phase's
      elements can already be resident when it starts, so the phase forces
      at least ``d_p - capacity`` fetches.  The cut rule follows Hong-Kung;
      admissibility holds for *any* cut, so the choice only affects
      tightness.

    The returned bound ``max(distinct, phase) + distinct_written`` is
    therefore <= ``simulate_scratchpad(...).offchip_transfers`` for every
    program/order/capacity (the ``hierarchy-bound-admissible`` oracle) and
    <= any hierarchy plan's off-chip DMA volume at the same total
    capacity, which is what lets the hierarchy search use it for pruning.

    The trace is the simulators' own, limits included: a nest past
    ``REPRO_DENSE_BUDGET`` raises ``ValueError``.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    from repro.memory.scratchpad import access_stream

    elements, writes = access_stream(program, array, transformation)
    distinct: set[int] = set()
    written: set[int] = set()
    phase_bound = 0
    phase: set[int] = set()
    for element, is_write in zip(elements.tolist(), writes.tolist()):
        distinct.add(element)
        if is_write:
            written.add(element)
        phase.add(element)
        if len(phase) == 2 * capacity:
            phase_bound += len(phase) - capacity
            phase = set()
    phase_bound += max(0, len(phase) - capacity)
    return max(len(distinct), phase_bound) + len(written)
