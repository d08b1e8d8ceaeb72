"""Multiple references with reuse along the kernel (d = n-1, r > 1).

The paper's Section 3.2 stops at single references and notes "the case of
multiple references is not discussed for lack of space".  This module
completes it exactly for the common DSP shape — several uniformly
generated 1-D references in a 2-D nest: each reference's image is the
same structured set shifted by its offset (``repro.polyhedral.image_set``),
and the union of shifted structured sets is computed exactly.

For deeper nests / higher ranks :mod:`repro.estimation.distinct` counts
the touched elements exactly.
"""

from __future__ import annotations

from repro.estimation.distinct import DistinctAccessEstimate
from repro.ir.program import Program
from repro.polyhedral.image_set import affine_image_1d, union_count


def supports_exact_multiref(program: Program, array: str) -> bool:
    """Can the exact union machinery handle this array?

    Requirements: 2-deep nest, 1-D array, uniformly generated references.
    Non-unit loop lower bounds are handled by normalization (a pure
    translation, count-invariant).
    """
    refs = program.refs_to(array)
    if not refs or not program.is_uniformly_generated(array):
        return False
    return program.nest.depth == 2 and refs[0].rank == 1


def distinct_accesses_multiref_1d(
    program: Program, array: str
) -> DistinctAccessEstimate:
    """Exact distinct-access count for uniformly generated 1-D references.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> distinct_accesses_multiref_1d(p, "X").lower
    94
    """
    if not supports_exact_multiref(program, array):
        raise ValueError(
            f"{array}: exact multi-reference counting needs a 2-deep nest "
            "with uniformly generated 1-D references"
        )
    from repro.transform.normalization import normalize_lower_bounds

    program = normalize_lower_bounds(program)
    refs = program.refs_to(array)
    a, b = refs[0].access.row(0)
    n1, n2 = program.nest.trip_counts
    base = affine_image_1d(a, b, n1, n2)
    offsets = sorted({ref.offset[0] for ref in refs})
    value = union_count([base.shifted(c) for c in offsets])
    return DistinctAccessEstimate(
        array, value, value, "d==n-1 multi ref (exact union)", True, None
    )
