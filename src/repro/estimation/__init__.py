"""Section 3: estimating the number of distinct accesses in nested loops.

Closed forms for uniformly generated references (exact), Sylvester-corrected
bounds for non-uniformly generated references, an enumeration oracle and
the program-level total-memory algorithm.  The parametric engine, which
derives those counts as verified closed forms in symbolic trip counts, is
imported from its own modules (:mod:`repro.estimation.parametric`,
:mod:`repro.estimation.symbolic`), so that only the callers that derive a
closed form load sympy.
"""

from repro.estimation.distinct import (
    DistinctAccessEstimate,
    distinct_accesses_same_rank,
    distinct_accesses_single_ref,
    estimate_distinct_accesses,
    reuse_from_distances,
)
from repro.estimation.bounds import (
    NonUniformBounds,
    nonuniform_bounds,
    transfer_lower_bound,
)
from repro.estimation.exact import (
    exact_distinct_accesses,
    exact_program_footprint,
)
from repro.estimation.multiref import (
    distinct_accesses_multiref_1d,
    supports_exact_multiref,
)
from repro.estimation.memory import (
    ArrayMemoryReport,
    ProgramMemoryReport,
    estimate_program_memory,
)

__all__ = [
    "DistinctAccessEstimate",
    "reuse_from_distances",
    "distinct_accesses_same_rank",
    "distinct_accesses_single_ref",
    "estimate_distinct_accesses",
    "NonUniformBounds",
    "nonuniform_bounds",
    "transfer_lower_bound",
    "exact_distinct_accesses",
    "exact_program_footprint",
    "distinct_accesses_multiref_1d",
    "supports_exact_multiref",
    "ArrayMemoryReport",
    "ProgramMemoryReport",
    "estimate_program_memory",
]
