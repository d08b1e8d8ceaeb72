"""Baseline: Eisenbeis et al. — interchange and reversal only.

The paper's Example 7 comparison point: the window-minimization strategy
of Eisenbeis, Jalby, Windheiser and Bodin searches only loop interchange
and reversal (the signed permutations), which cannot align the iteration
order with a skewed reuse direction.  Our compound search beats it by
orders of magnitude on such loops (89 -> 36 vs. -> 1 in Example 7).
"""

from __future__ import annotations

from repro.ir.program import Program
from repro.transform.elementary import signed_permutation_stack
from repro.transform.legality import legal_matrices, ordering_distances
from repro.transform.search import SearchResult
from repro.window.simulator import max_window_size


def eisenbeis_search(program: Program, array: str) -> SearchResult:
    """Best legal signed permutation by exact window size.

    Tiling is not enforced — the original strategy predates tiling-aware
    legality and simply requires dependence preservation.
    """
    stack = signed_permutation_stack(program.nest.depth)
    best = None
    for t in legal_matrices(stack, ordering_distances(program, array)):
        exact = max_window_size(program, array, t)
        if best is None or exact < best[0]:
            best = (exact, t)
    exact, t = best
    return SearchResult(array, t, exact, exact, len(stack), "eisenbeis")
