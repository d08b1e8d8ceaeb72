"""Program-level window minimization.

The Figure-2 driver: gather candidate unimodular transformations from
(a) the per-array Section 4 searches (2-D and 3-D nests), (b) all signed
permutations (interchange/reversal compositions — also the Eisenbeis
baseline space, and the only tractable generic space for 4-deep and
deeper nests), and (c) the identity; keep the legal ones; pick the
candidate minimizing the *total* maximum window size
(``max_t sum_X |W_X(t)|``), which is the memory the embedded system must
provision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.transform.elementary import signed_permutation_stack, unimodular_stack
from repro.transform.legality import is_legal, legal_matrices, ordering_distances
from repro.transform.search import (
    cached_search,
    cascade_winner,
    search_mws_2d,
    search_mws_3d,
)


@dataclass(frozen=True)
class OptimizationResult:
    """Best transformation found for a program."""

    program: str
    transformation: IntMatrix
    mws_before: int
    mws_after: int
    candidates_tried: int

    @property
    def improved(self) -> bool:
        return self.mws_after < self.mws_before

    @property
    def reduction(self) -> float:
        if self.mws_before == 0:
            return 0.0
        return 1.0 - self.mws_after / self.mws_before


def candidate_transformations(program: Program) -> list[IntMatrix]:
    """Legal candidate transformations for program-level optimization.

    Five sources: the identity; all signed permutations (interchange and
    reversal compositions); for 2-deep nests every unimodular matrix with
    entries in ``[-2, 2]`` (skews included — what the sor kernel needs);
    per-array Section-4 search winners (2-D/3-D); and, at any depth, the
    Section-4.3 generalization — each array's access-matrix rows embedded
    as the leading rows of ``T`` so that array's reuse collapses to the
    innermost levels (what motion-estimation kernels need).  The two
    enumerated spaces are screened for legality as whole stacks.
    """
    n = program.nest.depth
    distances = ordering_distances(program)
    candidates: dict[IntMatrix, None] = {IntMatrix.identity(n): None}
    spaces = [signed_permutation_stack(n)]
    if n == 2:
        spaces.append(unimodular_stack(2, 2))
    for stack in spaces:
        for t in legal_matrices(stack, distances):
            candidates.setdefault(t, None)
    if n in (2, 3):
        search = search_mws_2d if n == 2 else search_mws_3d
        for array in program.arrays:
            if not program.is_uniformly_generated(array):
                continue
            try:
                result = search(program, array)
            except (ValueError, KeyError):
                continue
            if is_legal(result.transformation, distances):
                candidates.setdefault(result.transformation, None)
    for t in _access_embeddings(program, distances):
        candidates.setdefault(t, None)
    return list(candidates)


def _access_embeddings(
    program: Program, distances: list[tuple[int, ...]]
) -> list[IntMatrix]:
    """Per-array access-matrix embeddings (Section 4.3, any depth).

    For each reference whose access-matrix rows are independent and fewer
    than the nest depth, complete those rows to a unimodular matrix that
    keeps all ordering distances non-negative; executing in that order
    makes all iterations touching one element of the array consecutive.
    """
    from repro.transform.completion import complete_rows_legal

    n = program.nest.depth
    out: list[IntMatrix] = []
    seen: set[tuple] = set()
    for ref in program.references:
        rows = [list(ref.access.row(k)) for k in range(ref.rank)]
        key = (ref.array, tuple(map(tuple, rows)))
        if key in seen:
            continue
        seen.add(key)
        if ref.rank >= n:
            continue
        t = complete_rows_legal(rows, distances)
        if t is not None and is_legal(t, distances):
            out.append(t)
    return out


def optimize_program(program: Program) -> OptimizationResult:
    """Choose the legal transformation minimizing total MWS.

    Exact scoring via the window simulator; the identity is always a
    candidate, so the result never regresses.  Candidates are scored in
    a deterministic order with strict-improvement tie-breaking.

    Candidates run through the evaluation cascade: the native order
    (first, so its score is always exact) sets the incumbent, and
    candidates whose certified reuse floor cannot strictly beat the
    running best are never simulated — the chosen transformation is
    identical to scoring everything.  The whole result is memoized by
    program signature (:func:`repro.transform.search.cached_search`), so
    a repeat in this process answers without listing candidates; the
    api's ``optimize`` answer (:func:`repro.api.evaluate_kind`) is what
    a store keeps across processes.
    """
    with obs.span("optimize", program=program.name):
        result = cached_search(
            "optimize", {"sig": program.signature()}, None,
            lambda: _optimize(program),
        )
    # The signature leaves names out, so a hit answers with the caller's.
    return replace(result, program=program.name)


def _optimize(program: Program) -> OptimizationResult:
    with obs.span("candidates"):
        candidates = candidate_transformations(program)
    obs.counter("optimize.candidates", len(candidates))
    outcomes, (after, best) = cascade_winner(program, [None, *candidates])
    return OptimizationResult(
        program=program.name,
        transformation=(
            IntMatrix.identity(program.nest.depth) if best is None else best
        ),
        mws_before=outcomes[0].value,
        mws_after=after,
        candidates_tried=len(candidates),
    )
