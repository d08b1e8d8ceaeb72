"""Loop fusion across nest sequences.

The inter-nest buffers of a producer-consumer chain (see
:mod:`repro.ir.sequence`) are often the dominant memory term: a full
array crosses the boundary.  Fusing the nests interleaves production and
consumption so only a small window of the intermediate array is ever
live — the sequence-level analogue of the paper's transformation story.

Fusion of two identically-bounded nests is legal when no *fusion-
preventing* dependence exists: an element produced by nest 1 at iteration
``I`` and consumed by nest 2 at iteration ``J`` with ``J`` lexicographically
*before* ``I`` would, after fusion, read the value before it is written.
For uniformly generated references this reduces to the usual distance
test on the merged body.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.analysis import dependence_distance
from repro.dependence.distance import is_lex_nonnegative
from repro.ir.program import Program
from repro.ir.sequence import ProgramSequence, sequence_memory_report
from repro.ir.statement import Statement


class FusionError(ValueError):
    """Raised when two nests cannot be legally fused."""


def can_fuse(first: Program, second: Program) -> tuple[bool, str]:
    """Check structural and dependence legality of fusing two nests.

    Returns ``(ok, reason)``; ``reason`` explains a False verdict.
    """
    if first.nest != second.nest:
        return False, "loop nests differ (bounds or depth)"
    labels = {s.label for s in first.statements} & {
        s.label for s in second.statements
    }
    if labels:
        return False, f"duplicate statement labels: {sorted(labels)}"
    # Fusion-preventing dependences: a value produced by `first` at I and
    # consumed by `second` at J needs J >= I after fusion (J executes the
    # merged body at iteration J; production of I happens at I).
    spans = first.nest.spans
    for write in (r for s in first.statements for r in s.writes):
        for read in (r for s in second.statements for r in s.references):
            if read.array != write.array:
                continue
            if not write.uniformly_generated_with(read):
                return False, (
                    f"non-uniform cross-nest references to {write.array}"
                )
            # Distance d = J - I with second's ref at J touching what
            # first's wrote at I.  Fusion needs every such d >= 0 lex.
            # dependence_distance returns the smallest lex-POSITIVE d of
            # the family; the dangerous case is a family whose members
            # are all negative (consumer strictly before producer) or a
            # zero solution (same iteration - fine: first's statements
            # precede second's in the fused body).
            try:
                forward = dependence_distance(write, read, spans)
                backward = dependence_distance(read, write, spans)
            except ValueError:
                return False, (
                    f"dependence on {write.array} past the dense budget: "
                    f"assumed fusion-preventing"
                )
            if forward is None and backward is not None:
                # Only consumer->producer direction exists: the consumer
                # iteration precedes the producing one.
                return False, (
                    f"fusion-preventing dependence on {write.array}: "
                    f"consumed {backward} before produced"
                )
    return True, "ok"


def fuse(first: Program, second: Program, name: str | None = None) -> Program:
    """Fuse two identically-bounded nests into one.

    Statements of ``first`` precede statements of ``second`` in the fused
    body, preserving the original cross-nest value flow for all legal
    cases (see :func:`can_fuse`).

    >>> from repro.ir import parse_program
    >>> p1 = parse_program("for i = 1 to 9 { T[i] = A[i] }", name="p")
    >>> p2 = parse_program("for i = 1 to 9 { S2: B[i] = T[i] + T[i-1] }", name="c")
    >>> fuse(p1, p2).name
    'p+c'
    """
    ok, reason = can_fuse(first, second)
    if not ok:
        raise FusionError(reason)
    statements: list[Statement] = list(first.statements) + list(second.statements)
    decls = {d.name: d for d in first.decls}
    for decl in second.decls:
        decls.setdefault(decl.name, decl)
    return Program(
        first.nest,
        statements,
        tuple(decls.values()),
        name=name or f"{first.name}+{second.name}",
    )


@dataclass(frozen=True)
class FusionReport:
    """Memory effect of fusing a two-nest chain."""

    unfused_requirement: int
    fused_requirement: int

    @property
    def saving(self) -> float:
        if self.unfused_requirement == 0:
            return 0.0
        return 1.0 - self.fused_requirement / self.unfused_requirement


def fusion_memory_report(first: Program, second: Program) -> FusionReport:
    """Compare the chain's memory requirement with and without fusion."""
    from repro.window.simulator import max_total_window

    unfused = sequence_memory_report(
        ProgramSequence([first, second], name="unfused")
    ).requirement
    fused = max_total_window(fuse(first, second))
    return FusionReport(unfused, fused)
