"""Loop fusion across nest sequences.

The inter-nest buffers of a producer-consumer chain (see
:mod:`repro.ir.sequence`) are often the dominant memory term: a full
array crosses the boundary.  Fusing the nests interleaves production and
consumption so only a small window of the intermediate array is ever
live — the sequence-level analogue of the paper's transformation story.

Fusion of two identically-bounded nests is legal when no *fusion-
preventing* dependence exists: an element touched by nest 2 at iteration
``J`` and by nest 1 at a lexicographically *later* iteration ``I``, one
of the two writing it.  The fused body runs nest 2's instance at ``J``
before nest 1's at ``I``, the reverse of the sequence.  Instances at one
iteration keep their order, since nest 1's statements come first in the
fused body.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.ir.sequence import ProgramSequence, sequence_memory_report


class FusionError(ValueError):
    """Raised when two nests cannot be legally fused."""


def can_fuse(first: Program, second: Program) -> tuple[bool, str]:
    """Check structural and dependence legality of fusing two nests.

    Returns ``(ok, reason)``; ``reason`` explains a False verdict.  The
    dependence test is exact inside the nests' box
    (:func:`repro.dependence.analysis.pair_order` on the fused body) and
    refuses past ``REPRO_DENSE_BUDGET``.
    """
    from repro.dependence.analysis import pair_order

    if first.nest != second.nest:
        return False, "loop nests differ (bounds or depth)"
    labels = {s.label for s in first.statements} & {
        s.label for s in second.statements
    }
    if labels:
        return False, f"duplicate statement labels: {sorted(labels)}"
    try:
        fused = _merged(first, second)
    except ValueError as err:
        return False, str(err)
    for src in second.references:
        for dst in first.references:
            if src.array != dst.array or not (src.is_write or dst.is_write):
                continue
            if pair_order(fused, src, dst)[0]:
                return False, (
                    f"fusion-preventing dependence on {src.array}: "
                    f"{second.name} touches an element at an earlier "
                    f"iteration than {first.name} does"
                )
    return True, "ok"


def _merged(first: Program, second: Program, name: str | None = None) -> Program:
    """The fused nest: ``first``'s statements, then ``second``'s."""
    decls = {d.name: d for d in first.decls}
    for decl in second.decls:
        decls.setdefault(decl.name, decl)
    return Program(
        first.nest,
        [*first.statements, *second.statements],
        tuple(decls.values()),
        name=name or f"{first.name}+{second.name}",
    )


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
    return _merged(first, second, name)


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
