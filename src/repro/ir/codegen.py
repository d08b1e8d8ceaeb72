"""Source generation: IR back to C-like text, including transformed nests.

``generate_source`` round-trips the parser's syntax.  For a unimodular
transformation ``T``, ``generate_transformed_source`` emits the nest that
scans ``u = T @ i`` in lexicographic order: new-loop bounds come from
Fourier-Motzkin elimination of the transformed domain, and each original
index in the body is rewritten as the corresponding row of ``T^{-1} @ u``.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.ir.statement import Statement
from repro.linalg import IntMatrix
from repro.polyhedral.fourier_motzkin import loop_bounds
from repro.polyhedral.polytope import ConstraintSystem


def _render_ref(ref: ArrayRef, index_names: Sequence[str]) -> str:
    subs = "][".join(ref.subscript_strings(index_names))
    return f"{ref.array}[{subs}]"


def _render_statement(stmt: Statement, index_names: Sequence[str]) -> str:
    reads = " + ".join(_render_ref(r, index_names) for r in stmt.reads) or "0"
    if stmt.writes:
        lhs = _render_ref(stmt.writes[0], index_names)
        return f"{stmt.label}: {lhs} = {reads}"
    return f"{stmt.label}: {reads}"


def generate_source(program: Program) -> str:
    """Emit the program in the parser's input syntax (round-trippable)."""
    lines = []
    for decl in program.decls:
        dims = "".join(
            f"[{o}:{o + e - 1}]" for o, e in zip(decl.origins, decl.extents)
        )
        lines.append(f"array {decl.name}{dims}")
    names = program.nest.index_names
    for depth, loop in enumerate(program.nest.loops):
        lines.append("  " * depth + f"for {loop.index} = {loop.lower} to {loop.upper} {{")
    pad = "  " * program.nest.depth
    for stmt in program.statements:
        lines.append(pad + _render_statement(stmt, names))
    for depth in range(program.nest.depth - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"


def _rewrite_ref(ref: ArrayRef, inverse: IntMatrix) -> ArrayRef:
    """Compose the access with ``i = T^{-1} u``: new access = A @ T^{-1}."""
    return ArrayRef(ref.array, ref.access @ inverse, ref.offset, ref.kind)


def generate_transformed_source(
    program: Program,
    transformation: IntMatrix,
    new_names: Sequence[str] | None = None,
) -> str:
    """Emit the nest transformed by a unimodular matrix.

    The emitted loops scan the image polytope with ``ceild``/``floord``
    bounds; the body references are rewritten through ``T^{-1}``.  The
    rational Fourier-Motzkin shadow can make some inner loops empty at the
    fringe — the bounds guard that naturally (``lower > upper`` skips).
    """
    n = program.nest.depth
    if transformation.shape != (n, n):
        raise ValueError("transformation shape does not match nest depth")
    inverse = transformation.inverse_unimodular()
    names = tuple(new_names) if new_names else tuple(f"u{k+1}" for k in range(n))
    system = ConstraintSystem.transformed_nest(program.nest, transformation, names)
    bounds = loop_bounds(system)

    lines = []
    for decl in program.decls:
        dims = "".join(
            f"[{o}:{o + e - 1}]" for o, e in zip(decl.origins, decl.extents)
        )
        lines.append(f"array {decl.name}{dims}")
    for depth in range(n):
        outer = names[:depth]
        lo = bounds[depth].render_lower(outer)
        hi = bounds[depth].render_upper(outer)
        lines.append("  " * depth + f"for {names[depth]} = {lo} to {hi} {{")
    pad = "  " * n
    for stmt in program.statements:
        rewritten = Statement(
            stmt.label,
            tuple(_rewrite_ref(r, inverse) for r in stmt.writes),
            tuple(_rewrite_ref(r, inverse) for r in stmt.reads),
        )
        lines.append(pad + _render_statement(rewritten, names))
    for depth in range(n - 1, -1, -1):
        lines.append("  " * depth + "}")
    return "\n".join(lines) + "\n"
