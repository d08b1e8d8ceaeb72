"""Modulo window allocation: turning an MWS number into a real buffer.

The paper establishes that only MWS elements of an array are live at
once; an embedded implementation still needs an *addressing scheme* that
folds the array into a buffer of that size.  The classic scheme (De
Greef / Catthoor; Lefebvre-Feautrier) indexes the buffer with the array
address modulo ``m``: valid iff no two simultaneously-live elements
collide modulo ``m``.  This module computes the smallest valid modulus
for a (possibly transformed) nest by exact lifetime analysis and rewrites
the program to use the folded buffer.

``MWS <= m_min`` always; the gap between them measures how much the
simple modulo scheme loses against an ideal (fully associative) buffer —
quantified in the ablation bench.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.ir.program import Program
from repro.layout.layouts import Layout, RowMajorLayout
from repro.linalg import IntMatrix
from repro.window.batched import _peak_concurrent
from repro.window.fast import lifetime_table
from repro.window.simulator import max_window_size


@dataclass(frozen=True)
class ModuloAllocation:
    """Result of window allocation for one array."""

    array: str
    modulus: int
    mws: int
    declared: int

    @property
    def overhead(self) -> float:
        """Slack of the modulo scheme over the ideal window (>= 0)."""
        if self.mws == 0:
            return 0.0
        return self.modulus / self.mws - 1.0

    @property
    def saving_vs_declared(self) -> float:
        if self.declared == 0:
            return 0.0
        return 1.0 - self.modulus / self.declared


def modulo_is_valid(
    lifetimes: list[tuple[int, int, int]], modulus: int
) -> bool:
    """No two elements with overlapping live ranges share a residue.

    Live range here must *include* the access endpoints: two elements
    touched at the same iteration cannot share a buffer slot even if
    neither is reused, so validity uses closed intervals ``[first, last]``
    (slightly stronger than the half-open window count).
    """
    last_seen: dict[int, int] = {}
    for address, first, last in sorted(lifetimes, key=lambda t: t[1]):
        residue = address % modulus
        previous_last = last_seen.get(residue)
        if previous_last is not None and first <= previous_last:
            return False
        last_seen[residue] = max(last, previous_last or last)
    return True


def allocate_window(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    layout: Layout | None = None,
) -> ModuloAllocation:
    """Smallest modulus folding the array into a conflict-free buffer.

    Exact: scans moduli upward from the peak *closed-interval* live count
    (a lower bound on any valid modulus) until validity holds; the
    declared size is always valid, so the search ends there at the
    latest.  Lifetimes come from :func:`repro.window.fast.lifetime_table`.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 9 {
    ...   B[0] = A[i] + A[i-1]
    ... }
    ... ''')
    >>> allocate_window(p, "A").modulus
    2
    """
    table = lifetime_table(program, array, transformation)
    decl = program.decl(array)
    addresses = table.addresses(layout or RowMajorLayout(), decl)
    lifetimes = list(
        zip(addresses.tolist(), table.first.tolist(), table.last.tolist())
    )
    # Closed intervals [first, last] are half-open [first, last + 1).
    modulus = max(1, _peak_concurrent(table.first, table.last + 1))
    declared = decl.declared_size
    while modulus < declared and not modulo_is_valid(lifetimes, modulus):
        modulus += 1
    mws = max_window_size(program, array, transformation)
    return ModuloAllocation(array, modulus, mws, declared)


def rewrite_with_buffer(
    program: Program,
    array: str,
    allocation: ModuloAllocation,
    layout: Layout | None = None,
) -> str:
    """Emit source where ``array`` is replaced by a folded buffer.

    The rewritten reference is ``<array>_buf[(<address expr>) % m]``;
    only arrays with affine layouts (row/column major) yield affine
    address expressions.  Returned as text (the modulo operation leaves
    the pure-affine IR, so this is a codegen-level transform); both the
    declaration and the references match whole identifiers only, so
    ``AB`` and ``BA`` survive folding ``A``.
    """
    from repro.ir.codegen import generate_source

    layout = layout or RowMajorLayout()
    decl = program.decl(array)
    strides = layout.strides(decl)  # type: ignore[attr-defined]
    source = generate_source(program)
    names = program.nest.index_names
    lines = []
    for line in source.splitlines():
        if line.startswith("array ") and line[6:].split("[")[0] == array:
            lines.append(f"array {array}_buf[{allocation.modulus}]")
            continue
        lines.append(line)
    text = "\n".join(lines) + "\n"
    # Rewrite each reference as the IR renders it, at whole identifiers.
    for ref in program.refs_to(array):
        subs = ref.subscript_strings(names)
        original = f"{array}[" + "][".join(subs) + "]"
        # Affine address: sum stride_k * (subscript_k - origin_k).
        terms = []
        for stride, sub, origin in zip(strides, subs, decl.origins):
            expr = f"({sub} - {origin})" if origin else f"({sub})"
            terms.append(f"{stride}*{expr}" if stride != 1 else expr)
        address = " + ".join(terms)
        replacement = f"{array}_buf[({address}) % {allocation.modulus}]"
        text = re.sub(
            rf"(?<!\w){re.escape(original)}", lambda _: replacement, text
        )
    return text
