"""Dependence graph construction.

Nodes are statement labels; a directed edge carries the dependence (its
kind, array and distance vector).  The paper (Section 3.1) observes that
with ``r`` uniformly generated references there are ``r(r-1)/2``
dependences and some statement is a sink of ``r - 1`` of them — that
statement's incoming distances drive the reuse formula.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dependence.analysis import Dependence, reference_dependences
from repro.ir.program import Program


class DependenceGraph(NamedTuple):
    """Statement labels in statement order, and ``(source label, sink
    label, dependence)`` edges grouped by source in node order, each
    source's sinks in first-seen order."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, Dependence], ...]


def dependence_graph(program: Program, include_input: bool = True) -> DependenceGraph:
    """Build the statement-level dependence multigraph over the uniformly
    generated arrays: one edge per statement pair, array, distance and
    kind."""
    out: dict[str, dict[str, list[Dependence]]] = {
        stmt.label: {} for stmt in program.statements
    }
    for array in program.arrays:
        if not program.is_uniformly_generated(array):
            continue
        owners = [
            stmt.label
            for stmt in program.statements
            for ref in stmt.references
            if ref.array == array
        ]
        seen: set[tuple] = set()
        for s, d, dep in reference_dependences(program, array, include_input):
            key = (owners[s], owners[d], dep.distance, dep.kind)
            if key not in seen:
                seen.add(key)
                out[owners[s]].setdefault(owners[d], []).append(dep)
    return DependenceGraph(
        tuple(out),
        tuple(
            (src, dst, dep)
            for src, sinks in out.items()
            for dst, deps in sinks.items()
            for dep in deps
        ),
    )


def max_in_degree_sink(graph: DependenceGraph, array: str) -> str | None:
    """The statement that sinks the most dependences of ``array``.

    Section 3.1's "node which is a sink to the dependence vectors from
    each of the remaining r-1 nodes".
    """
    counts: dict[str, int] = {}
    for _, dst, dep in graph.edges:
        if dep.array == array:
            counts[dst] = counts.get(dst, 0) + 1
    if not counts:
        return None
    return max(counts, key=counts.get)
