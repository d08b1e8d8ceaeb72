"""Loop distribution (fission) — the inverse of fusion.

Splitting a multi-statement nest into per-statement nests shrinks each
nest's instruction footprint and enables per-nest transformations, at the
price of materializing inter-nest buffers (the exact trade
:mod:`repro.transform.fusion` measures from the other side).

Legality: statements must be partitioned so that every cross-partition
dependence flows forward (from an earlier nest to a later one).  A
*backward* dependence — statement ``S2`` producing what ``S1`` consumes
at a lexicographically earlier iteration — forms a cycle with any forward
dependence between the same pair and forces the statements to stay
together.  The standard algorithm groups statements by the strongly
connected components of the statement dependence graph and emits them in
topological order.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.ir.program import Program
from repro.ir.sequence import ProgramSequence


def statement_dependence_graph(program: Program) -> dict[str, set[str]]:
    """Statement-level graph, as a map from each label (in statement
    order) to its successors.

    Edge ``S -> T`` means some instance of ``T`` touches an element that
    an earlier instance of ``S`` touched, one of the two writing it
    (flow, anti or output; input reuse imposes nothing): at a later
    iteration, or at the same one with ``S`` first in the body.  Exact
    inside the nest's box (:func:`repro.dependence.analysis.pair_order`).
    """
    from repro.dependence.analysis import pair_order

    def before(a: int, b: int) -> bool:
        for src in program.statements[a].references:
            for dst in program.statements[b].references:
                if src.array != dst.array or not (src.is_write or dst.is_write):
                    continue
                later, same = pair_order(program, src, dst)
                if later or (same and a < b):
                    return True
        return False

    labels = [stmt.label for stmt in program.statements]
    return {
        labels[a]: {
            labels[b] for b in range(len(labels)) if b != a and before(a, b)
        }
        for a in range(len(labels))
    }


def distribute(program: Program) -> ProgramSequence:
    """Split a nest into the finest legal sequence of sub-nests.

    Statements in one strongly connected component stay together; the
    components are emitted in a topological order consistent with the
    textual order (stable for independent components).

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 9 {
    ...   S1: T[i] = A[i]
    ...   S2: B[i] = T[i] + T[i-1]
    ... }
    ... ''', name="pair")
    >>> [len(nest.statements) for nest in distribute(p).programs]
    [1, 1]
    """
    graph = statement_dependence_graph(program)
    components = _strongly_connected_components(graph)
    order = {stmt.label: k for k, stmt in enumerate(program.statements)}
    # Topological order of components, tie-broken by textual position.
    component_key = [min(order[label] for label in c) for c in components]
    topo = _topological_order(graph, components, component_key)

    by_label = {stmt.label: stmt for stmt in program.statements}
    nests = []
    for index, c in enumerate(topo):
        members = sorted(components[c], key=order.get)
        statements = [by_label[label] for label in members]
        decls = [
            decl
            for decl in program.decls
            if any(decl.name in stmt.arrays for stmt in statements)
        ]
        nests.append(
            Program(
                program.nest,
                statements,
                decls,
                name=f"{program.name}_part{index + 1}",
            )
        )
    return ProgramSequence(nests, name=f"{program.name}_distributed")


def is_distribution_legal(program: Program) -> bool:
    """Can the nest be split at all (more than one component)?"""
    graph = statement_dependence_graph(program)
    return len(_strongly_connected_components(graph)) > 1 or len(
        program.statements
    ) == 1


def _strongly_connected_components(graph: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's algorithm, with an explicit stack instead of recursion."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[set[str]] = []
    # The DFS path: each node with the iterator over its unvisited edges.
    work: list[tuple[str, Iterator[str]]] = []

    def enter(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        enter(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    enter(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _topological_order(
    graph: dict[str, set[str]], components: list[set[str]], key: list[int]
) -> list[int]:
    """Kahn's sort of the component graph, always emitting the ready
    component of the smallest key (keys are distinct, so the order is
    unique)."""
    owner = {label: c for c, members in enumerate(components) for label in members}
    succs: list[set[int]] = [set() for _ in components]
    for label, targets in graph.items():
        succs[owner[label]].update(owner[t] for t in targets)
    indegree = [0] * len(components)
    for c, targets in enumerate(succs):
        targets.discard(c)
        for t in targets:
            indegree[t] += 1
    ready = [(key[c], c) for c, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        out.append(c)
        for t in succs[c]:
            indegree[t] -= 1
            if indegree[t] == 0:
                heapq.heappush(ready, (key[t], t))
    return out
