"""Graphviz DOT export of dependence graphs."""

from __future__ import annotations

from repro.ir.program import Program

_KIND_STYLE = {
    "flow": "solid",
    "anti": "dashed",
    "output": "bold",
    "input": "dotted",
}


def dependence_graph_dot(program: Program, include_input: bool = True) -> str:
    """DOT source for the statement-level dependence graph.

    Edge labels carry the array and distance vector; edge style encodes
    the dependence kind (flow solid, anti dashed, output bold, input
    dotted).

    >>> from repro.ir import parse_program
    >>> p = parse_program('for i = 1 to 5 { S1: A[i] = A[i-1] }')
    >>> print(dependence_graph_dot(p))  # doctest: +ELLIPSIS
    digraph dependences {
    ...
    }
    """
    from repro.dependence.graph import dependence_graph

    graph = dependence_graph(program, include_input=include_input)
    lines = ["digraph dependences {"]
    lines.append('  rankdir=LR;')
    for node in graph.nodes:
        lines.append(f'  "{node}" [shape=box];')
    for src, dst, dep in graph.edges:
        style = _KIND_STYLE.get(dep.kind.value, "solid")
        label = f"{dep.array} {dep.distance}"
        lines.append(
            f'  "{src}" -> "{dst}" [label="{label}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines)
