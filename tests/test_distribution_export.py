"""Tests for loop distribution and the report exporters."""

import pytest

from repro.ir import parse_program
from repro.ir.interpreter import execute, initial_state, states_equal
from repro.reporting import Figure2Row, figure2_csv, figure2_markdown
from repro.transform import (
    distribute,
    fuse,
    is_distribution_legal,
    statement_dependence_graph,
)


PAIR = """
for i = 1 to 9 {
  S1: T[i] = A[i]
  S2: B[i] = T[i] + T[i-1]
}
"""

CYCLE = """
for i = 1 to 9 {
  S1: T[i] = U[i-1]
  S2: U[i] = T[i]
}
"""


class TestStatementGraph:
    def test_forward_edge(self):
        prog = parse_program(PAIR)
        graph = statement_dependence_graph(prog)
        assert "S2" in graph["S1"]
        assert "S1" not in graph["S2"]

    def test_cycle_detected(self):
        prog = parse_program(CYCLE)
        graph = statement_dependence_graph(prog)
        # S1 -> S2 same iteration (flow on T); S2 -> S1 carried (flow on U).
        assert "S2" in graph["S1"]
        assert "S1" in graph["S2"]

    def test_independent_statements(self):
        prog = parse_program(
            "for i = 1 to 5 { S1: A[i] = 1\n S2: B[i] = 2 }"
        )
        graph = statement_dependence_graph(prog)
        assert graph == {"S1": set(), "S2": set()}


class TestDistribute:
    def test_splits_pair(self):
        prog = parse_program(PAIR, name="pair")
        seq = distribute(prog)
        assert [len(p.statements) for p in seq.programs] == [1, 1]
        assert seq.programs[0].statements[0].label == "S1"

    def test_cycle_stays_together(self):
        prog = parse_program(CYCLE, name="cycle")
        seq = distribute(prog)
        assert len(seq.programs) == 1
        assert len(seq.programs[0].statements) == 2

    def test_is_distribution_legal(self):
        assert is_distribution_legal(parse_program(PAIR))
        assert not is_distribution_legal(parse_program(CYCLE))

    def test_distribution_preserves_semantics(self):
        prog = parse_program(PAIR, name="pair")
        seq = distribute(prog)
        state = initial_state(prog)
        chained = state
        for part in seq.programs:
            chained = execute(part, state=chained)
        assert states_equal(chained, execute(prog, state=state))

    def test_distribute_then_fuse_roundtrip(self):
        prog = parse_program(PAIR, name="pair")
        seq = distribute(prog)
        refused = fuse(seq.programs[0], seq.programs[1])
        state = initial_state(prog)
        assert states_equal(
            execute(refused, state=state), execute(prog, state=state)
        )

    def test_three_way_chain(self):
        prog = parse_program(
            """
            for i = 1 to 9 {
              S1: T[i] = A[i]
              S2: U[i] = T[i]
              S3: B[i] = U[i] + U[i-1]
            }
            """,
            name="chain3",
        )
        seq = distribute(prog)
        assert len(seq.programs) == 3
        labels = [p.statements[0].label for p in seq.programs]
        assert labels == ["S1", "S2", "S3"]


class TestExactGraph:
    """The statement graph equals enumeration, so distribution splits as
    finely as the nest allows."""

    @pytest.mark.parametrize("source,parts", [
        # B[i - 5] never meets B[i] inside the box.
        ("for i = 1 to 4 { S1: A[i] = B[i - 5]\n S2: B[i] = A[i] }",
         [["S1"], ["S2"]]),
        # S2 reads T[2i][2j] at (i, 2j), before S1 writes it at (2i, j).
        ("for i = 1 to 6 { for j = 1 to 6 { "
         "S1: T[i][2*j] = A[i][j]\n S2: B[i][j] = T[2*i][j] } }",
         [["S2"], ["S1"]]),
    ], ids=["distance-outside-the-box", "non-uniform"])
    def test_distributes_finely(self, source, parts):
        from repro.check.oracles import statement_graph_truth

        prog = parse_program(source, name="exact")
        assert statement_dependence_graph(prog) == statement_graph_truth(prog)
        seq = distribute(prog)
        assert [[s.label for s in p.statements] for p in seq.programs] == parts
        state = initial_state(prog)
        chained = state
        for part in seq.programs:
            chained = execute(part, state=chained)
        assert states_equal(chained, execute(prog, state=state))


class TestGoldens:
    """Partitions, nest order and legality as the graph library the
    component sort replaced gave them."""

    def test_dependence_cycle_of_three_stays_together(self):
        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 10 {
                S1: A[i][j] = B[i-1][j] + C[i][j-1]
                S2: B[i][j] = A[i][j-1] + C[i-1][j]
                S3: C[i][j] = A[i-1][j-1] + B[i][j-1]
              }
            }
            """,
            name="three",
        )
        assert not is_distribution_legal(prog)
        assert _parts(distribute(prog)) == [
            ("three_part1", ["S1", "S2", "S3"], ["B", "C", "A"]),
        ]

    def test_two_cycle_and_an_independent_statement(self):
        prog = parse_program(
            """
            for i = 1 to 9 {
              S1: T[i] = U[i-1]
              S2: D[i] = E[i]
              S3: U[i] = T[i]
            }
            """,
            name="mixed",
        )
        assert is_distribution_legal(prog)
        assert _parts(distribute(prog)) == [
            ("mixed_part1", ["S1", "S3"], ["U", "T"]),
            ("mixed_part2", ["S2"], ["E", "D"]),
        ]

    def test_a_backward_dependence_orders_the_nests(self):
        """S3 feeds S1 one iteration later, so S1 waits for S3; the ready
        nest of the smallest textual position goes first."""
        prog = parse_program(
            """
            for i = 1 to 9 {
              S1: B[i] = T[i-1]
              S2: D[i] = E[i]
              S3: T[i] = A[i]
            }
            """,
            name="back",
        )
        assert is_distribution_legal(prog)
        assert _parts(distribute(prog)) == [
            ("back_part1", ["S2"], ["E", "D"]),
            ("back_part2", ["S3"], ["A", "T"]),
            ("back_part3", ["S1"], ["T", "B"]),
        ]


def _parts(sequence):
    return [
        (
            nest.name,
            [stmt.label for stmt in nest.statements],
            [decl.name for decl in nest.decls],
        )
        for nest in sequence.programs
    ]


class TestExport:
    ROWS = [
        Figure2Row("demo", 100, 20, 5, 75.0, 90.0),
        Figure2Row("other", 200, 100, 50, 40.0, 70.0),
    ]

    def test_markdown_shape(self):
        text = figure2_markdown(self.ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("| code |")
        assert len(lines) == 2 + len(self.ROWS) + 1  # header+sep+rows+avg
        assert "**Average**" in lines[-1]

    def test_markdown_values(self):
        text = figure2_markdown(self.ROWS)
        assert "| demo | 100 | 20 | 80.0 (75.0) | 5 | 95.0 (90.0) |" in text

    def test_markdown_empty(self):
        text = figure2_markdown([])
        assert text.splitlines()[0].startswith("| code |")

    def test_csv_roundtrip(self):
        import csv
        import io

        text = figure2_csv(self.ROWS)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["code"] == "demo"
        assert float(rows[0]["opt_reduction_pct"]) == 95.0
