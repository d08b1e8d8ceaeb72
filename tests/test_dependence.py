"""Tests for dependence/reuse analysis against paper examples and oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence import (
    Dependence,
    DependenceKind,
    array_distance_vectors,
    dependence_distance,
    dependence_graph,
    gcd_test,
    is_lex_positive,
    lex_level,
    lex_negate_to_positive,
    program_dependences,
    reuse_level,
    reuse_vector,
    reuse_vectors,
    self_reuse_distance,
)
from repro.dependence.analysis import (
    family_in_box,
    iteration_pairs_sharing_element,
    pair_order,
)
from repro.dependence.distance import is_lex_nonnegative, lex_compare
from repro.dependence.graph import max_in_degree_sink
from repro.ir import ArrayRef, NestBuilder, parse_program
from repro.linalg import IntMatrix
from repro.transform.legality import is_legal, is_tileable

#: A difference box for refs without a nest (kernel dimension <= 1
#: ignores it).
BOX = (9, 9)


class TestLexOrder:
    def test_positive(self):
        assert is_lex_positive((0, 3, -1))
        assert not is_lex_positive((0, -1, 5))
        assert not is_lex_positive((0, 0, 0))

    def test_nonnegative(self):
        assert is_lex_nonnegative((0, 0))
        assert is_lex_nonnegative((0, 2))
        assert not is_lex_nonnegative((-1, 2))

    def test_level(self):
        assert lex_level((0, 3, -1)) == 2
        assert lex_level((1, 0)) == 1
        assert lex_level((0, 0)) is None

    def test_negate_to_positive(self):
        assert lex_negate_to_positive((-1, 2)) == (1, -2)
        assert lex_negate_to_positive((0, 5)) == (0, 5)
        assert lex_negate_to_positive((0, 0)) == (0, 0)

    def test_compare(self):
        assert lex_compare((1, 2), (1, 3)) == -1
        assert lex_compare((2, 0), (1, 9)) == 1
        assert lex_compare((1, 2), (1, 2)) == 0
        with pytest.raises(ValueError):
            lex_compare((1,), (1, 2))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_vector_or_negation_nonneg(self, vec):
        assert is_lex_nonnegative(lex_negate_to_positive(vec))


class TestDependenceDistance:
    def test_paper_example2(self):
        src = ArrayRef.of("A", [[1, 0], [0, 1]], [0, 0])
        dst = ArrayRef.of("A", [[1, 0], [0, 1]], [-1, 2])
        assert dependence_distance(src, dst, BOX) == (1, -2)

    def test_no_integer_solution(self):
        src = ArrayRef.of("A", [[2, 0], [0, 2]], [0, 0])
        dst = ArrayRef.of("A", [[2, 0], [0, 2]], [1, 0])
        assert dependence_distance(src, dst, BOX) is None

    def test_wrong_direction_is_none(self):
        src = ArrayRef.of("A", [[1, 0], [0, 1]], [0, 0])
        dst = ArrayRef.of("A", [[1, 0], [0, 1]], [1, 0])
        # dst touches what src touched one iteration EARLIER: the positive
        # dependence goes dst -> src instead.
        assert dependence_distance(src, dst, BOX) is None
        assert dependence_distance(dst, src, BOX) == (1, 0)

    def test_non_uniform_raises(self):
        src = ArrayRef.of("A", [[3, 7]], [0])
        dst = ArrayRef.of("A", [[4, -3]], [0])
        with pytest.raises(ValueError):
            dependence_distance(src, dst, BOX)

    def test_kernel_family_smallest(self):
        # X[2i+5j+c]: family p + t(5,-2); the smallest lex-positive member.
        src = ArrayRef.of("X", [[2, 5]], [1])
        dst = ArrayRef.of("X", [[2, 5]], [5])
        assert dependence_distance(src, dst, BOX) == (3, -2)
        assert dependence_distance(dst, src, BOX) == (2, 0)

    def test_self_reuse(self):
        assert self_reuse_distance(ArrayRef.of("A", [[2, 5]], [1]), BOX) == (5, -2)
        assert self_reuse_distance(ArrayRef.of("A", [[3, 0, 1], [0, 1, 1]], [0, 0]), BOX + (9,)) == (1, 3, -3)
        assert self_reuse_distance(ArrayRef.of("A", [[1, 0], [0, 1]], [0, 0]), BOX) is None

    @given(
        st.integers(-4, 4), st.integers(-4, 4),
        st.integers(-6, 6), st.integers(-6, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_distance_is_valid_and_minimal(self, a, b, c1, c2):
        # For A[a*i + b*j + c1] vs A[a*i + b*j + c2], any returned distance
        # must solve a*d1 + b*d2 = c1 - c2 and be lex-positive.
        src = ArrayRef.of("A", [[a, b]], [c1])
        dst = ArrayRef.of("A", [[a, b]], [c2])
        d = dependence_distance(src, dst, BOX)
        if d is not None:
            assert a * d[0] + b * d[1] == c1 - c2
            assert is_lex_positive(d)

    def test_line_residue_is_exact_past_float_precision(self):
        # A positive component before the kernel's lead: the component at
        # the lead reduces to its smallest non-negative residue, exactly
        # past float64's 2**53.
        src = ArrayRef.of("A", [[1, 0, 0], [0, 1, 1]], [3, 2**62 + 1])
        dst = ArrayRef.of("A", [[1, 0, 0], [0, 1, 1]], [0, 0])
        assert dependence_distance(src, dst, (4, 4, 4)) == (3, 0, 2**62 + 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_of_dimension_two_reads_the_box(self, seed):
        """With a kernel of dimension >= 2 the distance is the
        lex-smallest ``J - I`` of the iteration pairs that share an
        element, or None when no pair does."""
        from repro.ir.generate import GeneratorConfig, random_program

        depth = 3 + seed % 2
        program = random_program(seed, GeneratorConfig(
            depth=depth, min_trip=2, max_trip=4, array_rank=depth - 2,
        ))
        for array in program.arrays:
            refs = program.refs_to(array)
            assert len(refs[0].reuse_directions()) >= 2
            for src, dst in itertools.product(refs, repeat=2):
                want = min(
                    (tuple(j - i for i, j in zip(first, then)) for first, then
                     in iteration_pairs_sharing_element(program.nest, src, dst)),
                    default=None,
                )
                got = dependence_distance(src, dst, program.nest.spans)
                assert got == want, (str(program), src, dst)


class TestProgramDependences:
    def test_example8_distances(self):
        prog = parse_program(
            """
            for i = 1 to 25 {
              for j = 1 to 10 {
                X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
              }
            }
            """
        )
        # One lex-smallest in-box member per family: the paper's printed
        # set (legality reads the extreme members, ordering_distances).
        distances = sorted(array_distance_vectors(prog, "X"))
        assert distances == [(2, 0), (3, -2), (5, -2)]

    def test_example8_kinds(self):
        prog = parse_program(
            """
            for i = 1 to 25 {
              for j = 1 to 10 {
                X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
              }
            }
            """
        )
        deps = program_dependences(prog)
        by_kind = {}
        for dep in deps:
            by_kind.setdefault(dep.kind, set()).add(dep.distance)
        assert (3, -2) in by_kind[DependenceKind.FLOW]
        assert (2, 0) in by_kind[DependenceKind.ANTI]
        assert (5, -2) in by_kind[DependenceKind.OUTPUT]

    def test_exclude_input(self):
        prog = parse_program(
            "for i = 1 to 9 { B[0] = A[i] + A[i-1] }"
        )
        with_input = array_distance_vectors(prog, "A", include_input=True)
        without = array_distance_vectors(prog, "A", include_input=False)
        assert (1,) in with_input
        assert without == []

    def test_nonuniform_raises(self):
        prog = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { A[3*i + 7*j] = A[4*i - 3*j] } }"
        )
        with pytest.raises(ValueError):
            array_distance_vectors(prog, "A")

    def test_dependence_validated_by_enumeration(self):
        # Every reported distance is realized by an actual iteration pair.
        prog = parse_program(
            """
            for i = 1 to 8 {
              for j = 1 to 8 {
                X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
              }
            }
            """
        )
        write = prog.statements[0].writes[0]
        read = prog.statements[0].reads[0]
        pairs = set(iteration_pairs_sharing_element(prog.nest, write, read))
        flow = {(tuple(a), tuple(b)) for a, b in pairs}
        realized = {
            tuple(x - y for x, y in zip(later, earlier))
            for earlier, later in flow
        }
        assert (3, -2) in realized

    def test_gcd_test(self):
        a = ArrayRef.of("A", [[2, 4]], [0])
        b = ArrayRef.of("A", [[2, 4]], [1])  # 2x + 4y = 1: impossible
        assert not gcd_test(a, b)
        c = ArrayRef.of("A", [[2, 4]], [2])
        assert gcd_test(a, c)
        other = ArrayRef.of("B", [[2, 4]], [0])
        assert not gcd_test(a, other)

    def test_gcd_test_nonuniform(self):
        a = ArrayRef.of("A", [[3, 7]], [-10])
        b = ArrayRef.of("A", [[4, -3]], [60])
        assert gcd_test(a, b)  # gcd(3,7,4,3) = 1 divides everything


def _lex_positive_box(access, delta, spans):
    """Every lex-positive in-box ``d`` with ``access @ d == delta``."""
    return [
        d
        for d in itertools.product(*[range(-s, s + 1) for s in spans])
        if is_lex_positive(d) and access.apply(d) == tuple(delta)
    ]


class TestFamilyInBox:
    def test_example8_flow_family(self):
        # 2 d1 + 5 d2 = -4 inside |d1| <= 24, |d2| <= 9: (3, -2) to (18, -8).
        assert family_in_box(IntMatrix([[2, 5]]), (-4,), (24, 9)) == (
            (3, -2), (18, -8),
        )

    def test_a_huge_line_costs_nothing(self):
        assert family_in_box(IntMatrix([[1, -1]]), (0,), (2**70, 2**70)) == (
            (1, 1), (2**70, 2**70),
        )

    def test_no_member_fits_the_box(self):
        assert family_in_box(IntMatrix.identity(3), (2**62, 0, 0), (3, 3, 3)) == ()
        assert family_in_box(IntMatrix([[2, 0]]), (1,), (5, 5)) == ()

    def test_past_the_dense_budget(self, monkeypatch):
        from repro.window.fast import DENSE_BUDGET_ENV

        monkeypatch.setenv(DENSE_BUDGET_ENV, "10")
        assert family_in_box(IntMatrix([[1, 1, 1]]), (0,), (4, 4, 4)) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_decides_what_the_whole_family_decides(self, seed):
        """Each result is made of members, starts at the lex-smallest
        one, and is legal or tileable under a matrix exactly when every
        member is."""
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            access = IntMatrix(rows)
            delta = [rng.randint(-4, 4) for _ in rows]
            spans = [rng.randint(0, 4) for _ in range(n)]
            got = family_in_box(access, delta, spans)
            truth = _lex_positive_box(access, delta, spans)
            assert set(got) <= set(truth)
            assert got[:1] == tuple(sorted(truth)[:1])
            for _ in range(20):
                t = IntMatrix([[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
                assert is_legal(t, got) == is_legal(t, truth)
                assert is_tileable(t, got) == is_tileable(t, truth)


class TestReuse:
    def test_reuse_vector(self):
        assert reuse_vector(ArrayRef.of("A", [[2, 5]], [1]), BOX) == (5, -2)

    def test_reuse_vectors_program(self):
        prog = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2] } }"
        )
        assert reuse_vectors(prog, "A") == [(1, -2)]

    def test_reuse_level(self):
        assert reuse_level((0, 0, 1)) == 3
        assert reuse_level((1, 3, -3)) == 1

    def test_group_reuse_example3(self):
        from repro.dependence.reuse import group_reuse_distances

        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 10 {
                Z[i][j] = A[i][j] + A[i-1][j] + A[i][j-1] + A[i-1][j-1]
              }
            }
            """
        )
        distances = group_reuse_distances(list(prog.refs_to("A")), prog.nest.spans)
        assert sorted(distances) == [(0, 1), (1, 0), (1, 1)]


THREE_STATEMENTS = """
for i = 1 to 10 {
  for j = 1 to 10 {
    S1: A[i][j] = B[i-1][j] + C[i][j-1]
    S2: B[i][j] = A[i][j-1] + C[i-1][j]
    S3: C[i][j] = A[i-1][j-1] + B[i][j-1]
  }
}
"""

#: ``dependence_graph_dot`` of THREE_STATEMENTS: edges grouped by source
#: in statement order, each source's sinks in first-seen order, which is
#: not the order ``program_dependences`` lists the nine dependences in.
THREE_STATEMENTS_DOT = """\
digraph dependences {
  rankdir=LR;
  "S1" [shape=box];
  "S2" [shape=box];
  "S3" [shape=box];
  "S1" -> "S2" [label="C (1, -1)", style=dotted];
  "S1" -> "S2" [label="A (0, 1)", style=solid];
  "S1" -> "S3" [label="A (1, 1)", style=solid];
  "S2" -> "S1" [label="B (1, 0)", style=solid];
  "S2" -> "S3" [label="B (0, 1)", style=solid];
  "S2" -> "S3" [label="A (1, 0)", style=dotted];
  "S3" -> "S1" [label="B (1, -1)", style=dotted];
  "S3" -> "S1" [label="C (0, 1)", style=solid];
  "S3" -> "S2" [label="C (1, 0)", style=solid];
}"""


class TestGraph:
    def test_dot_golden_groups_edges_by_source(self):
        from repro.viz import dependence_graph_dot

        prog = parse_program(THREE_STATEMENTS)
        assert dependence_graph_dot(prog) == THREE_STATEMENTS_DOT
        graph = dependence_graph(prog)
        assert len(graph.edges) == len(program_dependences(prog)) == 9

    def test_graph_structure(self):
        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 10 {
                S1: A[i][j] = 0
                S2: B[i][j] = A[i-1][j+2]
              }
            }
            """
        )
        graph = dependence_graph(prog)
        assert graph.nodes == ("S1", "S2")
        edges = [(u, v, dep.distance) for u, v, dep in graph.edges]
        assert ("S1", "S2", (1, -2)) in edges

    def test_max_in_degree_sink(self):
        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 10 {
                S1: Z[i][j] = A[i][j] + A[i-1][j] + A[i][j-1] + A[i-1][j-1]
              }
            }
            """
        )
        graph = dependence_graph(prog)
        assert max_in_degree_sink(graph, "A") == "S1"
        assert max_in_degree_sink(graph, "Z") is None

    def test_edges_are_kept_per_statement_pair(self):
        """S1 -> S2 and S1 -> S3 share one distance and kind on A, which
        ``program_dependences`` lists once."""
        prog = parse_program(
            """
            for i = 1 to 9 {
              S1: A[i] = X[i]
              S2: B[i] = A[i - 1]
              S3: C[i] = A[i - 1]
            }
            """
        )
        edges = [(u, v, dep.distance) for u, v, dep in dependence_graph(prog).edges]
        assert edges == [("S1", "S2", (1,)), ("S1", "S3", (1,))]
        assert len(program_dependences(prog)) == 1

    def test_equal_offsets_in_two_statements_keep_their_edges(self):
        """The flow and anti families of ``A[i + j]`` in two statements
        equal the self family, which ``program_dependences`` lists as
        output and input only."""
        prog = parse_program(
            "for i = 1 to 4 { for j = 1 to 4 { "
            "S1: A[i + j] = X[i][j]\n S2: B[i][j] = A[i + j] } }"
        )
        edges = {(u, v, dep.kind) for u, v, dep in dependence_graph(prog).edges}
        assert ("S1", "S2", DependenceKind.FLOW) in edges
        assert ("S2", "S1", DependenceKind.ANTI) in edges
        assert {dep.kind for dep in program_dependences(prog)} == {
            DependenceKind.OUTPUT, DependenceKind.INPUT
        }


def _pair(source, first, second):
    """The program and two of its references, ``(statement, k)`` each
    naming a statement's ``k``-th reference."""
    prog = parse_program(source)
    refs = [prog.statements[s].references[k] for s, k in (first, second)]
    return prog, refs[0], refs[1]


class TestPairOrder:
    """``(later, same)`` against the per-point enumeration."""

    def test_example6_pair_has_a_dependence(self):
        prog, write, read = _pair(
            """
            for i = 1 to 12 {
              for j = 1 to 12 {
                S1: A[3*i + 7*j - 10] = 0
                S2: B[0] = A[4*i - 3*j + 60]
              }
            }
            """,
            (0, 0), (1, 0),
        )
        assert not write.uniformly_generated_with(read)
        later = next(iteration_pairs_sharing_element(prog.nest, write, read))
        assert later and pair_order(prog, write, read) == (True, True)

    def test_no_dependence(self):
        prog, write, read = _pair(
            "for i = 1 to 6 { S1: A[2*i] = 0\n S2: B[0] = A[2*i+1] }",
            (0, 0), (1, 0),
        )
        assert pair_order(prog, write, read) == (False, False)
        assert pair_order(prog, read, write) == (False, False)

    def test_uniform_pair_is_later_one_way(self):
        prog = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { A[i][j] = A[i-1][j] } }"
        )
        write, read = prog.statements[0].writes[0], prog.statements[0].reads[0]
        assert pair_order(prog, write, read) == (True, False)
        assert pair_order(prog, read, write) == (False, False)

    def test_uniform_distances_outside_the_box_are_not_later(self):
        prog, write, read = _pair(
            "for i = 1 to 6 { S1: T[i] = A[i]\n S2: B[i] = T[i + 9] }",
            (0, 1), (1, 0),
        )
        assert pair_order(prog, write, read) == (False, False)
        assert pair_order(prog, read, write) == (False, False)

    def test_a_huge_nest_with_kernel_dimension_one_costs_nothing(self):
        prog = parse_program(
            "for i = 1 to 1000000000 { for j = 1 to 1000000000 { "
            "A[i + j] = A[i + j - 3] } }"
        )
        write, read = prog.statements[0].writes[0], prog.statements[0].reads[0]
        assert pair_order(prog, write, read) == (True, False)
        assert pair_order(prog, read, write) == (True, False)

    def test_past_the_dense_budget_reads_true(self, monkeypatch):
        from repro.window.fast import DENSE_BUDGET_ENV

        monkeypatch.setenv(DENSE_BUDGET_ENV, "10")
        prog, write, read = _pair(
            "for i = 1 to 7 { for j = 1 to 5 { "
            "S1: T[i][2*j] = A[i][j]\n S2: B[i][j] = T[3*i][j] } }",
            (0, 1), (1, 0),
        )
        assert pair_order(prog, write, read) == (True, True)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_enumeration(self, seed):
        from repro.check.oracles import order_truth
        from repro.ir.generate import GeneratorConfig, random_program

        prog = random_program(seed, GeneratorConfig(
            depth=1 + seed % 3, min_trip=2, max_trip=5, uniform_only=seed % 2 == 0
        ))
        for array in prog.arrays:
            for src, dst in itertools.product(prog.refs_to(array), repeat=2):
                assert pair_order(prog, src, dst) == order_truth(prog.nest, src, dst)
