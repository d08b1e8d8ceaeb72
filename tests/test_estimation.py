"""Tests for Section 3 estimators: paper examples + oracle properties."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.estimation import (
    distinct_accesses_same_rank,
    distinct_accesses_single_ref,
    estimate_distinct_accesses,
    estimate_program_memory,
    exact_distinct_accesses,
    exact_program_footprint,
    nonuniform_bounds,
    reuse_from_distances,
)
from repro.ir import ArrayRef, NestBuilder, parse_program


def build_uniform_2ref(offset1, offset2, n1=8, n2=8):
    ident = [[1, 0], [0, 1]]
    return (
        NestBuilder()
        .loop("i", 1, n1)
        .loop("j", 1, n2)
        .statement("S1", write=("A", ident, list(offset1)))
        .statement("S2", write=("B", ident, [0, 0]), reads=[("A", ident, list(offset2))])
        .build()
    )


class TestReuseFormula:
    def test_paper_example3_reuse(self):
        assert reuse_from_distances((10, 10), [(1, 0), (0, 1), (1, 1)]) == 261

    def test_paper_example1_area(self):
        # Figure 1: dependence (3, 2) on a 10x10 nest -> (10-3)(10-2) = 56.
        assert reuse_from_distances((10, 10), [(3, 2)]) == 56

    def test_sign_invariance(self):
        assert reuse_from_distances((10, 10), [(3, -2)]) == reuse_from_distances(
            (10, 10), [(3, 2)]
        )

    def test_clamping(self):
        assert reuse_from_distances((4, 4), [(5, 0)]) == 0

    def test_arity_check(self):
        with pytest.raises(ValueError):
            reuse_from_distances((4, 4), [(1,)])


class TestSameRank:
    def test_paper_example2(self):
        prog = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2] } }"
        )
        est = distinct_accesses_same_rank(prog, "A")
        assert est.exact
        assert est.lower == 2 * 100 - (10 - 1) * (10 - 2) == 128
        assert exact_distinct_accesses(prog, "A") == 128

    def test_paper_example3(self):
        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 10 {
                Z[i][j] = A[i][j] + A[i-1][j] + A[i][j-1] + A[i-1][j-1]
              }
            }
            """
        )
        est = distinct_accesses_same_rank(prog, "A")
        assert est.upper == 139  # the paper's formula value
        assert not est.exact  # r > 2: the formula overcounts
        truth = exact_distinct_accesses(prog, "A")
        assert truth == 121
        assert est.lower <= truth <= est.upper

    def test_single_ref(self):
        prog = parse_program("for i = 1 to 6 { for j = 1 to 7 { A[i][j] = 1 } }")
        est = distinct_accesses_same_rank(prog, "A")
        assert est.lower == est.upper == 42

    def test_rejects_singular(self):
        prog = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][i] = A[i][i-1] } }"
        )
        with pytest.raises(ValueError):
            distinct_accesses_same_rank(prog, "A")

    @given(
        st.integers(-3, 3), st.integers(-3, 3),
        st.integers(3, 9), st.integers(3, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_two_refs_exact_property(self, di, dj, n1, n2):
        # For exactly two identity-access refs, the formula is exact.
        assume((di, dj) != (0, 0))
        prog = build_uniform_2ref((0, 0), (di, dj), n1, n2)
        est = distinct_accesses_same_rank(prog, "A")
        assert est.exact
        assert est.lower == exact_distinct_accesses(prog, "A")


class TestSingleRefLowerRank:
    def test_paper_example4(self):
        prog = parse_program(
            "for i = 1 to 20 { for j = 1 to 10 { B[0] = A[2*i + 5*j + 1] } }"
        )
        est = distinct_accesses_single_ref(prog.refs_to("A")[0], prog.nest)
        assert est.lower == 80 and est.exact
        assert exact_distinct_accesses(prog, "A") == 80

    def test_paper_example5(self):
        prog = parse_program(
            """
            for i = 1 to 10 {
              for j = 1 to 20 {
                for k = 1 to 30 {
                  B[0] = A[3*i + k][j + k]
                }
              }
            }
            """
        )
        est = distinct_accesses_single_ref(prog.refs_to("A")[0], prog.nest)
        assert est.lower == 1869 and est.exact
        assert exact_distinct_accesses(prog, "A") == 1869

    @given(st.integers(1, 5), st.integers(-5, 5), st.integers(4, 12), st.integers(4, 12))
    @settings(max_examples=80, deadline=None)
    def test_1d_in_2d_matches_oracle(self, a, b, n1, n2):
        # A[a*i + b*j]: the kernel-based count must equal enumeration when
        # the reuse vector fits in the box (the paper's assumption).
        assume(b != 0)
        import math

        g = math.gcd(a, abs(b))
        v = (abs(b) // g, a // g)  # primitive kernel vector magnitudes
        assume(v[0] < n1 and v[1] < n2)
        prog = (
            NestBuilder()
            .loop("i", 1, n1)
            .loop("j", 1, n2)
            .use("S1", ("A", [[a, b]], [0]))
            .build()
        )
        est = distinct_accesses_single_ref(prog.refs_to("A")[0], prog.nest)
        assert est.lower == exact_distinct_accesses(prog, "A")


class TestNonUniform:
    def test_paper_example6(self):
        prog = parse_program(
            """
            for i = 1 to 20 {
              for j = 1 to 20 {
                S1: A[3*i + 7*j - 10] = 0
                S2: B[0] = A[4*i - 3*j + 60]
              }
            }
            """
        )
        b = nonuniform_bounds(prog, "A")
        assert (b.lb_min, b.ub_max) == (0, 190)
        assert (b.lower, b.upper) == (179, 191)
        truth = exact_distinct_accesses(prog, "A")
        assert truth == 182  # the paper prints 181; enumeration says 182
        assert b.contains(truth)

    def test_dispatcher_uses_bounds(self):
        prog = parse_program(
            """
            for i = 1 to 20 {
              for j = 1 to 20 {
                S1: A[3*i + 7*j - 10] = A[4*i - 3*j + 60]
              }
            }
            """
        )
        est = estimate_distinct_accesses(prog, "A")
        assert not est.exact
        assert est.method == "non-uniform bounds"
        assert est.lower <= exact_distinct_accesses(prog, "A") <= est.upper

    def test_rejects_2d_nonuniform(self):
        prog = parse_program(
            "for i = 1 to 5 { for j = 1 to 5 { A[i][j] = A[j][i] } }"
        )
        with pytest.raises(ValueError):
            nonuniform_bounds(prog, "A")

    def test_multidimensional_array_counts_exactly(self):
        """The Section 3.2 bounds are 1-D; a non-uniform 2-D array gets
        the dense engine's exact count, for ``analyze`` too."""
        prog = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][2*j] = A[j][i] + 1 } }"
        )
        est = estimate_distinct_accesses(prog, "A")
        assert est.exact and est.method == "exact count"
        truth = exact_distinct_accesses(prog, "A")
        assert est.lower == est.upper == truth
        assert estimate_program_memory(prog).footprint_total == truth

    def test_multidimensional_array_past_the_dense_budget(self, monkeypatch):
        """Past the budget the count streams instead of raising."""
        from repro.window.fast import DENSE_BUDGET_ENV, clear_iteration_cache

        prog = parse_program(
            "for i = 1 to 7 { for j = 1 to 7 { A[i][2*j] = A[j][i] + 1 } }"
        )
        truth = exact_distinct_accesses(prog, "A")
        monkeypatch.setenv(DENSE_BUDGET_ENV, "10")
        clear_iteration_cache()
        est = estimate_distinct_accesses(prog, "A")
        assert est.exact and est.lower == est.upper == truth

    @given(
        st.integers(1, 7), st.integers(-7, 7).filter(lambda v: v != 0),
        st.integers(1, 7), st.integers(-7, 7).filter(lambda v: v != 0),
        st.integers(-30, 30), st.integers(-30, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_bracket_oracle(self, a1, b1, a2, b2, c1, c2):
        # Covers coprime AND non-coprime coefficients, overlapping AND
        # disjoint value ranges (the component generalization).
        prog = (
            NestBuilder()
            .loop("i", 1, 15)
            .loop("j", 1, 15)
            .statement("S1", write=("A", [[a1, b1]], [c1]))
            .statement("S2", write=("A", [[a2, b2]], [c2]))
            .build()
        )
        from repro.linalg import sylvester_count

        bounds = nonuniform_bounds(prog, "A")
        truth = exact_distinct_accesses(prog, "A")
        assert truth <= bounds.upper
        # The paper's "lower bound" is a close heuristic, not a guarantee:
        # it corrects only the two global extremes, so interior gaps where
        # one reference's coverage hands over to the other's can push the
        # truth slightly below it.  The slack is bounded by the total
        # Sylvester gap mass of all references.
        slack = sylvester_count(a1, b1) + sylvester_count(a2, b2)
        assert bounds.lower <= truth + slack


class TestDispatcherAndMemory:
    def test_injective_multi_offset(self):
        prog = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { A[i][j] = A[i-1][j] } }"
        )
        est = estimate_distinct_accesses(prog, "A")
        assert est.exact
        assert est.lower == exact_distinct_accesses(prog, "A")

    def test_multiref_1d_now_exact(self):
        # Multiple refs AND a kernel, 1-D in 2-D: the exact-union
        # extension (the case the paper omits) takes over.
        prog = parse_program(
            "for i = 1 to 12 { for j = 1 to 12 { X[2*i + 5*j + 1] = X[2*i + 5*j + 5] } }"
        )
        est = estimate_distinct_accesses(prog, "X")
        truth = exact_distinct_accesses(prog, "X")
        assert est.exact
        assert est.lower == truth

    def test_mixed_case_2d_array_bounds_hold(self):
        # Several references with kernel reuse outside the exact-union
        # machinery: the paper has no closed form, so the touched
        # elements are counted.
        prog = parse_program(
            """
            for i = 1 to 8 {
              for j = 1 to 8 {
                for k = 1 to 8 {
                  X[i + k][j] = X[i + k][j] + X[i + k - 2][j]
                }
              }
            }
            """
        )
        est = estimate_distinct_accesses(prog, "X")
        truth = exact_distinct_accesses(prog, "X")
        assert est.exact and est.lower == est.upper == truth

    def test_two_references_with_a_2d_kernel_count_exactly(self):
        # No two iterations differ by (1, -64, -64): the two references
        # touch 4 elements, counted.
        prog = parse_program(
            """
            for i = 1 to 3 {
              for j = 1 to 3 {
                for k = 1 to 3 {
                  A[2*i + 1] = A[2*i - 1]
                }
              }
            }
            """
        )
        est = estimate_distinct_accesses(prog, "A")
        assert est.exact and est.lower == est.upper == 4
        assert exact_distinct_accesses(prog, "A") == 4

    def test_program_memory_report(self):
        prog = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2] } }",
            name="example2",
        )
        report = estimate_program_memory(prog)
        assert report.footprint_total == 128
        assert report.declared_total == prog.default_memory
        assert report.all_exact

    def test_exact_program_footprint(self):
        prog = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = B[i][j] } }"
        )
        foot = exact_program_footprint(prog)
        assert foot == {"A": 100, "B": 100}

    def test_unknown_array_raises(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            estimate_distinct_accesses(prog, "Z")
        with pytest.raises(KeyError):
            exact_distinct_accesses(prog, "Z")
