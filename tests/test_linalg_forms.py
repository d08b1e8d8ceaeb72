"""Tests for Hermite/Smith normal forms, nullspaces, unimodular tools,
and the Frobenius/Sylvester counting primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMatrix,
    complete_unimodular,
    ext_gcd,
    frobenius_number,
    gcd_list,
    hermite_normal_form,
    integer_nullspace,
    is_unimodular,
    lcm,
    lcm_list,
    primitive_vector,
    random_unimodular,
    representable_values,
    smith_normal_form,
    solve_linear_diophantine,
    solve_two_var_diophantine,
    sylvester_count,
    unimodular_inverse,
)
from repro.linalg.frobenius import distinct_affine_values_in_box
from repro.linalg.gcd import ceil_div, floor_div
from repro.linalg.nullspace import nullspace_rank


def matrices(max_dim=4, lo=-7, hi=7):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda dims: st.lists(
            st.lists(st.integers(lo, hi), min_size=dims[1], max_size=dims[1]),
            min_size=dims[0],
            max_size=dims[0],
        ).map(IntMatrix)
    )


class TestGcd:
    def test_ext_gcd_basic(self):
        g, x, y = ext_gcd(240, 46)
        assert g == 2 and 240 * x + 46 * y == 2

    def test_ext_gcd_zero(self):
        g, x, y = ext_gcd(0, 0)
        assert g == 0 and 0 * x + 0 * y == 0

    def test_ext_gcd_negative(self):
        g, x, y = ext_gcd(-4, 6)
        assert g == 2 and -4 * x + 6 * y == 2

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_ext_gcd_property(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g

    def test_gcd_list(self):
        assert gcd_list([6, 9, 15]) == 3
        assert gcd_list([]) == 0
        assert gcd_list([0, 0]) == 0

    def test_lcm(self):
        assert lcm(4, 6) == 12
        assert lcm(0, 5) == 0
        assert lcm_list([2, 3, 4]) == 12
        assert lcm_list([]) == 1
        assert lcm_list([0, 3]) == 0

    def test_two_var(self):
        assert solve_two_var_diophantine(3, 5, 1) is not None
        assert solve_two_var_diophantine(2, 4, 3) is None
        assert solve_two_var_diophantine(0, 0, 0) == (0, 0)
        assert solve_two_var_diophantine(0, 0, 1) is None

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-50, 50))
    def test_two_var_property(self, a, b, c):
        sol = solve_two_var_diophantine(a, b, c)
        g = math.gcd(a, b)
        if (g == 0 and c != 0) or (g != 0 and c % g != 0):
            assert sol is None
        else:
            x, y = sol
            assert a * x + b * y == c

    @given(
        st.lists(st.integers(-10, 10), min_size=0, max_size=5),
        st.integers(-40, 40),
    )
    def test_multivar_property(self, coeffs, c):
        sol = solve_linear_diophantine(coeffs, c)
        g = gcd_list(coeffs)
        solvable = (c == 0) if g == 0 else (c % g == 0)
        if solvable:
            assert sol is not None
            assert sum(a * x for a, x in zip(coeffs, sol)) == c
        else:
            assert sol is None

    def test_floor_ceil_div(self):
        assert floor_div(7, 2) == 3
        assert floor_div(-7, 2) == -4
        assert floor_div(7, -2) == -4
        assert ceil_div(7, 2) == 4
        assert ceil_div(-7, 2) == -3
        assert ceil_div(7, -2) == -3


class TestHermite:
    def test_known(self):
        h, u = hermite_normal_form(IntMatrix([[2, 4], [3, 5]]))
        assert (u @ IntMatrix([[2, 4], [3, 5]])) == h
        assert is_unimodular(u)

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_hnf_properties(self, m):
        h, u = hermite_normal_form(m)
        # U is unimodular and H == U @ M.
        assert is_unimodular(u)
        assert u @ m == h
        # H is in echelon form with positive pivots and reduced columns.
        last_pivot_col = -1
        for i in range(h.n_rows):
            row = h.row(i)
            nonzero = [j for j, v in enumerate(row) if v != 0]
            if not nonzero:
                # All later rows must be zero too (echelon).
                for k in range(i + 1, h.n_rows):
                    assert all(v == 0 for v in h.row(k))
                break
            pivot_col = nonzero[0]
            assert pivot_col > last_pivot_col
            pivot = row[pivot_col]
            assert pivot > 0
            for r_above in range(i):
                assert 0 <= h[r_above, pivot_col] < pivot
            last_pivot_col = pivot_col


class TestSmith:
    def test_known(self):
        s, u, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
        assert u @ IntMatrix([[2, 4], [6, 8]]) @ v == s
        assert (s[0, 0], s[1, 1]) == (2, 4)

    def test_identity(self):
        s, u, v = smith_normal_form(IntMatrix.identity(3))
        assert s == IntMatrix.identity(3)

    def test_zero(self):
        s, u, v = smith_normal_form(IntMatrix.zeros(2, 3))
        assert s.is_zero()

    @given(matrices(max_dim=3, lo=-5, hi=5))
    @settings(max_examples=100, deadline=None)
    def test_snf_properties(self, m):
        s, u, v = smith_normal_form(m)
        assert is_unimodular(u)
        assert is_unimodular(v)
        assert u @ m @ v == s
        # Diagonal, non-negative, divisibility chain.
        diag = []
        for i in range(s.n_rows):
            for j in range(s.n_cols):
                if i != j:
                    assert s[i, j] == 0
                else:
                    assert s[i, j] >= 0
                    diag.append(s[i, j])
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0
            if a == 0:
                assert b == 0


class TestNullspace:
    def test_primitive_vector(self):
        assert primitive_vector([4, -6, 2]) == (2, -3, 1)
        assert primitive_vector([0, 0]) == (0, 0)

    def test_paper_example_10(self):
        # Access matrix of A[3i + k, j + k]; reuse direction (1, 3, -3).
        basis = integer_nullspace(IntMatrix([[3, 0, 1], [0, 1, 1]]))
        assert basis == [(1, 3, -3)]

    def test_paper_example_4(self):
        # A[2i + 5j + 1]: reuse direction is (5, -2).
        basis = integer_nullspace(IntMatrix([[2, 5]]))
        assert basis == [(5, -2)]

    def test_full_rank_square(self):
        assert integer_nullspace(IntMatrix([[1, 0], [0, 1]])) == []

    def test_zero_matrix(self):
        basis = integer_nullspace(IntMatrix.zeros(2, 3))
        assert len(basis) == 3

    def test_nullspace_rank(self):
        assert nullspace_rank(IntMatrix([[2, 5]])) == 1
        assert nullspace_rank(IntMatrix.identity(3)) == 0

    @given(matrices(max_dim=4, lo=-6, hi=6))
    @settings(max_examples=100, deadline=None)
    def test_kernel_property(self, m):
        basis = integer_nullspace(m)
        assert len(basis) == m.n_cols - m.rank()
        for vec in basis:
            assert m.apply(vec) == tuple([0] * m.n_rows)
            assert gcd_list(vec) in (0, 1)


class TestUnimodular:
    def test_is_unimodular(self):
        assert is_unimodular(IntMatrix([[2, 3], [1, 2]]))
        assert not is_unimodular(IntMatrix([[2, 0], [0, 1]]))
        assert not is_unimodular(IntMatrix([[1, 2, 3]]))

    def test_inverse(self):
        m = IntMatrix([[2, 3], [1, 2]])
        assert unimodular_inverse(m) @ m == IntMatrix.identity(2)

    def test_complete_single_row(self):
        t = complete_unimodular([[2, -3]])
        assert is_unimodular(t)
        assert t.row(0) == (2, -3)

    def test_complete_two_rows_3d(self):
        t = complete_unimodular([[3, 0, 1], [0, 1, 1]])
        assert is_unimodular(t)
        assert t.row(0) == (3, 0, 1)
        assert t.row(1) == (0, 1, 1)

    def test_complete_full_rank_input(self):
        t = complete_unimodular([[0, 1], [1, 0]])
        assert is_unimodular(t)

    def test_complete_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            complete_unimodular([[2, 0]])

    def test_complete_rejects_dependent(self):
        with pytest.raises(ValueError):
            complete_unimodular([[1, 2], [2, 4]])

    def test_complete_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            complete_unimodular([[1, 0], [0, 1], [1, 1]])

    def test_complete_rejects_rows_whose_minors_share_a_factor(self):
        # Each row is primitive and the HNF pivots are units, but the
        # 2x2 minors are 9, 6 and 3: the rows span an index-3 sublattice
        # of their rational span, so no unimodular completion exists.
        with pytest.raises(ValueError, match="gcd 3"):
            complete_unimodular([[0, 3, 2], [-3, -3, -1]])

    @given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_completes_exactly_when_minors_are_coprime(self, entries):
        from itertools import combinations

        rows = [entries[:3], entries[3:]]
        minors = [
            rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a]
            for a, b in combinations(range(3), 2)
        ]
        if math.gcd(*minors) != 1:
            with pytest.raises(ValueError):
                complete_unimodular(rows)
            return
        t = complete_unimodular(rows)
        assert is_unimodular(t)
        assert [list(t.row(0)), list(t.row(1))] == rows

    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_complete_coprime_rows(self, a, b):
        if math.gcd(a, b) != 1:
            return
        t = complete_unimodular([[a, b]])
        assert is_unimodular(t)
        assert t.row(0) == (a, b)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_unimodular(self, n, seed):
        m = random_unimodular(n, random.Random(seed))
        assert is_unimodular(m)


class TestFrobenius:
    def test_sylvester_paper_values(self):
        assert sylvester_count(3, 7) == 6
        assert sylvester_count(2, 5) == 2

    def test_sylvester_signs(self):
        assert sylvester_count(-3, 7) == 6
        assert sylvester_count(3, -7) == 6

    def test_sylvester_non_coprime_reduces(self):
        assert sylvester_count(6, 14) == sylvester_count(3, 7)

    def test_sylvester_rejects_zero(self):
        with pytest.raises(ValueError):
            sylvester_count(0, 5)

    def test_frobenius_known(self):
        assert frobenius_number(3, 7) == 11
        assert frobenius_number(3, 5) == 7

    def test_frobenius_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            frobenius_number(4, 6)

    @given(st.integers(2, 9), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_sylvester_matches_bruteforce(self, a, b):
        if math.gcd(a, b) != 1:
            return
        limit = a * b  # all gaps lie below a*b - a - b + 1 <= a*b
        reachable = representable_values(a, b, limit)
        gaps = [v for v in range(limit + 1) if v not in reachable]
        assert len(gaps) == sylvester_count(a, b)
        if gaps:
            assert max(gaps) == frobenius_number(a, b)

    def test_distinct_affine_values_paper_example6(self):
        # f1 = 3i + 7j - 10 over 1..20 x 1..20 has 181 joint-with-f2 values;
        # on its own it attains span - 2 * sylvester(3,7) values.
        count = distinct_affine_values_in_box(3, 7, -10, 20, 20)
        span = (3 * 20 + 7 * 20 - 10) - (3 + 7 - 10) + 1
        assert count == span - 2 * sylvester_count(3, 7)
