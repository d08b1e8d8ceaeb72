"""Tests for window allocation, branch-and-bound and visualization."""

import math
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Loop, LoopNest, parse_program
from repro.linalg import IntMatrix
from repro.transform import (
    allocate_window,
    modulo_is_valid,
    rewrite_with_buffer,
    search_mws_2d,
)
from repro.transform.branch_bound import (
    branch_and_bound_mws_2d,
    minimize_window_step,
)
from repro.transform.legality import ordering_distances
from repro.viz import (
    dependence_graph_dot,
    render_iteration_space,
    render_profile_bars,
    render_reuse_region,
    sparkline,
)
from repro.window import max_window_size, mws_2d_estimate, window_profile
from repro.window.simulator import element_lifetimes

EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""


class TestWindowAllocation:
    def test_example8_original(self):
        prog = parse_program(EX8)
        alloc = allocate_window(prog, "X")
        assert alloc.modulus == 44 == alloc.mws
        assert alloc.saving_vs_declared > 0.5

    def test_example8_transformed(self):
        prog = parse_program(EX8)
        t = IntMatrix([[2, 3], [1, 1]])
        alloc = allocate_window(prog, "X", t)
        assert alloc.mws == 21
        assert 21 <= alloc.modulus <= 23  # modulo scheme may pay slack
        assert alloc.overhead < 0.15

    def test_modulus_at_least_mws(self):
        prog = parse_program(EX8)
        alloc = allocate_window(prog, "X")
        assert alloc.modulus >= alloc.mws

    def test_validity_definition(self):
        # Two elements alive together must not share a residue.
        lifetimes = [(0, 0, 5), (4, 2, 8)]  # addresses 0 and 4 overlap in time
        assert not modulo_is_valid(lifetimes, 4)  # 0 % 4 == 4 % 4
        assert modulo_is_valid(lifetimes, 3)
        assert modulo_is_valid(lifetimes, 5)

    def test_disjoint_lifetimes_can_fold(self):
        lifetimes = [(0, 0, 2), (7, 5, 9)]
        assert modulo_is_valid(lifetimes, 1)

    def test_allocation_is_conflict_free(self):
        # Replay Example 8 and verify no live collision under the modulus.
        prog = parse_program(EX8)
        alloc = allocate_window(prog, "X")
        lifetimes = element_lifetimes(prog, "X")
        live: dict[int, tuple] = {}
        events = sorted(
            (when, kind, element)
            for element, (first, last) in lifetimes.items()
            for when, kind in ((first, 0), (last, 1))
        )
        decl = prog.decl("X")
        from repro.layout import RowMajorLayout

        layout = RowMajorLayout()
        active: dict[int, set] = {}
        for element, (first, last) in lifetimes.items():
            slot = layout.address(decl, element) % alloc.modulus
            for other, (of, ol) in lifetimes.items():
                if other == element:
                    continue
                if layout.address(decl, other) % alloc.modulus != slot:
                    continue
                assert last < of or ol < first, (
                    f"{element} and {other} are live together in slot {slot}"
                )

    def test_rewrite_with_buffer(self):
        prog = parse_program(EX8)
        alloc = allocate_window(prog, "X")
        text = rewrite_with_buffer(prog, "X", alloc)
        assert f"X_buf[{alloc.modulus}]" in text.replace("array X_buf", "X_buf")
        assert f"% {alloc.modulus}]" in text
        assert "X[" not in text.replace("X_buf[", "")

    def test_rewrite_matches_whole_identifiers(self):
        """Regression: folding ``A`` by substring match also rewrote the
        declaration of ``AB`` and the reference ``BA[i]``."""
        prog = parse_program(
            "for i = 1 to 9 { AB[i] = A[i] + A[i-1] + BA[i] }"
        )
        text = rewrite_with_buffer(prog, "A", allocate_window(prog, "A"))
        assert text.splitlines()[:3] == [
            "array A_buf[2]", "array BA[1:9]", "array AB[1:9]",
        ]
        assert (
            "S1: AB[i] = A_buf[((i)) % 2] + A_buf[((i - 1)) % 2] + BA[i]"
        ) in text

    def test_unknown_array(self):
        prog = parse_program(EX8)
        with pytest.raises(KeyError):
            allocate_window(prog, "Z")

    @given(st.integers(1, 3), st.integers(-3, 3), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_modulus_bracket_property(self, a, b, c):
        if (a, b) == (0, 0):
            return
        prog = parse_program(
            f"for i = 1 to 8 {{ for j = 1 to 8 {{ "
            f"X[{a}*i + {b}*j + {c}] = X[{a}*i + {b}*j] }} }}"
        )
        alloc = allocate_window(prog, "X")
        assert alloc.mws <= alloc.modulus <= alloc.declared


class TestBranchAndBound:
    DISTS = [(3, -2), (2, 0), (5, -2)]

    def test_paper_worked_example(self):
        r = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS)
        assert r.row == (2, 3)
        assert r.objective == Fraction(22)

    def test_example7(self):
        r = branch_and_bound_mws_2d(2, -3, 20, 30, [])
        assert r.objective == 1
        a, b = r.row
        assert 3 * a + 2 * b == 0 or abs(-3 * a - 2 * b) == 0  # aligned row

    def test_matches_enumeration(self):
        # Exhaustively check optimality within the bound.
        best = None
        for a in range(0, 9):
            for b in range(-8, 9):
                if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                    continue
                if a == 0 and b < 0:
                    continue
                if any(a * d1 + b * d2 < 0 for d1, d2 in self.DISTS):
                    continue
                value = mws_2d_estimate(2, 5, 25, 10, a, b)
                if best is None or value < best:
                    best = value
        r = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=8)
        assert r.objective == best

    def test_prunes(self):
        r_small = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=8)
        r_large = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=24)
        assert r_large.objective <= r_small.objective
        # Pruning: far fewer evaluations than the (2*24+1)*(24+1) grid.
        assert r_large.candidates_evaluated < 25 * 49

    def test_infeasible_raises(self):
        # b pinned to 0 by (0, +-1), a pinned to 0 by (-1, 0): no coprime
        # row satisfies all constraints.
        with pytest.raises(ValueError):
            branch_and_bound_mws_2d(
                2, 5, 10, 10, [(0, 1), (0, -1), (-1, 0)], bound=3
            )

    def test_window_step_shortcut(self):
        # The paper's "minimize 5a-2b" shortcut: feasible and good, but
        # not always optimal — (1,1) has step 3 yet MWS 30 > 22.
        row = minimize_window_step(2, 5, self.DISTS)
        assert row == (1, 1)
        assert mws_2d_estimate(2, 5, 25, 10, *row) > Fraction(22)

    @given(
        st.integers(1, 4), st.integers(-4, 4),
        st.integers(5, 20), st.integers(5, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_bb_optimal_property(self, alpha1, alpha2, n1, n2):
        if alpha2 == 0:
            return
        dists = [(1, 0)]
        bb = branch_and_bound_mws_2d(alpha1, alpha2, n1, n2, dists, bound=5)
        for a in range(0, 6):
            for b in range(-5, 6):
                if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                    continue
                if a == 0 and b < 0:
                    continue
                if a * 1 + b * 0 < 0:
                    continue
                assert bb.objective <= mws_2d_estimate(alpha1, alpha2, n1, n2, a, b)


class TestViz:
    def test_iteration_space_marks(self):
        nest = LoopNest([Loop("i", 1, 4), Loop("j", 1, 6)])
        art = render_iteration_space(nest, [(2, 3)])
        assert art.count("*") == 1

    def test_reuse_region_figure1(self):
        # 10x10 with dependence (3, 2): 56 shaded cells, the paper's area.
        nest = LoopNest([Loop("i", 1, 10), Loop("j", 1, 10)])
        art = render_reuse_region(nest, (3, 2))
        assert art.count("#") == 56
        assert "56" in art

    def test_reuse_region_negative_component(self):
        nest = LoopNest([Loop("i", 1, 10), Loop("j", 1, 10)])
        assert render_reuse_region(nest, (3, -2)).count("#") == 56

    def test_clipping(self):
        nest = LoopNest([Loop("i", 1, 100), Loop("j", 1, 100)])
        assert "clipped" in render_iteration_space(nest)

    def test_wrong_depth(self):
        nest = LoopNest([Loop("i", 1, 4)])
        with pytest.raises(ValueError):
            render_iteration_space(nest)

    def test_sparkline(self):
        assert sparkline([0, 1, 2, 3], width=4) == " -*@"
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "   "

    def test_sparkline_resample_keeps_peak(self):
        values = [0] * 100 + [10] + [0] * 100
        line = sparkline(values, width=20)
        assert "@" in line

    def test_profile_bars(self):
        prog = parse_program(EX8)
        profile = window_profile(prog, "X")
        art = render_profile_bars(profile.sizes, title="X window")
        assert "X window" in art
        assert str(profile.max_size) in art

    def test_dependence_dot(self):
        prog = parse_program(EX8)
        dot = dependence_graph_dot(prog)
        assert dot.startswith("digraph")
        assert "style=dashed" in dot or "style=solid" in dot
        assert "X" in dot
