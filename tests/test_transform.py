"""Tests for legality, elementary transforms, completion, searches and
the two baselines — pinned to the paper's Examples 7, 8 and 10."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_program
from repro.linalg import IntMatrix, is_unimodular
from repro.transform import (
    complete_first_row_2d,
    complete_rows_legal,
    eisenbeis_search,
    exhaustive_search,
    interchange,
    is_fully_permutable,
    is_legal,
    is_tileable,
    li_pingali_transformation,
    pick_tile_size,
    reversal,
    search_mws_2d,
    search_mws_3d,
    signed_permutations,
    skew,
    tile_footprint,
    tile_footprints,
    transformed_distances,
)
from repro.transform.elementary import bounded_unimodular_matrices
from repro.transform.legality import ordering_distances, reuse_distances
from repro.window import max_window_size


EX7 = """
for i = 1 to 20 {
  for j = 1 to 30 {
    Y[0] = X[2*i - 3*j]
  }
}
"""

EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""


class TestLegality:
    def test_transformed_distances(self):
        t = IntMatrix([[0, 1], [1, 0]])
        assert transformed_distances(t, [(1, -2)]) == [(-2, 1)]

    def test_is_legal(self):
        assert is_legal(IntMatrix([[0, 1], [1, 0]]), [(1, 0)])
        assert not is_legal(IntMatrix([[0, 1], [1, 0]]), [(1, -1)])
        assert is_legal(IntMatrix.identity(2), [])

    def test_is_tileable_paper_example8(self):
        dists = [(3, -2), (2, 0), (5, -2)]
        assert is_tileable(IntMatrix([[2, 3], [1, 1]]), dists)
        assert not is_tileable(IntMatrix([[2, 3], [1, 2]]), dists)
        assert not is_tileable(IntMatrix.identity(2), dists)

    def test_tileable_implies_legal_for_nonzero(self):
        dists = [(3, -2), (2, 0), (5, -2)]
        for t in bounded_unimodular_matrices(2, 2):
            if is_tileable(t, dists):
                transformed = transformed_distances(t, dists)
                assert all(any(v != 0 for v in d) for d in transformed)
                assert is_legal(t, dists)

    def test_ordering_distances_example8(self):
        prog = parse_program(EX8)
        distances = sorted(ordering_distances(prog, "X"))
        for d in [(2, 0), (3, -2), (5, -2)]:  # the paper's printed set
            assert d in distances
        # The extra vectors are far endpoints of the same families.
        for d1, d2 in distances:
            assert 2 * d1 + 5 * d2 in (-4, 0, 4)
            assert abs(d1) <= 24 and abs(d2) <= 9

    def test_ordering_distances_decide_every_in_bounds_distance(self):
        """``A``'s output family has kernel dimension 2: its 24 in-bounds
        distances ``(0, a, b)`` all constrain the order, and the exact
        set decides each signed permutation as they do."""
        prog = parse_program(
            "for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 { "
            "A[i] = A[i] + B[i][j][k] } } }"
        )
        order = ordering_distances(prog, "A")
        truth = [
            (0, a, b) for a in range(4) for b in range(-3, 4) if (a, b) > (0, 0)
        ]
        assert len(truth) == 24
        for t in signed_permutations(3):
            assert is_legal(t, order) == is_legal(t, truth), t

    def test_ordering_excludes_input(self):
        prog = parse_program("for i = 1 to 9 { B[0] = A[i] + A[i-1] }")
        assert ordering_distances(prog, "A") == []

    def test_program_set_unions_the_memoized_array_sets(self, monkeypatch):
        """Each array's sets are computed once, whichever is asked for
        first (the optimizer asks for the program's, then its searches
        for each array's); the ordering ones come from the exact family
        members, so only the reuse ones run ``array_dependences``."""
        import repro.dependence.analysis as analysis
        from repro.transform.legality import clear_distance_cache

        prog = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { "
            "A[i][j] = A[i - 1][j + 1] + B[i + j] } }"
        )
        calls = []
        analyse = analysis.array_dependences

        def counting(program, array, *args, **kwargs):
            calls.append(array)
            return analyse(program, array, *args, **kwargs)

        monkeypatch.setattr(analysis, "array_dependences", counting)
        clear_distance_cache()
        union = ordering_distances(prog)
        per_array = [d for a in prog.arrays for d in ordering_distances(prog, a)]
        assert union == list(dict.fromkeys(per_array))
        reuse = reuse_distances(prog)
        per_array = [d for a in prog.arrays for d in reuse_distances(prog, a)]
        assert reuse == list(dict.fromkeys(per_array))
        assert sorted(calls) == sorted(prog.arrays)


class TestElementary:
    def test_interchange(self):
        assert interchange(3, 0, 2) == IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_reversal(self):
        assert reversal(2, 1) == IntMatrix([[1, 0], [0, -1]])

    def test_skew(self):
        assert skew(2, 1, 0, 2) == IntMatrix([[1, 0], [2, 1]])
        with pytest.raises(ValueError):
            skew(2, 0, 0, 1)

    def test_signed_permutations_counts(self):
        assert len(list(signed_permutations(2))) == 8
        assert len(list(signed_permutations(3))) == 48
        for t in signed_permutations(2):
            assert is_unimodular(t)

    @given(st.integers(1, 2))
    @settings(max_examples=4, deadline=None)
    def test_bounded_unimodular_all_unimodular(self, bound):
        count = 0
        for t in bounded_unimodular_matrices(2, bound):
            assert t.det() in (1, -1)
            count += 1
        assert count > 0

    def test_bounded_unimodular_3d_contains_identity(self):
        assert IntMatrix.identity(3) in set(bounded_unimodular_matrices(3, 1))


class TestCompletion:
    def test_paper_example8_completion(self):
        t = complete_first_row_2d(2, 3, [(3, -2), (2, 0), (5, -2)])
        assert t == IntMatrix([[2, 3], [1, 1]])
        assert is_tileable(t, [(3, -2), (2, 0), (5, -2)])

    def test_non_coprime_rejected(self):
        assert complete_first_row_2d(2, 4, []) is None

    def test_first_row_violation_rejected(self):
        # (1, 0) against distance (-1, ...) can never be tileable... use a
        # row whose own dot is negative.
        assert complete_first_row_2d(0, 1, [(1, -1)]) is None

    def test_infeasible_zero_slope(self):
        # slope 0 and negative base in both determinant families.
        assert complete_first_row_2d(1, 1, [(1, -1), (-1, 1)]) is None

    @given(st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_completion_unimodular_and_tileable(self, a, b):
        dists = [(1, 0), (0, 1), (2, -1)]
        t = complete_first_row_2d(a, b, dists)
        if math.gcd(a, b) != 1:
            assert t is None
            return
        if any(a * d1 + b * d2 < 0 for d1, d2 in dists):
            assert t is None
            return
        assert t is not None
        assert t.row(0) == (a, b)
        assert is_unimodular(t)
        assert is_tileable(t, dists)

    def test_complete_rows_legal_embedding(self):
        t = complete_rows_legal([[3, 0, 1], [0, 1, 1]], [(1, 3, -3)])
        assert t is not None
        assert is_unimodular(t)
        assert all(v >= 0 for v in t.apply((1, 3, -3)))

    def test_complete_rows_legal_negation_path(self):
        # Leading rows annihilate the distance; appended row needs its
        # sign fixed.
        t = complete_rows_legal([[1, 0, 1, 0], [0, 1, 0, 1]], [(1, 0, -1, 0)])
        assert t is not None
        assert all(v >= 0 for v in t.apply((1, 0, -1, 0)))

    def test_complete_rows_legal_dependent_rows(self):
        assert complete_rows_legal([[1, 2], [2, 4]], []) is None


class TestSearch2D:
    def test_example7_reaches_one(self):
        prog = parse_program(EX7)
        result = search_mws_2d(prog, "X")
        assert result.exact_mws == 1
        assert is_unimodular(result.transformation)

    def test_example8_matches_paper(self):
        prog = parse_program(EX8)
        result = search_mws_2d(prog, "X")
        assert result.exact_mws == 21  # the paper's actual minimum
        assert result.estimated_mws == 22  # the paper's estimate
        dists = [(3, -2), (2, 0), (5, -2)]
        assert is_tileable(result.transformation, dists)

    def test_search_respects_legality(self):
        prog = parse_program(EX8)
        result = search_mws_2d(prog, "X")
        assert is_legal(result.transformation, ordering_distances(prog, "X"))

    def test_wrong_depth_rejected(self):
        prog = parse_program("for i = 1 to 5 { A[i] = A[i-1] }")
        with pytest.raises(ValueError):
            search_mws_2d(prog, "A")

    def test_unknown_array(self):
        prog = parse_program(EX7)
        with pytest.raises(KeyError):
            search_mws_2d(prog, "Z")

    def test_never_worse_than_identity(self):
        prog = parse_program(EX8)
        result = search_mws_2d(prog, "X")
        assert result.exact_mws <= max_window_size(prog, "X")


class TestSearch3D:
    def test_example10_embedding_wins(self):
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
        result = search_mws_3d(prog, "A")
        assert result.exact_mws == 1
        # First two rows are the access matrix (Section 4.3 construction).
        assert result.transformation.row(0) == (3, 0, 1)
        assert result.transformation.row(1) == (0, 1, 1)

    def test_wrong_depth_rejected(self):
        prog = parse_program(EX7)
        with pytest.raises(ValueError):
            search_mws_3d(prog, "X")


class TestExhaustive:
    def test_agrees_with_2d_search_on_example7(self):
        # The winning matrix [[2, -3], [1, -1]] has an entry of magnitude
        # 3, so the bound must reach it.
        prog = parse_program(EX7)
        result = exhaustive_search(prog, "X", bound=3)
        assert result.exact_mws == 1

    def test_tileable_only_flag(self):
        prog = parse_program(EX8)
        tiled = exhaustive_search(prog, "X", bound=2, tileable_only=True)
        loose = exhaustive_search(prog, "X", bound=2, tileable_only=False)
        assert loose.exact_mws <= tiled.exact_mws


class TestBaselines:
    def test_eisenbeis_example7(self):
        prog = parse_program(EX7)
        result = eisenbeis_search(prog, "X")
        assert result.exact_mws == 34  # paper reports 36 with their metric
        # Compound transformations beat interchange+reversal by 34x here.
        assert search_mws_2d(prog, "X").exact_mws < result.exact_mws

    def test_eisenbeis_respects_legality(self):
        prog = parse_program(EX8)
        result = eisenbeis_search(prog, "X")
        assert is_legal(result.transformation, ordering_distances(prog, "X"))

    def test_li_pingali_fails_on_example8(self):
        prog = parse_program(EX8)
        assert li_pingali_transformation(prog, "X") is None

    def test_li_pingali_succeeds_without_flow(self):
        prog = parse_program(EX7)  # X is read-only: no ordering constraints
        t = li_pingali_transformation(prog, "X")
        assert t is not None
        assert is_unimodular(t)
        assert max_window_size(prog, "X", t) <= 2

    def test_li_pingali_nonuniform_rejected(self):
        prog = parse_program(
            "for i = 1 to 5 { for j = 1 to 5 { A[3*i + 7*j] = A[4*i - 3*j] } }"
        )
        with pytest.raises(ValueError):
            li_pingali_transformation(prog, "A")


class TestTiling:
    def test_fully_permutable(self):
        prog = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = A[i-1][j] + A[i][j-1] } }"
        )
        assert is_fully_permutable(prog)

    def test_not_fully_permutable(self):
        prog = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = A[i-1][j+1] } }"
        )
        assert not is_fully_permutable(prog)

    def test_footprint_monotone(self):
        prog = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i-1][j] } }"
        )
        f2 = tile_footprint(prog, (2, 2))
        f4 = tile_footprint(prog, (4, 4))
        assert f2 < f4

    def test_footprint_rank_check(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            tile_footprint(prog, (2, 2))

    def test_pick_tile_size(self):
        prog = parse_program(
            "for i = 1 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j] } }"
        )
        size = pick_tile_size(prog, capacity=40, max_size=16)
        footprint = tile_footprint(prog, size)
        assert footprint <= 40
        bigger = (size[0] + 1,) * 2
        if bigger[0] <= 16:
            assert tile_footprint(prog, bigger) > 40

    def test_pick_tile_size_tiny_capacity(self):
        prog = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i-1][j] } }"
        )
        assert pick_tile_size(prog, capacity=1) == (1, 1)

    def test_footprint_under_skew_counts_partial_corner_tiles(self):
        """Regression: the worst tile under a skew is a *partial* corner
        tile whose footprint the old implementation read off the first
        full tile instead.  For sor under T=[[1,0],[1,1]] the 3x3 tile
        grid has a corner cell touching 21 distinct words, not the 16 a
        full interior tile touches — the footprint must report the true
        per-tile maximum or the capacity feasibility check under-books
        the buffer."""
        from repro.kernels import sor

        skew = IntMatrix([[1, 0], [1, 1]])
        program = sor(32)
        assert tile_footprint(program, (3, 3), skew) == 21

    @pytest.mark.parametrize(
        "body,written,unsubscripted",
        [
            (
                "C[i][j] = C[i][j] + A[i][k] * B[k][j]",
                "C",
                {"C": "k", "A": "j", "B": "i"},
            ),
            (
                "S[i][j] = S[i][j] + Q[i][k] * K[j][k]",
                "S",
                {"S": "k", "Q": "j", "K": "i"},
            ),
        ],
        ids=["gemm", "attention"],
    )
    def test_projective_nest_closed_forms(self, body, written, unsubscripted):
        """Dinh & Demmel's projective nests: on an n^3 box every array
        subscripts two of the three loops, so a full tile touches the
        product of those two extents, and each element is fetched once
        per block of the loop it does not subscript."""
        program = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { for k = 1 to 10 { "
            f"{body} }} }} }}"
        )
        sizes = (1, 2, 3, 4, 7, 10)
        for tile in itertools.product(sizes, repeat=3):
            extent = dict(zip("ijk", tile))
            blocks = {loop: math.ceil(10 / s) for loop, s in extent.items()}
            fp = tile_footprints(program, tile)
            assert fp.n_cells == math.prod(blocks.values()), tile
            for array, loop in unsubscripted.items():
                others = [extent[other] for other in "ijk" if other != loop]
                assert fp.per_array[array] == math.prod(others), (tile, array)
                assert fp.fetch_words[array] == 100 * blocks[loop], (tile, array)
            assert fp.total == sum(fp.per_array.values())
            assert fp.written_per_array[written] == fp.per_array[written]
            assert fp.writeback_words[written] == fp.fetch_words[written]

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]],
        ids=["2x3", "4x3"],
    )
    def test_non_square_transformation_rejected(self, rows):
        """Regression: ``zip`` used to truncate a 2x3 T silently to a
        4-cell grid with total 16 on a nest of 8 cells with total 8."""
        program = parse_program(
            "for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 { A[i][j][k] = 0 } } }"
        )
        with pytest.raises(ValueError, match="3x3"):
            tile_footprints(program, (2, 2, 2), IntMatrix(rows))

    def test_large_coefficients_exact_or_refused(self):
        """Packing (cell, element) pairs over this skew's cell bounding
        box would pass 2**62: the answer must equal the per-point
        reference or be a ValueError, never another number."""
        from repro.check.oracles import tile_footprints_reference

        program = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i - 1][j] + B[j] } }"
        )
        t = IntMatrix([[1, 2**55], [0, 1]])
        try:
            got = tile_footprints(program, (1, 1), t)
        except ValueError as exc:
            assert "2**62" in str(exc)
        else:
            assert got == tile_footprints_reference(program, (1, 1), t)

    @pytest.mark.parametrize(
        "source,rows,limit",
        [
            # T @ i itself would pass 2**62.
            (
                "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = 0 } }",
                [[1, 2**61], [0, 1]],
                "transformed coordinates",
            ),
            # T @ i fits, but the unit-tile grid's bounding box does not.
            (
                "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = 0 } }",
                [[1, 2**58], [0, 1]],
                "tile grid",
            ),
        ],
        ids=["matmul", "grid"],
    )
    def test_int64_screens_refuse(self, source, rows, limit):
        program = parse_program(source)
        with pytest.raises(ValueError, match=limit):
            tile_footprints(program, (1, 1), IntMatrix(rows))

    def test_wide_element_box_matches_reference(self):
        """Regression: 64 cells times the 2**61.8 packed ids of a wide
        element box passed 2**62, so the footprints refused.  The pack
        now uses dense ids (64 elements here) and equals the per-point
        reference."""
        from repro.check.oracles import tile_footprints_reference

        program = parse_program(
            f"for i = 1 to 8 {{ for j = 1 to 8 {{ A[{2**56}*i][j] = 0 }} }}"
        )
        got = tile_footprints(program, (1, 1))
        assert got == tile_footprints_reference(program, (1, 1))
        assert got.n_cells == 64

    def test_dense_budget_refuses(self, monkeypatch):
        """Footprints enumerate the dense engine's point matrix, so a nest
        past ``REPRO_DENSE_BUDGET`` gets its ValueError."""
        from repro.window.fast import DENSE_BUDGET_ENV, clear_iteration_cache

        monkeypatch.setenv(DENSE_BUDGET_ENV, "100")
        clear_iteration_cache()
        program = parse_program(
            "for i = 1 to 11 { for j = 1 to 11 { A[i][j] = 0 } }"
        )
        with pytest.raises(ValueError, match="budget"):
            tile_footprints(program, (2, 2))

    @pytest.mark.parametrize("max_size", [5, 40, 48, 64])
    def test_pick_tile_size_reaches_max_size(self, max_size):
        """Regression: refinement stopped below a non-power-of-two
        max_size (47 for 48, 39 for 40, 4 for 5)."""
        program = parse_program(
            "for i = 1 to 64 { for j = 1 to 64 { "
            "A[i][j] = A[i][j] + A[i-1][j] + A[i][j-1] } }"
        )
        size = pick_tile_size(program, capacity=10**9, max_size=max_size)
        assert size == (max_size, max_size)
