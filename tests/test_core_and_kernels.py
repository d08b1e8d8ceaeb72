"""Integration tests: the end-to-end pipeline and the Figure-2 kernels."""

import pytest

from repro import analyze_program, full_report, optimize_program, parse_program
from repro.core import candidate_transformations
from repro.kernels import (
    KERNELS,
    full_search,
    kernel_by_name,
    matmult,
    rasta_flt,
    sor,
    three_point,
    threestep_log,
    two_point,
)
from repro.kernels.extended import EXTENDED_KERNELS
from repro.linalg import IntMatrix, is_unimodular
from repro.reporting import figure2_row, render_table
from repro.transform.legality import is_legal, ordering_distances
from repro.window import max_total_window


class TestOptimizer:
    def test_example7_program_level(self):
        # Pure use, as printed in the paper ("X[2i - 3j]" with no store).
        prog = parse_program(
            """
            for i = 1 to 20 {
              for j = 1 to 30 {
                X[2*i - 3*j]
              }
            }
            """
        )
        result = optimize_program(prog)
        assert result.mws_after <= 2
        assert result.improved

    def test_scalar_accumulator_is_reduction(self):
        # "Y[0] = X[...]" writes a scalar every iteration; treated as a
        # reorderable reduction, it must not block the transformation.
        prog = parse_program(
            """
            for i = 1 to 20 {
              for j = 1 to 30 {
                Y[0] = Y[0] + X[2*i - 3*j]
              }
            }
            """
        )
        result = optimize_program(prog)
        assert result.mws_after <= 3
        assert result.improved

    def test_identity_never_regresses(self):
        prog = parse_program("for i = 1 to 9 { A[i] = A[i-1] }")
        result = optimize_program(prog)
        assert result.mws_after <= result.mws_before

    def test_candidates_contain_identity_and_are_legal(self):
        prog = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = A[i-1][j] + A[i][j-1] } }"
        )
        candidates = candidate_transformations(prog)
        assert IntMatrix.identity(2) in candidates
        dists = ordering_distances(prog)
        for t in candidates:
            assert is_unimodular(t)
            assert is_legal(t, dists)

    def test_reduction_property(self):
        prog = parse_program(
            "for i = 1 to 20 { for j = 1 to 30 { Y[0] = X[2*i - 3*j] } }"
        )
        result = optimize_program(prog)
        assert 0.0 <= result.reduction <= 1.0

    def test_non_primitive_access_rows_are_skipped(self):
        # The access matrix rows (0, 3, 2) and (-3, -3, -1) have maximal
        # minors 9, 6 and 3: no unimodular completion exists, so that
        # candidate must be skipped instead of crashing the search.
        from repro.ir.generate import GeneratorConfig, random_program

        prog = random_program(
            953893, GeneratorConfig(depth=3, min_trip=4, max_trip=12)
        )
        result = optimize_program(prog)
        assert is_unimodular(result.transformation)
        assert result.mws_after <= result.mws_before
        assert result.mws_after == max_total_window(
            prog, result.transformation, engine="reference"
        )


class TestPipeline:
    def test_analyze(self):
        prog = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2] } }",
            name="ex2",
        )
        report = analyze_program(prog)
        assert report.default_memory == prog.default_memory
        assert report.footprint.footprint_total == 128
        assert report.mws_per_array["A"] > 0
        assert "ex2" in str(report)

    def test_full_report(self):
        prog = parse_program(
            "for i = 1 to 20 { for j = 1 to 30 { Y[0] = X[2*i - 3*j] } }",
            name="ex7",
        )
        report = full_report(prog)
        name, default, unopt, opt = report.figure2_row
        assert name == "ex7"
        assert unopt == report.optimization.mws_before
        assert opt == report.optimization.mws_after
        assert report.sizing_after.mws_words <= report.sizing_before.mws_words


class TestKernels:
    def test_registry(self):
        assert len(KERNELS) == 7
        assert kernel_by_name("sor").name == "sor"
        with pytest.raises(KeyError):
            kernel_by_name("nope")

    def test_two_point_shape(self):
        prog = two_point()
        assert prog.nest.depth == 2
        assert prog.default_memory == 65 * 64  # inferred A with halo row

    def test_three_point_shape(self):
        prog = three_point()
        assert prog.default_memory == 34 * 32

    def test_sor_dependences(self):
        from repro.dependence import array_distance_vectors

        prog = sor()
        dists = array_distance_vectors(prog, "A")
        assert (1, 0) in dists and (0, 1) in dists

    def test_matmult_default(self):
        prog = matmult()
        assert prog.default_memory == 3 * 16 * 16  # 768, Figure 2

    def test_matmult_window_is_paper_value(self):
        prog = matmult()
        assert max_total_window(prog) == 273  # N^2 + N + 1

    def test_motion_kernels_default(self):
        assert threestep_log().default_memory == 2048
        assert full_search().default_memory == 2048

    def test_rasta_default_is_paper_value(self):
        assert rasta_flt().default_memory == 5152

    def test_all_kernels_build_and_validate(self):
        for spec in KERNELS:
            prog = spec.build()
            assert prog.nest.total_iterations > 0
            assert prog.arrays

    @pytest.mark.parametrize(
        "spec", KERNELS + EXTENDED_KERNELS, ids=lambda spec: spec.name
    )
    def test_touched_box_inside_declarations(self, spec):
        """Regression: ``full_search`` read ``R`` at indices 2..32 and
        ``rasta_flt`` touched ``X``/``Y`` at rows up to 56 of zero-based
        56-row declarations, so every layout-addressed model raised
        ``IndexError`` on them."""
        prog = spec.build()
        lowers, uppers = prog.nest.lowers, prog.nest.uppers
        for ref in prog.references:
            decl = prog.decl(ref.array)
            for row, offset, origin, extent in zip(
                ref.access.to_lists(), ref.offset, decl.origins, decl.extents
            ):
                terms = [
                    (c * lo, c * hi) for c, lo, hi in zip(row, lowers, uppers)
                ]
                low = offset + sum(min(t) for t in terms)
                high = offset + sum(max(t) for t in terms)
                assert origin <= low and high < origin + extent, (
                    f"{ref} touches {low}..{high} outside {decl}"
                )


class TestFigure2Rows:
    """Direction-of-effect checks on the cheap kernels (the full table is
    regenerated by benchmarks/bench_figure2_table.py)."""

    def test_two_point_row(self):
        row = figure2_row(kernel_by_name("2point"))
        assert row.unopt_reduction > 95.0
        assert row.mws_opt <= 3
        assert row.opt_reduction >= row.unopt_reduction

    def test_matmult_row_no_improvement(self):
        row = figure2_row(kernel_by_name("matmult"))
        assert row.mws_unopt == row.mws_opt == 273
        assert abs(row.unopt_reduction - 64.5) < 1.0  # paper: 64.4

    def test_render_table(self):
        rows = [figure2_row(kernel_by_name("matmult"))]
        text = render_table(rows)
        assert "matmult" in text
        assert "Average" in text
