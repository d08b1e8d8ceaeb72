"""Liveness profiles: reference vs fast equality, the def-use occupancy
trajectory, and their ASCII and CLI rendering."""

from __future__ import annotations

import pytest

from repro import obs
from repro.ir import parse_program
from repro.linalg import IntMatrix
from repro.window import LivenessProfile, liveness_profile
from repro.window.fast import liveness_profile_fast
from repro.window.simulator import max_window_size_reference
from repro.window.zhao_malik import def_use_occupancy

EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""

INTERCHANGE = IntMatrix([[0, 1], [1, 0]])


@pytest.fixture(autouse=True)
def obs_disabled():
    obs.disable()
    yield
    obs.disable()


class TestReferenceProfile:
    def test_peak_matches_mws(self):
        program = parse_program(EX8)
        profile = liveness_profile(program, "X")
        assert profile.peak == 44
        assert profile.peak == max_window_size_reference(program, "X")
        assert profile.occupancy[profile.peak_time] == 44
        assert max(profile.occupancy) == 44

    def test_peak_point_is_iteration_at_peak_time(self):
        program = parse_program(EX8)
        profile = liveness_profile(program, "X")
        order = list(program.nest.iterate())
        assert profile.peak_point == order[profile.peak_time]

    def test_reuse_histogram_counts_consecutive_gaps(self):
        # A[i] and A[i-1]: every element except the edges is read twice,
        # one iteration apart.
        program = parse_program("for i = 1 to 9 { B[0] = A[i] + A[i-1] }")
        profile = liveness_profile(program, "A")
        assert profile.reuse_histogram == {1: 8}
        assert profile.reuse_count == 8

    def test_no_reuse_means_empty_histogram_and_zero_peak(self):
        program = parse_program("for i = 1 to 4 { A[i] = 1 }")
        profile = liveness_profile(program, "A")
        assert profile.peak == 0
        assert profile.occupancy == (0, 0, 0, 0)
        assert profile.reuse_histogram == {}
        assert profile.mean_occupancy == 0.0

    def test_mean_occupancy(self):
        profile = LivenessProfile(
            array="A",
            occupancy=(1, 2, 3),
            peak=3,
            peak_time=2,
            peak_point=None,
            reuse_histogram={},
        )
        assert profile.mean_occupancy == pytest.approx(2.0)


class TestFastMatchesReference:
    @pytest.mark.parametrize("transformation", [None, INTERCHANGE])
    def test_full_profile_equality(self, transformation):
        program = parse_program(EX8)
        ref = liveness_profile(program, "X", transformation)
        fast = liveness_profile_fast(program, "X", transformation)
        assert fast.array == ref.array
        assert fast.occupancy == ref.occupancy
        assert fast.peak == ref.peak
        assert fast.peak_time == ref.peak_time
        assert fast.peak_point == ref.peak_point
        assert fast.reuse_histogram == dict(ref.reuse_histogram)

    def test_zero_window_program(self):
        program = parse_program("for i = 1 to 4 { A[i] = 1 }")
        ref = liveness_profile(program, "A")
        fast = liveness_profile_fast(program, "A")
        assert fast.occupancy == ref.occupancy == (0, 0, 0, 0)
        assert fast.peak == ref.peak == 0
        assert fast.reuse_histogram == {}


class TestDefUseOccupancy:
    def test_occupancy_peak_matches_def_use_peak(self):
        from repro.window.zhao_malik import def_use_peak

        program = parse_program(EX8)
        occupancy = def_use_occupancy(program, "X")
        assert len(occupancy) == program.nest.total_iterations
        assert max(occupancy) == def_use_peak(program, "X")


class TestVizRendering:
    def test_render_liveness_profile_sections(self):
        from repro.viz import render_liveness_profile

        program = parse_program(EX8)
        text = render_liveness_profile(liveness_profile(program, "X"))
        assert "liveness of X: peak 44" in text
        assert "occupancy over time:" in text
        assert "reuse distances" in text

    def test_render_without_reuse_omits_histogram(self):
        from repro.viz import render_liveness_profile

        program = parse_program("for i = 1 to 4 { A[i] = 1 }")
        text = render_liveness_profile(liveness_profile(program, "A"))
        assert "reuse distances" not in text


class TestCliLiveness:
    def test_viz_liveness_flag(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "ex8.txt"
        source.write_text(EX8)
        assert main(["viz", str(source), "--liveness"]) == 0
        out = capsys.readouterr().out
        assert "liveness of X: peak 44" in out
        assert "reuse distances" in out
