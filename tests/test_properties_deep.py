"""Deeper cross-cutting property tests over random programs.

These tie several subsystems together: optimal-policy dominance,
allocation conflict-freedom, fusion/distribution semantics, transformed
window invariance under execution-order-preserving matrices, plus the
metamorphic oracles of :mod:`repro.check` driven over deterministic
seeds.

Hypothesis runs under the derandomized ``repro`` profile registered in
``tests/conftest.py``, so every run replays the same examples; direct
seed ranges honor ``REPRO_FUZZ_SEED``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import assert_oracle, fuzz_seeds

from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.ir.interpreter import execute, initial_state, states_equal
from repro.layout import RowMajorLayout
from repro.linalg import IntMatrix
from repro.memory import simulate_scratchpad
from repro.transform import allocate_window, distribute
from repro.window import max_total_window, max_window_size

seeds = st.integers(0, 100_000)


class TestPolicyDominance:
    @given(seeds, st.integers(2, 24))
    @settings(max_examples=40, deadline=None)
    def test_belady_never_loses_to_lru(self, seed, capacity):
        prog = random_program(seed, GeneratorConfig(max_trip=6))
        belady = simulate_scratchpad(prog, capacity, policy="belady")
        lru = simulate_scratchpad(prog, capacity, policy="lru")
        assert belady.misses <= lru.misses
        assert belady.cold_misses == lru.cold_misses  # compulsory is policy-free

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_mws_capacity_is_cold_only(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=6))
        mws = max_total_window(prog)
        stats = simulate_scratchpad(prog, mws + len(prog.references) + 1)
        assert stats.capacity_misses == 0


class TestAllocationProperty:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_modulo_allocation_always_valid(self, seed):
        prog = random_program(
            seed, GeneratorConfig(max_trip=6, array_rank=1)
        )
        array = prog.arrays[0]
        alloc = allocate_window(prog, array)
        assert alloc.mws <= alloc.modulus <= max(1, alloc.declared)
        # Re-verify conflict-freedom against the per-point lifetimes.
        from repro.check.oracles import address_lifetimes_reference
        from repro.transform.window_allocation import modulo_is_valid

        lifetimes = address_lifetimes_reference(prog, array, RowMajorLayout())
        assert modulo_is_valid(lifetimes, alloc.modulus)


class TestDistributionProperty:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_distribution_preserves_semantics(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=5, max_statements=3))
        seq = distribute(prog)
        state = initial_state(prog)
        chained = state
        for part in seq.programs:
            chained = execute(part, state=chained)
        assert states_equal(chained, execute(prog, state=state))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_distribution_covers_all_statements(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=5, max_statements=3))
        seq = distribute(prog)
        labels = [s.label for p in seq.programs for s in p.statements]
        assert sorted(labels) == sorted(s.label for s in prog.statements)


class TestWindowInvariances:
    def test_identity_transformation_is_noop(self):
        prog = parse_program(
            "for i = 1 to 9 { for j = 1 to 9 { X[2*i + 5*j] = X[2*i + 5*j + 4] } }"
        )
        ident = IntMatrix.identity(2)
        assert max_window_size(prog, "X") == max_window_size(prog, "X", ident)

    @given(seeds, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_inner_skew_preserves_window(self, seed, factor):
        # T = [[1, 0], [f, 1]] keeps the execution order identical (outer
        # index unchanged, inner strictly increasing in j for fixed i),
        # so every window is unchanged.
        prog = random_program(seed, GeneratorConfig(max_trip=6))
        t = IntMatrix([[1, 0], [factor, 1]])
        for array in prog.arrays:
            assert max_window_size(prog, array) == max_window_size(prog, array, t)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_window_nonnegative_and_bounded(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=6))
        for array in prog.arrays:
            mws = max_window_size(prog, array)
            assert 0 <= mws <= prog.nest.total_iterations * len(prog.refs_to(array))


class TestMetamorphicOracles:
    """Drive the registry's metamorphic relations over fixed seed ranges
    (failures shrink themselves and print a replay command)."""

    @pytest.mark.parametrize("seed", fuzz_seeds(25, salt=21))
    def test_relabel_distinct_invariance(self, seed, tmp_path):
        assert_oracle("relabel-distinct-invariance", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(8, salt=22))
    def test_relabel_distinct_invariance_3d(self, seed, tmp_path):
        assert_oracle("relabel-distinct-invariance-3d", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(20, salt=23))
    def test_permutation_preserves_semantics(self, seed, tmp_path):
        assert_oracle("permutation-preserves-semantics", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(25, salt=24))
    def test_trip_extension_monotone(self, seed, tmp_path):
        assert_oracle("trip-extension-monotone", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(25, salt=25))
    def test_time_reversal_mws_invariance(self, seed, tmp_path):
        assert_oracle("time-reversal-mws-invariance", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(20, salt=26))
    def test_cascade_conformance(self, seed, tmp_path):
        assert_oracle("cascade-conformance", seed, tmp_path)

    @pytest.mark.parametrize("seed", fuzz_seeds(20, salt=27))
    def test_line_window_element_parity(self, seed, tmp_path):
        assert_oracle("line-window-element-parity", seed, tmp_path)
