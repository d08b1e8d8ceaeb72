"""Tests for the scratchpad simulator and memory cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.bounds import transfer_lower_bound
from repro.ir import NestBuilder, parse_program
from repro.linalg import IntMatrix
from repro.memory import (
    CacheConfig,
    MemoryCostModel,
    MemoryHierarchy,
    MemoryTier,
    access_energy_pj,
    access_latency_ns,
    area_mm2,
    simulate_cache,
    simulate_hierarchy,
    simulate_scratchpad,
    size_memory_for_program,
)
from repro.layout import line_window_profile, max_line_window
from repro.transform import allocate_window
from repro.window import lifetime_stats, max_total_window, max_window_size


EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""


class TestScratchpad:
    def test_conservation(self):
        prog = parse_program(EX8)
        stats = simulate_scratchpad(prog, capacity=16, array="X")
        assert stats.hits + stats.misses == stats.accesses
        assert stats.accesses == prog.nest.total_iterations * 2

    def test_cold_misses_equal_distinct(self):
        from repro.estimation import exact_distinct_accesses

        prog = parse_program(EX8)
        stats = simulate_scratchpad(prog, capacity=8, array="X")
        assert stats.cold_misses == exact_distinct_accesses(prog, "X")

    def test_mws_capacity_eliminates_capacity_misses(self):
        prog = parse_program(EX8)
        mws = max_window_size(prog, "X")
        stats = simulate_scratchpad(prog, capacity=mws + 1, array="X")
        assert stats.capacity_misses == 0

    def test_small_capacity_thrashes(self):
        prog = parse_program(EX8)
        stats = simulate_scratchpad(prog, capacity=2, array="X")
        assert stats.capacity_misses > 0

    def test_monotone_in_capacity(self):
        prog = parse_program(EX8)
        misses = [
            simulate_scratchpad(prog, capacity=c, array="X").misses
            for c in (1, 4, 16, 64)
        ]
        assert misses == sorted(misses, reverse=True)

    def test_transformed_order_fewer_transfers(self):
        prog = parse_program(
            """
            for i = 1 to 20 {
              for j = 1 to 30 {
                Y[0] = X[2*i - 3*j]
              }
            }
            """
        )
        t = IntMatrix([[2, -3], [1, -1]])
        small = 4
        before = simulate_scratchpad(prog, small, array="X")
        after = simulate_scratchpad(prog, small, array="X", transformation=t)
        assert after.capacity_misses < before.capacity_misses
        assert after.capacity_misses == 0  # MWS 1 fits in any buffer

    def test_writebacks_counted(self):
        prog = parse_program("for i = 1 to 9 { A[i] = A[i] }")
        stats = simulate_scratchpad(prog, capacity=2, array="A")
        assert stats.writebacks == 9  # every written element flushed once

    def test_read_only_no_writebacks(self):
        prog = parse_program("for i = 1 to 9 { B[0] = A[i] }")
        stats = simulate_scratchpad(prog, capacity=2, array="A")
        assert stats.writebacks == 0

    def test_rejects_bad_capacity(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            simulate_scratchpad(prog, capacity=0)

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            simulate_scratchpad(prog, 4, array="Z")

    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_belady_optimality_never_below_cold(self, capacity):
        prog = parse_program(EX8)
        stats = simulate_scratchpad(prog, capacity, array="X")
        assert stats.misses >= stats.cold_misses
        assert stats.hit_rate <= 1.0

    def test_wide_arrays_share_one_trace(self):
        """Regression: each array's packed ids fit int64, but offsetting
        B's past A's passed 2**62, so the whole-program trace refused.
        Dense ids number each array's elements from 0, and the trace
        equals the per-point reference."""
        from repro.check.oracles import (
            _first_occurrence_labels,
            access_stream_reference,
        )
        from repro.memory.scratchpad import access_stream

        program = parse_program(
            f"for i = 1 to 9 {{ A[{2**58}*i] = B[{2**58}*i] }}"
        )
        elements, writes = access_stream(program)
        expected = access_stream_reference(program)
        assert writes.tolist() == [is_write for _, is_write in expected]
        assert _first_occurrence_labels(
            elements.tolist()
        ) == _first_occurrence_labels(element for element, _ in expected)
        assert simulate_scratchpad(program, 4).cold_misses == 18


#: Each memory simulator at capacity 4, and each other reader of the
#: window's lifetime table on the first array, in the order of ``T``.
SIMULATORS = {
    "scratchpad": lambda p, t: simulate_scratchpad(p, 4, transformation=t),
    "hierarchy": lambda p, t: simulate_hierarchy(
        p, MemoryHierarchy("one", (MemoryTier("only", 4, 1.0, 1.0),)),
        transformation=t,
    ),
    "bound": lambda p, t: transfer_lower_bound(p, 4, transformation=t),
    "cache": lambda p, t: simulate_cache(
        p, CacheConfig(total_lines=4, line_size=1, associativity=1),
        transformation=t,
    ),
    "line_window": lambda p, t: max_line_window(
        p, p.arrays[0], transformation=t
    ),
    "line_window_profile": lambda p, t: line_window_profile(
        p, p.arrays[0], transformation=t
    ),
    "allocate_window": lambda p, t: allocate_window(p, p.arrays[0], t),
    "lifetime_stats": lambda p, t: lifetime_stats(p, p.arrays[0], t),
}


class TestRefusals:
    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[1, 0]], "shape does not match nest depth"),
            ([[2, 0], [0, 1]], "unimodular"),
            ([[1, 0], [0, 0]], "unimodular"),
        ],
        ids=["1x2", "det2", "singular"],
    )
    @pytest.mark.parametrize("simulator", sorted(SIMULATORS))
    def test_refuses_what_the_window_engines_refuse(
        self, simulator, rows, message
    ):
        """Regression: the simulators replayed any ``T`` they could sort
        by (the bound reported 69 transfers for all three), while every
        window engine refuses each of these with a ``ValueError``."""
        program = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { "
            "X[2*i + 5*j] = X[2*i + 5*j + 3] } }"
        )
        t = IntMatrix(rows)
        with pytest.raises(ValueError, match=message):
            max_window_size(program, "X", t)
        with pytest.raises(ValueError, match=message):
            SIMULATORS[simulator](program, t)

    @pytest.mark.parametrize("simulator", sorted(SIMULATORS))
    def test_dense_budget_refuses(self, monkeypatch, simulator):
        """The trace and the lifetime table read the dense engine's point
        matrix, so a nest past ``REPRO_DENSE_BUDGET`` gets its ValueError
        instead of a walk."""
        from repro.window.fast import DENSE_BUDGET_ENV, clear_iteration_cache

        monkeypatch.setenv(DENSE_BUDGET_ENV, "100")
        clear_iteration_cache()
        program = parse_program(
            "for i = 1 to 11 { for j = 1 to 11 { A[i][j] = A[i][j] } }"
        )
        with pytest.raises(ValueError, match="budget"):
            SIMULATORS[simulator](program, None)


class TestCostModels:
    def test_energy_monotone(self):
        assert access_energy_pj(4096) > access_energy_pj(64)

    def test_latency_monotone(self):
        assert access_latency_ns(4096) > access_latency_ns(64)

    def test_area_linear(self):
        model = MemoryCostModel()
        assert area_mm2(2048, model) == pytest.approx(2 * area_mm2(1024, model))

    def test_baseline_normalization(self):
        model = MemoryCostModel(base_capacity_words=1024, base_energy_pj=5.0)
        assert model.energy_per_access_pj(1024) == pytest.approx(5.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            access_energy_pj(0)

    def test_total_energy_tradeoff(self):
        # A bigger buffer costs more per access but saves off-chip traffic;
        # the model exposes both terms.
        model = MemoryCostModel()
        small = model.total_energy_pj(64, onchip_accesses=1000, offchip_transfers=500)
        large = model.total_energy_pj(4096, onchip_accesses=1000, offchip_transfers=100)
        assert small != large


class TestSizing:
    def test_sizing_report(self):
        prog = parse_program(EX8, name="ex8")
        report = size_memory_for_program(prog)
        assert report.mws_words == max_total_window(prog)
        assert report.provisioned_words >= report.mws_words
        # Power-of-two provisioning.
        assert report.provisioned_words & (report.provisioned_words - 1) == 0
        assert 0.0 <= report.memory_reduction <= 1.0

    def test_sizing_transformed_improves(self):
        prog = parse_program(EX8, name="ex8")
        t = IntMatrix([[2, 3], [1, 1]])
        before = size_memory_for_program(prog)
        after = size_memory_for_program(prog, t)
        assert after.mws_words < before.mws_words
        assert after.energy_per_access_pj <= before.energy_per_access_pj

    def test_sizing_no_pow2(self):
        prog = parse_program(EX8, name="ex8")
        report = size_memory_for_program(prog, round_pow2=False)
        assert report.provisioned_words == max(1, report.mws_words)
