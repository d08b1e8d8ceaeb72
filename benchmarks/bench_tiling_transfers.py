"""Tiling + block transfers: the Section 4.1 motivation, quantified.

Tileability is required "to use block transfers, which are very useful
to minimize the number of off-chip accesses".  This bench sweeps tile
sizes on a tileable stencil: larger tiles amortize transfers (interior
reuse is captured inside the tile) until the double buffer outgrows the
SRAM budget — the provisioning trade `best_tile_for_budget` automates.
"""

BENCH_NAME = "tiling_transfers"

import pytest
from conftest import record

from repro.ir import parse_program
from repro.memory.prefetch import best_tile_for_budget, plan_double_buffering
from repro.transform import is_fully_permutable

STENCIL = """
for i = 1 to 32 {
  for j = 1 to 32 {
    A[i][j] = A[i][j] + A[i-1][j] + A[i][j-1]
  }
}
"""


@pytest.mark.parametrize("size", [2, 4, 8, 16])
def test_transfer_amortization(benchmark, size):
    program = parse_program(STENCIL)
    assert is_fully_permutable(program)
    plan = benchmark.pedantic(
        plan_double_buffering, args=(program, (size, size)),
        rounds=1, iterations=1,
    )
    record(
        benchmark,
        tile=size,
        footprint=plan.tile_footprint_words,
        buffer=plan.buffer_words,
        words_per_iteration=round(plan.words_per_iteration, 3),
    )
    assert plan.words_per_iteration > 0


def test_amortization_is_monotone(benchmark):
    program = parse_program(STENCIL)

    def run():
        return [
            plan_double_buffering(program, (s, s)).words_per_iteration
            for s in (2, 4, 8, 16)
        ]

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    assert curve == sorted(curve, reverse=True)
    record(benchmark, curve=str([round(v, 3) for v in curve]))


@pytest.mark.parametrize("budget", [32, 128, 512])
def test_budgeted_tile_choice(benchmark, budget):
    program = parse_program(STENCIL)
    plan = benchmark.pedantic(
        best_tile_for_budget, args=(program, budget), rounds=1, iterations=1
    )
    assert plan.buffer_words <= budget
    record(
        benchmark,
        budget=budget,
        tile=plan.tile[0],
        buffer=plan.buffer_words,
        words_per_iteration=round(plan.words_per_iteration, 3),
    )


# ----------------------------------------------------------------------
# multi-tier: joint (tile, placement) search vs best flat-buffer tiling
# ----------------------------------------------------------------------
#
# The hierarchy extension of the same Section 4.1 story: with a TCM
# behind the L1 the search may *split* arrays across tiers instead of
# shrinking the tile until everything fits one buffer.  On the three
# checked-in GEMM-family examples (48-point operands straddle the 16KB
# L1 but fit the 128KB TCM) the joint plan must strictly beat the best
# flat plan under the identical cost model.  The search runs with its
# default candidates: every legal signed permutation as well as the
# native order.

from pathlib import Path

from repro.memory import preset
from repro.transform import search_hierarchy

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "hierarchy"


@pytest.mark.parametrize(
    "name", ["gemm48", "correlation48", "attention48"]
)
def test_multitier_beats_flat(benchmark, name):
    program = parse_program(
        (EXAMPLES / f"{name}.loop").read_text(), name=name
    )
    result = benchmark.pedantic(
        search_hierarchy,
        args=(program, preset("tcm")),
        rounds=1, iterations=1,
    )
    assert result.best.energy_pj < result.flat.energy_pj
    assert result.floor_energy_pj <= result.best.energy_pj
    record(
        benchmark,
        joint_energy_pj=result.best.energy_pj,
        flat_energy_pj=result.flat.energy_pj,
        energy_reduction_pct=round(result.savings_pct, 1),
        offchip_words=result.best.offchip_words,
        bound_words=result.bound_words,
        configs=result.configs,
    )


# ----------------------------------------------------------------------
# footprint engine: array code vs the per-point reference
# ----------------------------------------------------------------------

GEMM24 = """
for i = 1 to 24 {
  for j = 1 to 24 {
    for k = 1 to 24 {
      S1: C[i][j] = C[i][j] + A[i][k] * B[k][j]
    }
  }
}
"""


def test_footprints_beat_reference(benchmark):
    """The search's footprints for one order of a 24^3 gemm, from a cold
    point matrix, at least 10x faster than walking the points.  Only the
    ratio is asserted; timings stay out of the recorded metrics."""
    import time

    from repro.check.oracles import tile_footprints_reference
    from repro.transform import tile_candidates, tile_footprints
    from repro.window.fast import clear_iteration_cache

    program = parse_program(GEMM24, name="gemm24")
    tiles = tile_candidates(program)

    def array_code():
        clear_iteration_cache()
        return [tile_footprints(program, tile) for tile in tiles]

    started = time.perf_counter()
    expected = [tile_footprints_reference(program, tile) for tile in tiles]
    reference_s = time.perf_counter() - started
    started = time.perf_counter()
    got = benchmark.pedantic(array_code, rounds=1, iterations=1)
    array_s = time.perf_counter() - started
    assert got == expected
    assert reference_s >= 10 * array_s, (reference_s, array_s)
