"""Batched candidate scoring vs the per-candidate engine (ISSUE 8).

The search's hot loop scores hundreds of candidate transformations of
one program.  ``window.batched.batched_mws`` folds each candidate's
mixed-radix pack into one weight vector, computes every candidate's time
keys with a single integer matmul and runs one vectorized first/last-touch
sweep over all of them — the per-candidate path (the same scorer at K=1)
pays K separate matmuls, sweeps and Python round trips for the same
answers.

The CI gate pins the ratios via
benchmarks/baselines/BENCH_batched_scoring.json: ``speedup`` metrics are
higher-is-better, so a drop past the threshold fails ``repro
bench-compare``.  The in-bench assertions enforce the same floors
directly.
"""

BENCH_NAME = "batched_scoring"

import timeit

from conftest import record

from repro.ir import parse_program
from repro.kernels import kernel_by_name
from repro.linalg import IntMatrix
from repro.transform.elementary import (
    bounded_unimodular_matrices,
    signed_permutations,
)
from repro.window import max_window_size
from repro.window.batched import batched_mws

EXAMPLE_8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""


def _legal_pool(candidates):
    return [t for t in candidates if t.det() in (1, -1)]


def _compare(program, array, candidates, rounds=5, number=3):
    """Best-of wall seconds for per-candidate vs batched scoring.

    Both paths share the memoized iteration/element state (it is
    transformation-invariant), so the measured difference is scoring
    cost alone — exactly what the search's cascade pays per window.
    The rounds interleave the two sides so clock-frequency drift hits
    both alike instead of biasing whichever ran second.
    """

    def per_candidate():
        return [
            max_window_size(program, array, t, engine="fast")
            for t in candidates
        ]

    def batched():
        return batched_mws(program, candidates, array=array, engine="fast")

    assert per_candidate() == batched()  # warm caches + pin parity
    serial_s = batch_s = float("inf")
    for _ in range(rounds):
        serial_s = min(serial_s, timeit.timeit(per_candidate, number=number) / number)
        batch_s = min(batch_s, timeit.timeit(batched, number=number) / number)
    return serial_s, batch_s


def test_example8_batched_speedup(benchmark):
    """Example 8-shaped work: the full bounded-unimodular candidate pool
    of the 2-D search, scored per-candidate vs as one batch."""
    program = parse_program(EXAMPLE_8)
    candidates = _legal_pool(bounded_unimodular_matrices(2, 2))

    serial_s, batch_s = benchmark.pedantic(
        lambda: _compare(program, "X", candidates), rounds=1, iterations=1
    )
    speedup = serial_s / batch_s
    assert speedup >= 5.0, (
        f"batched scoring {speedup:.1f}x below the 5x floor "
        f"({len(candidates)} candidates)"
    )
    record(
        benchmark,
        speedup=round(speedup, 2),
        candidates=len(candidates),
        per_candidate_wall=round(serial_s, 6),
        batched_wall=round(batch_s, 6),
    )


def test_full_search_batched_speedup(benchmark):
    """Figure-2 full_search-shaped work: a cascade-window-sized batch on
    the suite's largest nest, where the sweep itself dominates."""
    spec = kernel_by_name("full_search")
    program = spec.build()
    array = sorted({r.array for r in program.references})[0]
    pool = list(signed_permutations(program.nest.depth))
    candidates = (pool * 3)[:16]  # one cascade survivor window

    serial_s, batch_s = benchmark.pedantic(
        lambda: _compare(program, array, candidates), rounds=1, iterations=1
    )
    speedup = serial_s / batch_s
    assert speedup >= 1.2, (
        f"batched scoring {speedup:.2f}x on sweep-bound work "
        f"(must at least not regress)"
    )
    record(
        benchmark,
        speedup=round(speedup, 2),
        candidates=len(candidates),
        per_candidate_wall=round(serial_s, 6),
        batched_wall=round(batch_s, 6),
    )

