"""Figure 2: the paper's main results table, regenerated.

Seven image/video kernels; columns: default (declared) memory, MWS
before optimization, MWS after, with percentage reductions.  Paper
averages: 81.9% (unoptimized) and 92.3% (optimized).  Absolute MWS
values in the scanned paper are mostly illegible; the surviving
percentages are asserted as shape constraints per kernel and the full
measured-vs-paper comparison lives in EXPERIMENTS.md.
"""

BENCH_NAME = "figure2"

import time

import pytest
from conftest import record

from repro.kernels import KERNELS, kernel_by_name
from repro.reporting import figure2_row, render_table
from repro.transform.search import clear_exact_cache, exact_cache_size


@pytest.mark.parametrize("name", [spec.name for spec in KERNELS])
def test_figure2_kernel_row(benchmark, name):
    spec = kernel_by_name(name)
    row = benchmark.pedantic(figure2_row, args=(spec,), rounds=1, iterations=1)
    record(
        benchmark,
        default=row.default,
        mws_unopt=row.mws_unopt,
        mws_opt=row.mws_opt,
        unopt_reduction=round(row.unopt_reduction, 1),
        opt_reduction=round(row.opt_reduction, 1),
        paper_unopt=spec.paper_unopt_reduction,
        paper_opt=spec.paper_opt_reduction,
    )
    # Shape constraints per kernel:
    # 1. the unoptimized reduction tracks the paper's within a band
    #    (3step_log is the documented substitution outlier),
    tolerance = 20.0 if name == "3step_log" else 4.0
    assert abs(row.unopt_reduction - spec.paper_unopt_reduction) <= tolerance
    # 2. optimization never regresses,
    assert row.mws_opt <= row.mws_unopt
    # 3. matmult is the one kernel transformation cannot help,
    if name == "matmult":
        assert row.mws_opt == row.mws_unopt == 273
    # 4. every other kernel ends at a large optimized reduction.
    if name != "matmult" and name != "sor":
        assert row.opt_reduction >= spec.paper_opt_reduction - 4.0


def test_figure2_full_table(benchmark):
    """Regenerates and prints the complete table with averages."""

    def run():
        rows = [figure2_row(spec) for spec in KERNELS]
        return rows, render_table(rows)

    rows, table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(table)
    avg_unopt = sum(r.unopt_reduction for r in rows) / len(rows)
    avg_opt = sum(r.opt_reduction for r in rows) / len(rows)
    # Paper: "Average Reduction: 81.9% / 92.3%".
    assert abs(avg_unopt - 81.9) <= 5.0
    assert abs(avg_opt - 92.3) <= 5.0
    record(
        benchmark,
        avg_unopt=round(avg_unopt, 1),
        avg_opt=round(avg_opt, 1),
        paper_avg_unopt=81.9,
        paper_avg_opt=92.3,
    )


def test_figure2_serial_and_cache(benchmark):
    """Search-engine modes: cold serial vs memoized.

    A warm exact-simulation cache must reproduce the cold table exactly
    and cut the wall time — the observable contract of the memoized
    search engine.
    """

    def measure():
        start = time.perf_counter()
        rows = [figure2_row(spec) for spec in KERNELS]
        return rows, time.perf_counter() - start

    def run():
        clear_exact_cache()
        serial_rows, serial_s = measure()
        entries = exact_cache_size()
        warm_rows, warm_s = measure()
        return serial_rows, serial_s, warm_rows, warm_s, entries

    serial_rows, serial_s, warm_rows, warm_s, entries = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    assert warm_rows == serial_rows  # byte-identical frozen dataclasses
    assert entries > 0
    # The memoized rerun skips every exact simulation: the wall-time
    # reduction the cache buys on this machine.
    assert warm_s < serial_s
    record(
        benchmark,
        serial_s=round(serial_s, 3),
        warm_s=round(warm_s, 3),
        cache_entries=entries,
        warm_speedup=round(serial_s / warm_s, 1) if warm_s else float("inf"),
    )
