"""Figure-2 table generation.

One row per kernel: declared (default) memory, MWS before and after
optimization, percentage reductions — exactly the columns of the paper's
Figure 2 — plus the surviving paper values for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.kernels.suite import KernelSpec


@dataclass(frozen=True)
class Figure2Row:
    """One measured row of the Figure-2 table."""

    name: str
    default: int
    mws_unopt: int
    mws_opt: int
    paper_unopt_reduction: float
    paper_opt_reduction: float

    @property
    def unopt_reduction(self) -> float:
        """Percent reduction of MWS_unopt vs. default."""
        return 100.0 * (1.0 - self.mws_unopt / self.default)

    @property
    def opt_reduction(self) -> float:
        return 100.0 * (1.0 - self.mws_opt / self.default)


def figure2_row(spec: KernelSpec, store=None) -> Figure2Row:
    """One kernel's table row, from the api's ``optimize`` answer (read
    from ``store`` when it holds the record)."""
    from repro.api import evaluate_kind

    program = spec.build()
    answer = evaluate_kind("optimize", program, store=store)
    return Figure2Row(
        name=spec.name,
        default=program.default_memory,
        mws_unopt=answer["mws_before"],
        mws_opt=answer["mws_after"],
        paper_unopt_reduction=spec.paper_unopt_reduction,
        paper_opt_reduction=spec.paper_opt_reduction,
    )


def figure2_table(
    specs: Iterable[KernelSpec], store=None
) -> list[Figure2Row]:
    """Measured rows for a collection of kernels."""
    return [figure2_row(spec, store=store) for spec in specs]


def render_table(rows: Sequence[Figure2Row]) -> str:
    """Render rows in the paper's layout, paper percentages alongside.

    The ``Average Reduction`` footer mirrors the paper's (mean of the
    per-kernel percentage reductions).
    """
    header = (
        f"{'code':<12} {'default':>8} {'MWS unopt':>10} {'(red%)':>8} "
        f"{'paper%':>7} {'MWS opt':>8} {'(red%)':>8} {'paper%':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<12} {row.default:>8} {row.mws_unopt:>10} "
            f"{row.unopt_reduction:>7.1f}% {row.paper_unopt_reduction:>6.1f}% "
            f"{row.mws_opt:>8} {row.opt_reduction:>7.1f}% "
            f"{row.paper_opt_reduction:>6.1f}%"
        )
    if rows:
        avg_unopt = sum(r.unopt_reduction for r in rows) / len(rows)
        avg_opt = sum(r.opt_reduction for r in rows) / len(rows)
        paper_unopt = sum(r.paper_unopt_reduction for r in rows) / len(rows)
        paper_opt = sum(r.paper_opt_reduction for r in rows) / len(rows)
        lines.append("-" * len(header))
        lines.append(
            f"{'Average':<12} {'':>8} {'':>10} {avg_unopt:>7.1f}% "
            f"{paper_unopt:>6.1f}% {'':>8} {avg_opt:>7.1f}% {paper_opt:>6.1f}%"
        )
    return "\n".join(lines)


def render_hierarchy_table(stats) -> str:
    """Per-tier traffic/energy table for one hierarchy simulation.

    One row per tier of a :class:`repro.memory.hierarchy.HierarchyStats`
    — lookups, hits, hit rate, and the fetch/writeback traffic on the
    boundary below — plus an off-chip footer row carrying the backing
    bus traffic.  Deterministic output: the CI smoke job diffs two runs.
    """
    header = (
        f"{'tier':<8} {'capacity':>9} {'lookups':>9} {'hits':>9} "
        f"{'hit%':>6} {'fetches':>9} {'writebacks':>11}"
    )
    lines = [header, "-" * len(header)]
    for tier in stats.tiers:
        rate = 100.0 * tier.hits / tier.lookups if tier.lookups else 0.0
        lines.append(
            f"{tier.name:<8} {tier.capacity_words:>9} {tier.lookups:>9} "
            f"{tier.hits:>9} {rate:>5.1f}% {tier.fetches_below:>9} "
            f"{tier.writebacks_below:>11}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'offchip':<8} {'':>9} {'':>9} {'':>9} {'':>6} "
        f"{stats.offchip_fetches:>9} {stats.offchip_writebacks:>11}"
    )
    lines.append(
        f"energy {stats.energy_pj:.1f} pJ   latency {stats.latency_ns:.1f} ns"
        f"   offchip transfers {stats.offchip_transfers}"
    )
    return "\n".join(lines)
