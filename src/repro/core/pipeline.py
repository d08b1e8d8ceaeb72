"""Analysis pipeline: one call from program to full memory report."""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.optimizer import OptimizationResult, optimize_program
from repro.estimation.memory import ProgramMemoryReport, estimate_program_memory
from repro.ir.program import Program
from repro.memory.sizing import SizingReport, size_memory_for_program


@dataclass(frozen=True)
class AnalysisReport:
    """Static analysis of a program: footprints and windows, no transform."""

    program: str
    default_memory: int
    footprint: ProgramMemoryReport
    mws_per_array: dict
    mws_total: int

    def __str__(self) -> str:
        return format_analysis({
            "program": self.program,
            "default_memory": self.default_memory,
            "footprint": self.footprint.footprint_total,
            "mws": self.mws_per_array,
            "mws_total": self.mws_total,
        })


def format_analysis(answer) -> str:
    """The ``repro analyze`` report of an api ``analyze`` answer."""
    lines = [
        f"== {answer['program']} ==",
        f"declared (default) memory : {answer['default_memory']}",
        f"distinct-access footprint : {answer['footprint']}",
        f"max window size (total)   : {answer['mws_total']}",
    ]
    for array, mws in answer["mws"].items():
        lines.append(f"  window[{array}] = {mws}")
    return "\n".join(lines)


def analyze_program(program: Program) -> AnalysisReport:
    """Estimate footprints and measure exact windows for every array.

    Windows are scored through
    :func:`repro.transform.search.evaluate_exact` (memoized in this
    process): the dense engine while the nest fits
    ``REPRO_DENSE_BUDGET``, streamed block by block past it.  The api's
    ``analyze`` answer (:func:`repro.api.evaluate_kind`) is what a store
    keeps across processes.
    """
    from repro.transform.search import evaluate_exact

    obs.runctx.note_input(program.name, program.signature())
    with obs.span("pipeline.analyze", program=program.name):
        footprint = estimate_program_memory(program)
        per_array = {
            array: evaluate_exact(program, [None], array=array)[0]
            for array in program.arrays
        }
        return AnalysisReport(
            program=program.name,
            default_memory=program.default_memory,
            footprint=footprint,
            mws_per_array=per_array,
            mws_total=evaluate_exact(program, [None])[0],
        )


@dataclass(frozen=True)
class FullReport:
    """Analysis + optimization + provisioning in one object."""

    analysis: AnalysisReport
    optimization: OptimizationResult
    sizing_before: SizingReport
    sizing_after: SizingReport

    @property
    def figure2_row(self) -> tuple[str, int, int, int]:
        """(name, default, MWS_unopt, MWS_opt) — a row of the paper's table."""
        return (
            self.analysis.program,
            self.analysis.default_memory,
            self.optimization.mws_before,
            self.optimization.mws_after,
        )


def full_report(program: Program) -> FullReport:
    """Run the whole paper pipeline on one program."""
    obs.runctx.note_input(program.name, program.signature())
    with obs.span("pipeline.full_report", program=program.name):
        analysis = analyze_program(program)
        optimization = optimize_program(program)
        sizing_before = size_memory_for_program(program)
        sizing_after = size_memory_for_program(
            program, optimization.transformation
        )
    return FullReport(analysis, optimization, sizing_before, sizing_after)
