"""repro - reproduction of Ramanujam, Hong, Kandemir & Narayan,
"Reducing Memory Requirements of Nested Loops for Embedded Systems"
(DAC 2001).

The library estimates the number of distinct array accesses of perfectly
nested affine loops, computes exact and closed-form *maximum window
sizes* (the minimum on-chip data memory that avoids off-chip re-fetches),
and searches legal, tileable unimodular loop transformations that
minimize that window.

Quick start::

    from repro import parse_program, analyze_program, optimize_program

    program = parse_program('''
    for i = 1 to 20 {
      for j = 1 to 30 {
        S1: Y[0] = X[2*i - 3*j]
      }
    }
    ''')
    print(analyze_program(program))        # footprint + exact windows
    result = optimize_program(program)     # MWS 86 -> 1
    print(result.transformation.pretty())

Subpackages: ``linalg`` (exact integer linear algebra), ``ir`` (loop-nest
IR, parser, codegen), ``polyhedral`` (Fourier-Motzkin, lattice counting),
``dependence`` (distance/reuse analysis), ``estimation`` (Section 3),
``window`` (Section 2.3/4 window model), ``transform`` (Section 4 search
and baselines), ``memory`` (scratchpad/energy substrate), ``kernels``
(the Figure-2 suite), ``reporting`` (tables).
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> the subpackage defining it.  Each resolves on
#: first use (PEP 562), so ``import repro`` loads none of them.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.core": "AnalysisReport OptimizationResult analyze_program "
                      "optimize_program full_report",
        "repro.estimation": "estimate_distinct_accesses exact_distinct_accesses "
                            "estimate_program_memory nonuniform_bounds",
        "repro.ir": "ArrayDecl ArrayRef Loop LoopNest NestBuilder Program "
                    "Statement parse_program generate_source "
                    "generate_transformed_source",
        "repro.linalg": "IntMatrix",
        "repro.memory": "simulate_scratchpad size_memory_for_program",
        "repro.window": "max_window_size max_total_window window_profile",
        "repro.transform": "eisenbeis_search li_pingali_transformation "
                           "search_best_transformation",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
