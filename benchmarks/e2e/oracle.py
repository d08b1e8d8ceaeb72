"""Answer oracles: every answer the benchmark receives is checked here.

``expected.json`` holds the fixed answers: the Figure-2 table (a copy of
``tests/fixtures/figure2_golden.json``, kept here so that no later change
to the program's own tests can move the benchmark's oracle), the best
and flat energies of the hierarchy nests from the exhaustive search, and
the result of every serve-warm request computed in-process without a
store (less the fields of :data:`UNCHECKED`).  Regenerate it only when
an answer is meant to change:

    PYTHONPATH=src python benchmarks/e2e/oracle.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import inputs

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Wrong answers whose messages a result keeps (the count is exact).
KEEP_MESSAGES = 20


def load_expected(path: Path = EXPECTED) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def normalize(value: Any) -> Any:
    """The value as JSON carries it: tuples become lists."""
    return json.loads(json.dumps(value))


class Oracle:
    """Counts wrong answers; the first answer per key is the reference
    for every later answer under that key (:meth:`check_repeat`)."""

    def __init__(self) -> None:
        self.wrong = 0
        self.messages: list[str] = []
        self._first: dict[Any, Any] = {}

    def check(self, label: str, got: Any, want: Any) -> bool:
        got = normalize(got)
        if got == normalize(want):
            return True
        self.wrong += 1
        if len(self.messages) < KEEP_MESSAGES:
            self.messages.append(f"{label}: got {got!r}, want {want!r}")
        return False

    def check_repeat(self, key: Any, label: str, got: Any) -> bool:
        first = self._first.setdefault(key, normalize(got))
        return self.check(label, got, first)


def figure2_answer(program, result) -> dict[str, int]:
    return {
        "default": program.default_memory,
        "mws_unopt": result.mws_before,
        "mws_opt": result.mws_after,
    }


def hierarchy_answer(result) -> dict[str, float]:
    return {"best_pj": result.best.energy_pj, "flat_pj": result.flat.energy_pj}


def warm_key(request: dict) -> str:
    return f"{request['kind']}:{request['kernel']}"


#: Answer fields that two correct answers may disagree on: a search may
#: break ties between transformations of equal window differently, or
#: be another algorithm.  The transformation is checked by recomputing
#: its window (:func:`reference_mws`) instead.
UNCHECKED = ("t", "method")


def checked_fields(result: dict) -> dict:
    """The fields of a serve answer that every correct answer shares."""
    return {key: value for key, value in result.items() if key not in UNCHECKED}


def reference_mws(program, t, array: str | None = None) -> int:
    """MWS of ``program`` in the order ``t`` (rows; ``None`` for the
    native order) with the reference engine: of ``array``, or summed over
    every array."""
    from repro.linalg import IntMatrix
    from repro.window.simulator import max_total_window, max_window_size

    order = None if t is None else IntMatrix(tuple(tuple(row) for row in t))
    if array is None:
        return max_total_window(program, order, engine="reference")
    return max_window_size(program, array, order, engine="reference")


def transform_window(key: str, t, want: dict) -> tuple[str, int]:
    """The transformation ``t`` of a serve-warm ``optimize`` or ``search``
    answer under ``key``: (the field of ``want`` its window must equal,
    its window with the reference engine)."""
    from repro.kernels import kernel_by_name

    kind, kernel = key.split(":")
    field = "exact" if kind == "search" else "mws_after"
    program = kernel_by_name(kernel).build()
    return field, reference_mws(program, t, want.get("array"))


def compute_expected() -> dict:
    """Every expected answer, computed from the package on the path.

    ``serve_warm_t`` lists, per key, the transformations whose reference
    window was checked here; a run recomputes only the others."""
    from repro.api import evaluate_kind
    from repro.core.optimizer import optimize_program
    from repro.kernels import kernel_by_name
    from repro.transform import search_hierarchy

    figure2 = {}
    for name in inputs.KERNELS:
        program = kernel_by_name(name).build()
        figure2[name] = figure2_answer(program, optimize_program(program))
    hierarchy = inputs.scaled_hierarchy()
    nests = {
        name: hierarchy_answer(search_hierarchy(program, hierarchy, prune=False))
        for name, program in inputs.hierarchy_programs().items()
    }
    warm, known = {}, {}
    for request in inputs.WARM_REQUESTS:
        key = warm_key(request)
        program = kernel_by_name(request["kernel"]).build()
        result = normalize(evaluate_kind(request["kind"], program, store=None))
        warm[key] = checked_fields(result)
        if "t" in result:
            field, window = transform_window(key, result["t"], warm[key])
            if window != warm[key][field]:
                raise AssertionError(f"{key}: reference window {window} of "
                                     f"t={result['t']} != {field} {warm[key][field]}")
            known[key] = [result["t"]]
    return {"figure2": figure2, "hierarchy": nests, "serve_warm": warm,
            "serve_warm_t": known}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(__doc__)
    EXPECTED.write_text(
        json.dumps(compute_expected(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {EXPECTED}")
