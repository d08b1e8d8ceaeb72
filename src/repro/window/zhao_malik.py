"""Zhao-Malik-style def-use liveness — the paper's main comparator.

Zhao & Malik (DAC 2000, "Exact memory size estimation for array
computation without loop unrolling") define the minimum memory via
def-use liveness: an element occupies storage from its (first) definition
to its last use.  The paper's window model differs in two ways:

* read-only (input) arrays: the window counts an element only between
  its first and last *accesses*, while def-use liveness counts an input
  element as live from the program start (it arrives with the data set);
* multiple writes: a def-use element can die and be reborn, which the
  single-interval window over-approximates.

This module computes the def-use minimum exactly (per the same sweep
machinery), so benches can put the two definitions side by side — the
quantitative version of the paper's related-work discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window.simulator import _iteration_order


@dataclass(frozen=True)
class DefUseReport:
    """Peak live storage under def-use semantics, per array and total."""

    per_array: dict
    total_peak: int


def _def_use_intervals(
    program: Program,
    array: str,
    transformation: IntMatrix | None,
) -> list[tuple[int, int]]:
    """Live intervals [birth, death) of each storage occupation.

    A write opens (or renews) an element's interval; reads extend it; an
    element never written (pure input) is live from time 0 through its
    last read.  Successive writes without intervening reads collapse —
    the old value dies at the overwrite.
    """
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    iterator = order if order is not None else program.nest.iterate()

    intervals: list[tuple[int, int]] = []
    open_since: dict[tuple[int, ...], int] = {}
    last_touch: dict[tuple[int, ...], int] = {}
    for time, point in enumerate(iterator):
        for ref in refs:
            element = ref.element(point)
            if ref.is_write:
                if element in open_since:
                    # Previous value dies here (overwritten).
                    intervals.append((open_since[element], last_touch[element]))
                open_since[element] = time
            else:
                if element not in open_since:
                    open_since[element] = 0  # program input: live from start
            last_touch[element] = time
    for element, birth in open_since.items():
        intervals.append((birth, last_touch[element]))
    return intervals


def def_use_occupancy(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> tuple[int, ...]:
    """Def-use-live value count at every iteration of the execution order.

    The def-use analogue of the window occupancy trajectory: how many
    values of ``array`` occupy storage after each iteration executes
    (closed intervals — a value is counted through the iteration of its
    last use).
    """
    intervals = _def_use_intervals(program, array, transformation)
    total = program.nest.total_iterations
    deltas = [0] * (total + 2)
    for birth, death in intervals:
        deltas[birth] += 1
        deltas[death + 1] -= 1
    occupancy = []
    current = 0
    for t in range(total):
        current += deltas[t]
        occupancy.append(current)
    return tuple(occupancy)


def def_use_peak(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> int:
    """Peak simultaneous def-use-live values of one array."""
    intervals = _def_use_intervals(program, array, transformation)
    events: dict[int, int] = {}
    for birth, death in intervals:
        events[birth] = events.get(birth, 0) + 1
        events[death + 1] = events.get(death + 1, 0) - 1
    peak = current = 0
    for t in sorted(events):
        current += events[t]
        peak = max(peak, current)
    return peak


def _first_last_seen(
    program: Program,
    array: str,
    transformation: IntMatrix | None,
) -> tuple[dict, dict]:
    """First and last access time of each touched element of the array."""
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    iterator = order if order is not None else program.nest.iterate()
    first_seen: dict[tuple[int, ...], int] = {}
    last_seen: dict[tuple[int, ...], int] = {}
    for time, point in enumerate(iterator):
        for ref in refs:
            element = ref.element(point)
            if element not in first_seen:
                first_seen[element] = time
            last_seen[element] = time
    return first_seen, last_seen


def _window_intervals(first_seen: dict, last_seen: dict) -> tuple[list, list]:
    """Sorted half-open window interval bounds ``[first, last)``; elements
    touched at only one time never occupy the window and are dropped."""
    starts = sorted(
        first_seen[e] for e in first_seen if last_seen[e] > first_seen[e]
    )
    ends = sorted(
        last_seen[e] for e in first_seen if last_seen[e] > first_seen[e]
    )
    return starts, ends


def _two_pointer_peak(starts: list, ends: list) -> int:
    """Peak concurrent half-open intervals via the classic merge scan."""
    peak = current = 0
    i = j = 0
    while i < len(starts):
        if starts[i] < ends[j]:
            current += 1
            if current > peak:
                peak = current
            i += 1
        else:
            current -= 1
            j += 1
    return peak


def max_window_size_zhao_malik(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> int:
    """Third, independent MWS computation for differential testing.

    Uses the paper's *window* semantics (an element is live from its
    first access to just before its last — inputs are **not** live from
    program start, unlike :func:`def_use_peak`) but a different
    algorithm from both :mod:`repro.window.simulator` (event-dict sweep)
    and :mod:`repro.window.fast` (vectorized scatter): the classic
    two-pointer merge over independently sorted interval starts and
    ends.  Windows are half-open ``[first, last)``.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> max_window_size_zhao_malik(p, "X")
    44
    """
    first_seen, last_seen = _first_last_seen(program, array, transformation)
    starts, ends = _window_intervals(first_seen, last_seen)
    return _two_pointer_peak(starts, ends)


def max_total_window_zhao_malik(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays=None,
) -> int:
    """Exact total MWS (``max_t sum_X |W_X(t)|``) via the two-pointer scan.

    Window semantics (not def-use): all arrays' half-open intervals are
    merged into one sorted-boundary sweep, matching
    :func:`repro.window.simulator.max_total_window_reference` — the
    differential suite pins them equal.
    """
    names = tuple(arrays) if arrays is not None else program.arrays
    starts: list[int] = []
    ends: list[int] = []
    for array in names:
        first_seen, last_seen = _first_last_seen(program, array, transformation)
        array_starts, array_ends = _window_intervals(first_seen, last_seen)
        starts.extend(array_starts)
        ends.extend(array_ends)
    starts.sort()
    ends.sort()
    return _two_pointer_peak(starts, ends)


def zhao_malik_report(
    program: Program,
    transformation: IntMatrix | None = None,
) -> DefUseReport:
    """Def-use minimum memory for every array plus the total peak."""
    per_array = {
        array: def_use_peak(program, array, transformation)
        for array in program.arrays
    }
    # Total: merge all arrays' intervals into one sweep.
    events: dict[int, int] = {}
    for array in program.arrays:
        for birth, death in _def_use_intervals(program, array, transformation):
            events[birth] = events.get(birth, 0) + 1
            events[death + 1] = events.get(death + 1, 0) - 1
    peak = current = 0
    for t in sorted(events):
        current += events[t]
        peak = max(peak, current)
    return DefUseReport(per_array, peak)
