"""Exact reference-window simulation.

The definitional computation of MWS: enumerate every dynamic access in
sequential order (optionally the order induced by a unimodular
transformation), record each element's first and last access iteration,
and sweep a +1/-1 event line to find the peak number of simultaneously
live elements.

Element ``e`` is in the window at iteration ``t`` iff
``first(e) <= t < last(e)`` — it has been referenced and will be
referenced again strictly later (paper Section 2.3).  An element touched
in only one iteration therefore never occupies the window; after the ideal
transformation of Example 7 every element is touched only in consecutive
iterations and the MWS collapses to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix


@dataclass(frozen=True)
class WindowProfile:
    """Window sizes over time for one array (or the whole program)."""

    array: str
    sizes: tuple[int, ...]

    @property
    def max_size(self) -> int:
        return max(self.sizes) if self.sizes else 0

    @property
    def average_size(self) -> float:
        return sum(self.sizes) / len(self.sizes) if self.sizes else 0.0

    def argmax(self) -> int:
        """First iteration time achieving the maximum window."""
        return self.sizes.index(self.max_size)


def check_transformation(transformation: IntMatrix, depth: int) -> None:
    """Refuse a ``T`` no engine can order a depth-``depth`` nest by: one
    that is not ``depth x depth``, then one that is not unimodular."""
    rows, cols = transformation.shape
    if (rows, cols) != (depth, depth):
        raise ValueError(
            f"transformation shape does not match nest depth: it is "
            f"{rows}x{cols}, a depth-{depth} nest needs {depth}x{depth}"
        )
    if transformation.det() not in (1, -1):
        raise ValueError("transformation must be unimodular")


def _iteration_order(
    program: Program, transformation: IntMatrix | None
) -> list[tuple[int, ...]] | None:
    """Iteration vectors in execution order; None means native order.

    A unimodular transformation re-orders iterations to the lexicographic
    order of ``u = T @ i`` — exactly the order the transformed nest's
    generated code executes.
    """
    if transformation is None:
        return None
    check_transformation(transformation, program.nest.depth)
    points = list(program.nest.iterate())
    points.sort(key=transformation.apply)
    return points


@obs.profiled("simulator.element_lifetimes")
def element_lifetimes(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> dict[tuple[int, ...], tuple[int, int]]:
    """Map each touched element to ``(first, last)`` iteration times.

    Times are 0-based positions in the execution order (native or
    transformed).
    """
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    lifetimes: dict[tuple[int, ...], tuple[int, int]] = {}
    iterator = order if order is not None else program.nest.iterate()
    for time, point in enumerate(iterator):
        for ref in refs:
            element = ref.element(point)
            if element in lifetimes:
                lifetimes[element] = (lifetimes[element][0], time)
            else:
                lifetimes[element] = (time, time)
    return lifetimes


@dataclass(frozen=True)
class LivenessProfile:
    """Live-set trajectory of one array under one execution order.

    The quantity the paper's MWS is the maximum of, made visible:
    ``occupancy[t]`` is the window size after iteration ``t`` executes,
    ``peak``/``peak_time``/``peak_point`` locate the maximum window in
    execution time and in the iteration space, and ``reuse_histogram``
    counts the gaps (in iterations of the chosen order) between
    consecutive accesses to the same element — the reuse-distance
    profile that related work (reuse-profile estimation, AutoLALA)
    builds its locality analyses on.
    """

    array: str
    occupancy: tuple[int, ...]
    peak: int
    peak_time: int  # first execution time achieving the peak; -1 if empty
    peak_point: tuple[int, ...] | None  # iteration vector at peak_time
    reuse_histogram: Mapping[int, int]  # access gap -> occurrence count

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy:
            return 0.0
        return sum(self.occupancy) / len(self.occupancy)

    @property
    def reuse_count(self) -> int:
        return sum(self.reuse_histogram.values())


def _access_times(
    program: Program,
    array: str,
    transformation: IntMatrix | None,
) -> dict[tuple[int, ...], list[int]]:
    """Every access time of each touched element, in execution order."""
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    order = _iteration_order(program, transformation)
    iterator = order if order is not None else program.nest.iterate()
    times: dict[tuple[int, ...], list[int]] = {}
    for time, point in enumerate(iterator):
        for ref in refs:
            times.setdefault(ref.element(point), []).append(time)
    return times


def liveness_profile(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> LivenessProfile:
    """Exact liveness profile, pure-Python reference implementation.

    Semantics ground truth for :func:`repro.window.fast.liveness_profile_fast`
    (the test suite pins them equal).
    """
    times = _access_times(program, array, transformation)
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    reuse_histogram: dict[int, int] = {}
    for ts in times.values():
        first, last = ts[0], ts[-1]
        if last > first:
            deltas[first] += 1
            deltas[last] -= 1
        for earlier, later in zip(ts, ts[1:]):
            gap = later - earlier
            reuse_histogram[gap] = reuse_histogram.get(gap, 0) + 1
    occupancy: list[int] = []
    current = 0
    for t in range(total):
        current += deltas[t]
        occupancy.append(current)
    peak = max(occupancy, default=0)
    peak_time = occupancy.index(peak) if occupancy else -1
    peak_point = _point_at_time(program, transformation, peak_time)
    return LivenessProfile(
        array=array,
        occupancy=tuple(occupancy),
        peak=peak,
        peak_time=peak_time,
        peak_point=peak_point,
        reuse_histogram=reuse_histogram,
    )


def _point_at_time(
    program: Program,
    transformation: IntMatrix | None,
    time: int,
) -> tuple[int, ...] | None:
    """Iteration vector executing at position ``time`` of the order."""
    if time < 0:
        return None
    order = _iteration_order(program, transformation)
    if order is not None:
        return order[time]
    for position, point in enumerate(program.nest.iterate()):
        if position == time:
            return point
    return None


def window_profile_reference(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> WindowProfile:
    """Exact window size at every iteration, for one array."""
    lifetimes = element_lifetimes(program, array, transformation)
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    for first, last in lifetimes.values():
        if last > first:
            deltas[first] += 1
            deltas[last] -= 1
    sizes = []
    current = 0
    for t in range(total):
        current += deltas[t]
        sizes.append(current)
    return WindowProfile(array, tuple(sizes))


def max_window_size_reference(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> int:
    """Exact MWS of one array under the given execution order.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> max_window_size_reference(p, "X")
    44
    """
    obs.counter("simulator.reference.calls")
    lifetimes = element_lifetimes(program, array, transformation)
    return _peak_live(lifetimes.values())


def max_total_window_reference(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
) -> int:
    """Exact MWS summed over arrays: ``max_t sum_X |W_X(t)|``.

    This is the paper's multi-array window (Section 2.3) — the minimum
    on-chip data memory for the whole nest.  Note it is the max of the
    sum, not the sum of per-array maxima.
    """
    names = tuple(arrays) if arrays is not None else program.arrays
    total = program.nest.total_iterations
    deltas = [0] * (total + 1)
    for array in names:
        for first, last in element_lifetimes(program, array, transformation).values():
            if last > first:
                deltas[first] += 1
                deltas[last] -= 1
    peak = 0
    current = 0
    for t in range(total):
        current += deltas[t]
        if current > peak:
            peak = current
    return peak


def _peak_live(lifetimes) -> int:
    events: dict[int, int] = {}
    for first, last in lifetimes:
        if last > first:
            events[first] = events.get(first, 0) + 1
            events[last] = events.get(last, 0) - 1
    peak = 0
    current = 0
    for t in sorted(events):
        current += events[t]
        if current > peak:
            peak = current
    return peak


def window_profile(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> WindowProfile:
    """Exact window size at every iteration, from the dense engine's
    :func:`~repro.window.fast.lifetime_table`.

    Semantics defined by :func:`window_profile_reference`; the test
    suite pins them equal.
    """
    from repro.window import fast

    table = fast.lifetime_table(program, array, transformation)
    sizes = fast._occupancy(
        table.first, table.last, program.nest.total_iterations
    )
    return WindowProfile(array, tuple(sizes.tolist()))


#: Engine names accepted by :func:`max_window_size`, :func:`max_total_window`
#: and :func:`repro.window.batched.batched_mws` — the only ``engine=``
#: parameters; every caller above this package gets ``auto``, and only
#: the oracles and tests name another.  All are exact and pinned equal by
#: the differential suite; they differ in cost model: ``reference`` (pure
#: Python, ground truth), ``fast`` (dense numpy, O(N) memory),
#: ``streaming`` (the dense kernel one block at a time, O(block +
#: distinct) memory).  ``auto`` picks ``fast`` while the nest fits the
#: dense budget and ``streaming`` beyond it.  The def-use comparator of
#: :mod:`repro.window.zhao_malik` is exact too, but serves as an
#: independent cross-check called directly, not as an engine.
ENGINES = ("auto", "reference", "fast", "streaming")


def resolve_engine(program: Program, engine: str = "auto") -> str:
    """Resolve ``"auto"`` to a concrete engine for this program.

    ``auto`` chooses the dense numpy engine while the nest's iteration
    count fits ``REPRO_DENSE_BUDGET`` (see
    :func:`repro.window.fast.dense_budget`) and the streaming engine
    beyond it.  Raises ``ValueError`` for unknown engine names.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown window engine {engine!r}; choose one of {ENGINES}"
        )
    if engine != "auto":
        return engine
    from repro.window.fast import dense_budget

    if program.nest.total_iterations <= dense_budget():
        return "fast"
    return "streaming"


def max_window_size(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    engine: str = "auto",
) -> int:
    """Exact MWS of one array under the given execution order.

    ``engine`` selects the implementation (see :data:`ENGINES`); the
    default ``"auto"`` uses the dense numpy engine while the nest fits
    the dense budget and streams beyond it.  Only the oracles and tests
    name another engine.

    >>> from repro.ir import parse_program
    >>> p = parse_program('''
    ... for i = 1 to 25 {
    ...   for j = 1 to 10 {
    ...     X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
    ...   }
    ... }
    ... ''')
    >>> max_window_size(p, "X")
    44
    >>> max_window_size(p, "X", engine="streaming")
    44
    """
    resolved = resolve_engine(program, engine)
    obs.counter(f"engine.{resolved}.calls")
    if resolved == "reference":
        return max_window_size_reference(program, array, transformation)
    if resolved == "streaming":
        from repro.window.streaming import max_window_size_streaming

        return max_window_size_streaming(program, array, transformation)
    from repro.window.fast import max_window_size_fast

    return max_window_size_fast(program, array, transformation)


def max_total_window(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
    engine: str = "auto",
) -> int:
    """Exact MWS summed over arrays: ``max_t sum_X |W_X(t)|``.

    This is the paper's multi-array window (Section 2.3) — the minimum
    on-chip data memory for the whole nest.  Note it is the max of the
    sum, not the sum of per-array maxima.  ``engine`` selects the
    implementation (see :data:`ENGINES`), as for :func:`max_window_size`.
    """
    resolved = resolve_engine(program, engine)
    obs.counter(f"engine.{resolved}.calls")
    if resolved == "reference":
        return max_total_window_reference(program, transformation, arrays)
    if resolved == "streaming":
        from repro.window.streaming import max_total_window_streaming

        return max_total_window_streaming(program, transformation, arrays)
    from repro.window.fast import max_total_window_fast

    return max_total_window_fast(program, transformation, arrays)
