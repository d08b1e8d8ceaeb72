"""Vectorized (numpy) implementation of the window simulator.

Semantically identical to the pure-Python sweep in
:mod:`repro.window.simulator` — the test suite asserts equality on
randomized programs — but orders of magnitude faster, which is what makes
the Figure-2 optimization search (hundreds of candidate transformations
over ~10^5-iteration nests) tractable.

Two layers of caching keep the search hot path cheap:

* iteration/element state is cached per ``Program.signature()`` content
  hash (not per object identity), so structurally equal programs — and in
  particular programs re-pickled into pool workers — share one
  enumeration;
* the MWS path never ranks execution times.  MWS only needs an
  *order-isomorphic* scalar key per iteration: lexicographic order of
  ``u = T @ i`` equals numeric order of the mixed-radix packing of ``u``
  over its per-column extents, so a matmul + packing replaces the old
  ``np.lexsort`` (the former single biggest cost of candidate
  evaluation).  :func:`max_window_size_fast` and
  :func:`max_total_window_fast` are the batched scorer of
  :mod:`repro.window.batched` at K=1.  Dense ranks are still computed
  for the profile paths, which genuinely need 0..N-1 positions.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.envutil import env_int
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window.simulator import check_transformation

#: Dense enumeration materializes an ``(N, n)`` int64 matrix and packs
#: element coordinates into int64 ids; both silently wrap past 2**63.
#: Guard well below that — a nest this large should go to the symbolic
#: estimators or the streaming engine, not the dense simulator.
_INT64_LIMIT = 2**62

#: Environment variable overriding the dense-enumeration budget.
DENSE_BUDGET_ENV = "REPRO_DENSE_BUDGET"

#: Default ceiling on dense enumeration (iterations).  2**26 points keep
#: the ``(N, n)`` matrix and its per-array id arrays within ~2 GiB for
#: typical depths; beyond it ``engine="auto"`` switches to the streaming
#: engine (:mod:`repro.window.streaming`).
DEFAULT_DENSE_BUDGET = 2**26


def dense_budget() -> int:
    """Iteration ceiling for dense enumeration (env-overridable)."""
    return env_int(DENSE_BUDGET_ENV, DEFAULT_DENSE_BUDGET)


class _ElementState(NamedTuple):
    """Per-(program, array) access structure, transformation-invariant.

    ``ids`` are the per-reference packed element ids; ``point_row`` maps
    each access (in element-sorted order) back to its native iteration
    row; ``seg_starts`` delimits the runs of equal elements inside that
    order, so per-candidate lifetimes are two ``reduceat`` calls over a
    gathered time array instead of a unique + scatter per candidate.
    """

    ids: tuple[np.ndarray, ...]
    point_row: np.ndarray
    seg_starts: np.ndarray
    n_elems: int


class _IterState:
    """Everything derivable from the program alone (no transformation)."""

    __slots__ = ("points", "elements", "_points_f64")

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.elements: dict[str, _ElementState] = {}
        self._points_f64: np.ndarray | None = None

    def points_f64(self) -> np.ndarray:
        """float64 copy of ``points``, made on first use.

        Loop index values sit far inside float64's integer range, so the
        cast is exact.  Batches whose screened bounds stay under 2**53
        compute their key matmul on it through BLAS dgemm — every product
        and partial sum an exact float64 integer — instead of numpy's
        much slower loop-based integer matmul.
        """
        if self._points_f64 is None:
            self._points_f64 = self.points.astype(np.float64)
        return self._points_f64


#: ``Program.signature()`` -> iteration/element state.  Signature-keyed
#: (content hash) rather than weakly object-keyed so that structurally
#: equal programs hit — including clones created by pickling programs
#: into pool workers, which an object-identity cache can never serve.
_ITER_STATE: "OrderedDict[str, _IterState]" = OrderedDict()

#: Bounded LRU size; each entry can hold an ``(N, n)`` matrix, so keep
#: only a small working set of distinct programs.
_ITER_STATE_LIMIT = 32


def _iter_state(program: Program) -> _IterState:
    """Cached iteration state for the program (signature-keyed LRU)."""
    key = program.signature()
    state = _ITER_STATE.get(key)
    if state is not None:
        obs.counter("fast.iter_matrix.hits")
        _ITER_STATE.move_to_end(key)
        return state
    obs.counter("fast.iter_matrix.misses")
    lowers = np.array(program.nest.lowers, dtype=np.int64)
    trips = np.array(program.nest.trip_counts, dtype=np.int64)
    n = program.nest.depth
    # math.prod over Python ints cannot wrap, unlike np.prod over int64.
    total = math.prod(int(t) for t in trips)
    budget = min(dense_budget(), _INT64_LIMIT)
    if total > budget:
        raise ValueError(
            f"nest has {total} iterations; dense enumeration exceeds the "
            f"budget of {budget} (use the streaming engine, or raise "
            f"{DENSE_BUDGET_ENV})"
        )
    points = np.empty((total, n), dtype=np.int64)
    repeat = total
    tile = 1
    for k in range(n):
        repeat //= int(trips[k])
        axis = np.repeat(np.arange(trips[k], dtype=np.int64) + lowers[k], repeat)
        points[:, k] = np.tile(axis, tile)
        tile *= int(trips[k])
    state = _IterState(points)
    _ITER_STATE[key] = state
    while len(_ITER_STATE) > _ITER_STATE_LIMIT:
        _ITER_STATE.popitem(last=False)
    return state


def _iteration_matrix(program: Program) -> np.ndarray:
    """All iteration vectors as an ``(N, n)`` int64 array (cached)."""
    return _iter_state(program).points


def clear_iteration_cache() -> None:
    """Drop all cached iteration/element state (tests, memory pressure)."""
    _ITER_STATE.clear()


def spans_fit_int64(spans: Sequence[int]) -> bool:
    """Whether a mixed-radix pack over ``spans`` stays inside int64.

    The packed key for per-column extents ``spans`` ranges over
    ``[0, prod(spans))``; heavily skewed transformations can push that
    product past 2**62, where :func:`_pack_columns` would silently wrap.
    Callers must fall back to ``np.lexsort`` dense ranks (or refuse, for
    element ids) when this returns False.  ``math.prod`` over Python
    ints cannot itself overflow.
    """
    return math.prod(int(s) for s in spans) < _INT64_LIMIT


def _affine_extents(
    rows: Sequence[Sequence[int]],
    offsets: Sequence[int],
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Exact per-row extents of ``rows @ i + offsets`` over the box.

    Interval arithmetic is exact here because each output coordinate is
    affine in ``i`` and the iteration space is a rectangular box.
    """
    mins: list[int] = []
    maxs: list[int] = []
    for row, off in zip(rows, offsets):
        lo = hi = int(off)
        for coeff, lower, upper in zip(row, lowers, uppers):
            c = int(coeff)
            if c >= 0:
                lo += c * lower
                hi += c * upper
            else:
                lo += c * upper
                hi += c * lower
        mins.append(lo)
        maxs.append(hi)
    return mins, maxs


def _pack_columns(
    values: np.ndarray, mins: Sequence[int], spans: Sequence[int]
) -> np.ndarray:
    """Mixed-radix pack of integer columns into one int64 key per row.

    With every column shifted into ``[0, span)``, the packing is a
    bijection from coordinate tuples to integers that preserves
    lexicographic order — the packed keys are order-isomorphic to the
    rows.  Callers must have checked :func:`spans_fit_int64`; the guard
    here is the last line of defense against silent int64 wrap.
    """
    if not spans_fit_int64(spans):
        raise OverflowError(
            f"mixed-radix pack over spans {list(spans)} exceeds int64"
        )
    packed = np.zeros(values.shape[0], dtype=np.int64)
    for dim in range(values.shape[1]):
        packed = packed * np.int64(spans[dim])
        packed += values[:, dim] - np.int64(mins[dim])
    return packed


def transformed_points(
    program: Program, transformation: IntMatrix | None = None
) -> np.ndarray:
    """Every iteration point mapped through ``T``: ``(N, n)`` int64 rows
    in native execution order.

    The rows come from the cached point matrix (so a nest past
    ``REPRO_DENSE_BUDGET`` raises its ``ValueError``) and one int64
    matmul.  ``T`` gets the engines' checks (``n x n`` for a depth-``n``
    nest, then unimodular), and one whose products could pass 2**62
    raises ``ValueError`` rather than wrap.
    """
    points = _iter_state(program).points
    if transformation is None:
        return points
    check_transformation(transformation, program.nest.depth)
    # Any partial sum of a row's dot product, in any summation order, is
    # bounded by the sum of its terms' magnitudes over the box (and,
    # with every bound at least 1, so is each coefficient).
    bounds = [
        max(abs(lo), abs(hi), 1)
        for lo, hi in zip(program.nest.lowers, program.nest.uppers)
    ]
    reach = max(
        sum(abs(c) * b for c, b in zip(row, bounds))
        for row in transformation.rows
    )
    if reach >= _INT64_LIMIT:
        raise ValueError(
            f"transformation {transformation.rows}: transformed coordinates "
            f"reach {reach}, past the int64 screen of 2**62"
        )
    return points @ np.array(transformation.rows, dtype=np.int64).T


def execution_order(
    program: Program, transformation: IntMatrix | None = None
) -> np.ndarray:
    """Native row indices in execution order under ``T``: the
    lexicographic order of :func:`transformed_points`."""
    if transformation is None:
        return np.arange(_iter_state(program).points.shape[0], dtype=np.int64)
    keys = transformed_points(program, transformation)
    # lexsort sorts by last key first; feed columns reversed.
    return np.lexsort(keys.T[::-1])


def _execution_times(
    program: Program, transformation: IntMatrix | None
) -> np.ndarray:
    """``times[p]`` = execution position of iteration ``p`` (native order
    row index) under the given transformation."""
    order = execution_order(program, transformation)
    times = np.empty_like(order)
    times[order] = np.arange(order.shape[0], dtype=np.int64)
    return times


def _element_state(program: Program, array: str) -> _ElementState:
    """Cached per-array access structure (see :class:`_ElementState`)."""
    state = _iter_state(program)
    cached = state.elements.get(array)
    if cached is not None:
        return cached
    refs = [ref for ref in program.references if ref.array == array]
    if not refs:
        raise KeyError(array)
    points = state.points
    total = points.shape[0]
    per_ref = []
    for ref in refs:
        a = np.array(ref.access.to_lists(), dtype=np.int64)
        b = np.array(ref.offset, dtype=np.int64)
        per_ref.append(points @ a.T + b)
    # Pack coordinates using the touched bounding box of all refs.
    stacked = np.concatenate(per_ref, axis=0)
    mins = stacked.min(axis=0)
    maxs = stacked.max(axis=0)
    spans = (maxs - mins + 1).astype(np.int64)
    if not spans_fit_int64(spans):
        raise ValueError(
            f"array {array}: touched bounding box {spans.tolist()} too "
            f"large for int64 element packing"
        )
    ids = tuple(
        _pack_columns(elems, mins.tolist(), spans.tolist()) for elems in per_ref
    )
    all_ids = np.concatenate(ids)
    _, inverse = np.unique(all_ids, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    seg_starts = np.flatnonzero(np.diff(inverse[order], prepend=-1))
    element = _ElementState(
        ids=ids,
        point_row=order % total,
        seg_starts=seg_starts,
        n_elems=int(seg_starts.shape[0]),
    )
    state.elements[array] = element
    return element


def _element_ids(program: Program, array: str) -> list[np.ndarray]:
    """Per-reference element ids, unified across all references to the array.

    Elements are encoded by mixed-radix packing over the touched bounding
    box, so equal elements share one integer id across references.
    """
    return list(_element_state(program, array).ids)


def _lifetimes(
    program: Program, array: str, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, last)`` time keys of each *live* element of the array.

    ``times`` may be any order-isomorphic key array; elements touched at
    a single time are dropped (never in the window).
    """
    element = _element_state(program, array)
    seq = times[element.point_row]
    first = np.minimum.reduceat(seq, element.seg_starts)
    last = np.maximum.reduceat(seq, element.seg_starts)
    live = last > first
    return first[live], last[live]


@obs.profiled("fast.window_deltas")
def window_deltas(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> np.ndarray:
    """+1/-1 event array over execution time for one array's live set.

    Needs dense 0..N-1 execution ranks (the deltas are indexed by time),
    so this is the profile-path workhorse; the plain MWS path runs the
    batched sweep (:mod:`repro.window.batched`) on packed keys instead.
    """
    times = _execution_times(program, transformation)
    total = times.shape[0]
    first, last = _lifetimes(program, array, times)
    deltas = np.zeros(total + 1, dtype=np.int64)
    np.add.at(deltas, first, 1)
    np.add.at(deltas, last, -1)
    return deltas


def liveness_profile_fast(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
):
    """Vectorized liveness profile; semantics defined by
    :func:`repro.window.simulator.liveness_profile` (the test suite pins
    them equal on native and transformed orders)."""
    from repro.window.simulator import LivenessProfile

    times = _execution_times(program, transformation)
    total = times.shape[0]
    ids = _element_ids(program, array)
    all_ids = np.concatenate(ids)
    all_times = np.concatenate([times] * len(ids))
    unique_ids, inverse = np.unique(all_ids, return_inverse=True)
    n_elems = unique_ids.shape[0]
    first = np.full(n_elems, total, dtype=np.int64)
    last = np.full(n_elems, -1, dtype=np.int64)
    np.minimum.at(first, inverse, all_times)
    np.maximum.at(last, inverse, all_times)
    live = last > first
    deltas = np.zeros(total + 1, dtype=np.int64)
    np.add.at(deltas, first[live], 1)
    np.add.at(deltas, last[live], -1)
    occupancy = np.cumsum(deltas[:-1])
    peak = int(occupancy.max(initial=0))
    peak_time = int(np.argmax(occupancy)) if total else -1
    peak_point: tuple[int, ...] | None = None
    if total:
        points = _iteration_matrix(program)
        native_row = int(np.nonzero(times == peak_time)[0][0])
        peak_point = tuple(int(v) for v in points[native_row])
    # Reuse distances: gaps between consecutive accesses to the same
    # element.  Sort accesses by (element, time); equal-element adjacent
    # pairs are exactly the consecutive accesses.
    order = np.lexsort((all_times, inverse))
    sorted_elems = inverse[order]
    sorted_times = all_times[order]
    same_elem = sorted_elems[1:] == sorted_elems[:-1]
    gaps = (sorted_times[1:] - sorted_times[:-1])[same_elem]
    values, counts = np.unique(gaps, return_counts=True)
    reuse_histogram = {int(v): int(c) for v, c in zip(values, counts)}
    return LivenessProfile(
        array=array,
        occupancy=tuple(int(v) for v in occupancy),
        peak=peak,
        peak_time=peak_time,
        peak_point=peak_point,
        reuse_histogram=reuse_histogram,
    )


def max_window_size_fast(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> int:
    """Vectorized exact MWS for one array: the batched scorer at K=1."""
    from repro.window.batched import _score

    return _score(program, [transformation], (array,), array)[0]


def max_total_window_fast(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays=None,
) -> int:
    """Vectorized exact total MWS (``max_t sum_X |W_X(t)|``): the batched
    scorer at K=1 over every involved array."""
    from repro.window.batched import _score

    names = tuple(arrays) if arrays is not None else program.arrays
    return _score(program, [transformation], names, "*")[0]


def window_profile_fast(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> np.ndarray:
    """Vectorized window-size profile over execution time."""
    deltas = window_deltas(program, array, transformation)
    return np.cumsum(deltas[:-1])
