"""Vectorized (numpy) implementation of the window simulator.

Semantically identical to the pure-Python sweep in
:mod:`repro.window.simulator` — the test suite asserts equality on
randomized programs — but orders of magnitude faster, which is what makes
the Figure-2 optimization search (hundreds of candidate transformations
over ~10^5-iteration nests) tractable.

The window kernel's steps live here once, and both exact engines run
them, the dense engine on the whole box and :mod:`repro.window.streaming`
one block at a time: :func:`_native_points` enumerates,
:func:`_element_packer` packs exact int64 element ids, :func:`_runs` and
:func:`_first_last` reduce them to first/last touches, and
:func:`_time_pack` folds the mixed-radix pack of ``u = T @ i`` (an
*order-isomorphic* time key, so MWS needs no ``np.lexsort``) into one
weight vector.

The dense state is cached per ``Program.signature()`` content hash, so
structurally equal programs (pickled clones in pool workers included)
share one enumeration.  :func:`max_window_size_fast` and
:func:`max_total_window_fast` are the batched scorer of
:mod:`repro.window.batched` at K=1; :func:`lifetime_table` is the
per-element first/last table every other window reader builds on.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.envutil import env_int
from repro.ir.array import ArrayDecl
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window.simulator import check_transformation

if TYPE_CHECKING:
    from repro.layout.layouts import Layout

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

    ``ids`` are the per-reference dense element ids ``0..E-1``, in the
    order of ``packed``, the ``E`` sorted ids of :func:`_element_packer`;
    ``point_row`` maps each access (in element-sorted order) back to its
    native iteration row; ``seg_starts`` delimits the runs of equal
    elements inside that order, so per-candidate lifetimes are two
    ``reduceat`` calls over a gathered time array instead of a unique +
    scatter per candidate.
    """

    ids: tuple[np.ndarray, ...]
    point_row: np.ndarray
    seg_starts: np.ndarray
    packed: np.ndarray


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
    trips = program.nest.trip_counts
    # math.prod over Python ints cannot wrap, unlike np.prod over int64.
    total = math.prod(trips)
    budget = min(dense_budget(), _INT64_LIMIT)
    if total > budget:
        way_out = (
            f"; set {DENSE_BUDGET_ENV} to at least {total} to enumerate it"
            if total <= _INT64_LIMIT
            else ""
        )
        raise ValueError(
            f"nest has {total} iterations, past the dense-enumeration "
            f"budget of {budget}{way_out}"
        )
    state = _IterState(_native_points(program.nest.lowers, trips, 0, total))
    _ITER_STATE[key] = state
    while len(_ITER_STATE) > _ITER_STATE_LIMIT:
        _ITER_STATE.popitem(last=False)
    return state


def _native_points(
    lowers: Sequence[int], trips: Sequence[int], start: int, stop: int
) -> np.ndarray:
    """The iteration points at native positions ``[start, stop)``, as an
    ``(stop - start, n)`` int64 array in ``LoopNest.iterate`` order
    (innermost axis fastest).

    Axis ``k`` holds ``(p // stride) % trip + lower`` at position ``p``,
    constant over runs of ``stride`` (the product of the inner trips)
    positions, so each column is its runs' values repeated by the runs'
    lengths inside ``[start, stop)``.
    """
    points = np.empty((stop - start, len(trips)), dtype=np.int64)
    stride = 1
    for k in range(len(trips) - 1, -1, -1):
        first, last = start // stride, (stop - 1) // stride
        axis = np.arange(first, last + 1, dtype=np.int64) % trips[k]
        axis += lowers[k]
        if stride > 1:
            counts = np.full(axis.shape[0], stride, dtype=np.int64)
            counts[0] -= start - first * stride
            counts[-1] -= (last + 1) * stride - stop
            axis = np.repeat(axis, counts)
        points[:, k] = axis
        stride *= trips[k]
    return points


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


def _element_packer(program: Program, array: str) -> tuple[
    Callable[[np.ndarray], tuple[np.ndarray, ...]], list[int], list[int]
]:
    """Exact int64 element ids of ``array``: a function from ``(m, n)``
    points to one id array per reference, in reference order, and the
    touched box ``(mins, spans)`` the ids pack over.

    An id is the mixed-radix pack of the element's coordinates over the
    array's touched box, taken from exact Python-int extents
    (:func:`_affine_extents`), so equal elements share one id across
    references.  Each reference's offset folds into the box corner, which
    leaves ``points @ A.T`` and the pack as the int64 work.  Every value
    that work produces (the matmul's partial sums, the corners, the ids)
    is bounded here with exact integers first; past int64 this raises
    ``ValueError`` naming the array (``KeyError`` for an unknown array).
    """
    refs = program.refs_to(array)
    if not refs:
        raise KeyError(array)
    lowers, uppers = program.nest.lowers, program.nest.uppers
    accesses = [ref.access.to_lists() for ref in refs]
    los, his = zip(*(
        _affine_extents(rows, ref.offset, lowers, uppers)
        for rows, ref in zip(accesses, refs)
    ))
    mins = [min(col) for col in zip(*los)]
    spans = [max(col) - lo + 1 for lo, col in zip(mins, zip(*his))]
    if not spans_fit_int64(spans):
        raise ValueError(
            f"array {array}: touched bounding box {spans} too large for "
            f"int64 element packing"
        )
    maps = []
    for rows, ref in zip(accesses, refs):
        corner = [m - b for m, b in zip(mins, ref.offset)]
        reach = max(abs(v) for v in corner + [c for row in rows for c in row])
        for row in rows:
            # A partial sum of ``row . i``, in any summation order, adds
            # a subset of the row's terms: it lies between the sum of
            # their negative minima and the sum of their positive maxima.
            terms = [
                (c * lo, c * hi) for c, lo, hi in zip(row, lowers, uppers)
            ]
            reach = max(
                reach,
                sum(max(a, b, 0) for a, b in terms),
                -sum(min(a, b, 0) for a, b in terms),
            )
        if reach >= 2**63:
            raise ValueError(
                f"array {array}: element coordinates reach {reach}, past "
                f"int64"
            )
        maps.append((np.array(rows, dtype=np.int64).T, corner))

    def pack(points: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(
            _pack_columns(points @ access, corner, spans)
            for access, corner in maps
        )

    return pack, mins, spans


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first/last-touch reduction's layout: one stable argsort of
    ``ids`` and the start of each run of equal ids in that order.

    ``np.minimum/maximum.reduceat`` at the starts, over any per-access
    array gathered through the order, reduce it to one value per id.
    """
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    head = np.empty(ordered.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return order, np.flatnonzero(head)


def _first_last(
    ids: np.ndarray, first: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct id, ascending, with the min of its ``first`` and
    the max of its ``last`` values, reduced over :func:`_runs`."""
    order, starts = _runs(ids)
    return (
        ids[order[starts]],
        np.minimum.reduceat(first[order], starts),
        np.maximum.reduceat(last[order], starts),
    )


def _time_pack(
    rows: Sequence[Sequence[int]],
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> tuple[list[int], int] | None:
    """The mixed-radix pack of ``u = T @ i`` over its exact extents as
    one weight vector: ``(w, c)`` with key ``i . w - c``, or ``None``
    when a value of it could pass 2**62.

    With ``wd[d] = prod(spans[d+1:])`` the pack
    ``sum_d (u_d - min_d) * wd[d]`` is linear in ``i``: ``w = T^T wd``
    and ``c = sum_d min_d * wd[d]``.  Python ints keep the bounds exact:
    the spans' product, every partial sum of ``i . w`` (whatever order a
    matmul accumulates in), each weight (a zero-width loop zeroes its
    reach term but not its weight) and ``c``.
    """
    mins, maxs = _affine_extents(rows, [0] * len(rows), lowers, uppers)
    spans = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
    if not spans_fit_int64(spans):
        return None
    wdims = [math.prod(spans[d + 1 :]) for d in range(len(spans))]
    weights = [
        sum(row[j] * wd for row, wd in zip(rows, wdims))
        for j in range(len(rows))
    ]
    offset = sum(m * wd for m, wd in zip(mins, wdims))
    reach = sum(
        max(abs(w * lo), abs(w * hi))
        for w, lo, hi in zip(weights, lowers, uppers)
    )
    if max(reach, abs(offset), *map(abs, weights)) >= _INT64_LIMIT:
        return None
    return weights, offset


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
    flat = np.concatenate(_element_packer(program, array)[0](state.points))
    order, seg_starts = _runs(flat)
    packed = flat[order[seg_starts]]
    # Dense ids: each access's run number, scattered back to access order.
    run = np.zeros(flat.shape[0], dtype=np.int64)
    run[seg_starts[1:]] = 1
    np.cumsum(run, out=run)
    flat[order] = run
    element = _ElementState(
        ids=tuple(flat.reshape(-1, state.points.shape[0])),
        point_row=order % state.points.shape[0],
        seg_starts=seg_starts,
        packed=packed,
    )
    state.elements[array] = element
    return element


def _occupancy(first: np.ndarray, last: np.ndarray, total: int) -> np.ndarray:
    """Live count after each of ``total`` execution positions: the running
    sum of +1 at each ``[first, last)`` interval's start and -1 at its end."""
    live = last > first
    return np.cumsum(
        np.bincount(first[live], minlength=total)
        - np.bincount(last[live], minlength=total)
    )


class LifetimeTable(NamedTuple):
    """Every touched element of one array, in dense element-id order: its
    coordinates (``corner`` plus its row of ``offsets``) and its first and
    last execution positions."""

    corner: tuple[int, ...]
    offsets: np.ndarray
    first: np.ndarray
    last: np.ndarray

    def addresses(
        self, layout: Layout, decl: ArrayDecl, base: int = 0
    ) -> np.ndarray:
        """Each element's ``base + layout.address(decl, coordinates)`` as
        int64: one call per element, so the layout's own checks hold (an
        element outside ``decl`` raises ``IndexError``)."""
        corner = self.corner
        elements = (
            tuple(map(operator.add, row, corner))
            for row in self.offsets.tolist()
        )
        try:
            return np.fromiter(
                (base + layout.address(decl, e) for e in elements),
                dtype=np.int64,
                count=self.offsets.shape[0],
            )
        except OverflowError:
            raise ValueError(
                f"array {decl.name}: addresses pass int64"
            ) from None


def lifetime_table(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> LifetimeTable:
    """The paper's per-element table (Section 2.3) under ``T``, from the
    cached element state: packed ids decode through the packer's box.
    ``T`` gets the engines' checks; a nest past ``REPRO_DENSE_BUDGET``
    raises ``ValueError``, an unknown array ``KeyError``."""
    element = _element_state(program, array)
    seq = _execution_times(program, transformation)[element.point_row]
    _, mins, spans = _element_packer(program, array)
    return LifetimeTable(
        tuple(mins),
        np.stack(np.unravel_index(element.packed, spans), axis=1),
        np.minimum.reduceat(seq, element.seg_starts),
        np.maximum.reduceat(seq, element.seg_starts),
    )


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
    element = _element_state(program, array)
    seq = times[element.point_row]
    occupancy = _occupancy(
        np.minimum.reduceat(seq, element.seg_starts),
        np.maximum.reduceat(seq, element.seg_starts),
        total,
    )
    peak = int(occupancy.max(initial=0))
    peak_time = int(np.argmax(occupancy)) if total else -1
    peak_point: tuple[int, ...] | None = None
    if total:
        points = _iteration_matrix(program)
        native_row = int(np.nonzero(times == peak_time)[0][0])
        peak_point = tuple(int(v) for v in points[native_row])
    # Reuse distances: gaps between consecutive accesses to the same
    # element.  Sorting each element's run of accesses by time makes the
    # consecutive accesses adjacent.
    run = np.zeros(seq.shape[0], dtype=np.int64)
    run[element.seg_starts[1:]] = 1
    np.cumsum(run, out=run)
    by_time = seq[np.lexsort((seq, run))]
    gaps = np.diff(by_time)[run[1:] == run[:-1]]
    values, counts = np.unique(gaps, return_counts=True)
    reuse_histogram = {int(v): int(c) for v, c in zip(values, counts)}
    return LivenessProfile(
        array=array,
        occupancy=tuple(occupancy.tolist()),
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

