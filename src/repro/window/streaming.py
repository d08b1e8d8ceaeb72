"""Streaming chunked window engine.

Computes exact MWS without materializing the ``(N, n)`` iteration
matrix: iterations are enumerated in fixed-size blocks decoded straight
from their linear index, each block's accesses are reduced to per-element
``(first, last)`` touch keys, and the block-local results are folded into
a compressed per-array lifetime store.  Peak memory is
``O(chunk + distinct elements)`` instead of ``O(N)``, which lifts the
dense-enumeration budget of :mod:`repro.window.fast` — nests far beyond
``REPRO_DENSE_BUDGET`` iterations stay searchable.

Exactness: like the fast engine's MWS path, time is represented by
*order-isomorphic* integer keys (the linear iteration index in native
order; the mixed-radix packing of ``u = T @ i`` over its exact extents
under a transformation).  First/last-touch comparisons and the final
sorted-boundary peak scan only consume the order of the keys, so the
result equals the reference simulator's — the differential suite pins
all engines equal on randomized programs.

The streaming engine intentionally has no dense-rank fallback: if the
transformed extents cannot pack into int64 it raises rather than
allocating O(N) rank arrays.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.envutil import env_int
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window.batched import _peak_concurrent
from repro.window.fast import _INT64_LIMIT, _affine_extents, _pack_columns
from repro.window.simulator import check_transformation

#: Default iterations decoded per block.  ``repro bench --chunk-sweep``
#: emits one BENCH artifact per candidate size to justify this in-repo;
#: 65536 sits on the flat part of the sweep (big enough to amortize the
#: per-chunk numpy dispatch, small enough to stay cache-resident).
DEFAULT_CHUNK = 65536

#: Environment variable overriding the chunk size.
CHUNK_ENV = "REPRO_STREAM_CHUNK"


def stream_chunk() -> int:
    """Block size used by the streaming engine (env-overridable)."""
    return env_int(CHUNK_ENV, DEFAULT_CHUNK)


def _decode_block(
    start: int,
    stop: int,
    lowers: Sequence[int],
    trips: Sequence[int],
) -> np.ndarray:
    """Iteration vectors for linear indices ``[start, stop)``.

    The linear index is the native execution position, innermost axis
    fastest — the same order ``LoopNest.iterate`` produces.
    """
    n = len(trips)
    linear = np.arange(start, stop, dtype=np.int64)
    coords = np.empty((stop - start, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        trip = np.int64(trips[k])
        coords[:, k] = linear % trip + np.int64(lowers[k])
        linear //= trip
    return coords


class _LifetimeStore:
    """Compressed per-element ``(first, last)`` touch keys.

    Block-local results are appended to a pending list and merged into
    the compressed representation once the pending rows outgrow
    ``max(4 * chunk, compressed rows)`` — amortized O(rows log rows)
    total work while keeping peak memory proportional to the chunk size
    plus the number of distinct elements.
    """

    __slots__ = ("_chunk", "_ids", "_first", "_last", "_pending", "_rows")

    def __init__(self, chunk: int) -> None:
        self._chunk = chunk
        self._ids: np.ndarray | None = None
        self._first: np.ndarray | None = None
        self._last: np.ndarray | None = None
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = 0

    def add(self, ids: np.ndarray, first: np.ndarray, last: np.ndarray) -> None:
        if ids.size == 0:
            return
        self._pending.append((ids, first, last))
        self._rows += ids.shape[0]
        compressed = 0 if self._ids is None else self._ids.shape[0]
        if self._rows > max(4 * self._chunk, compressed):
            self._consolidate()

    def _consolidate(self) -> None:
        if not self._pending:  # nothing new (or nothing at all)
            return
        ids_parts = [p[0] for p in self._pending]
        first_parts = [p[1] for p in self._pending]
        last_parts = [p[2] for p in self._pending]
        if self._ids is not None:
            ids_parts.append(self._ids)
            first_parts.append(self._first)
            last_parts.append(self._last)
        all_ids = np.concatenate(ids_parts)
        all_first = np.concatenate(first_parts)
        all_last = np.concatenate(last_parts)
        unique_ids, inverse = np.unique(all_ids, return_inverse=True)
        first = np.full(unique_ids.shape[0], np.iinfo(np.int64).max, np.int64)
        last = np.full(unique_ids.shape[0], np.iinfo(np.int64).min, np.int64)
        np.minimum.at(first, inverse, all_first)
        np.maximum.at(last, inverse, all_last)
        self._ids, self._first, self._last = unique_ids, first, last
        self._pending = []
        self._rows = 0

    def live_lifetimes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, last)`` keys of elements touched at 2+ distinct times."""
        self._consolidate()
        if self._ids is None:
            empty = np.array([], dtype=np.int64)
            return empty, empty
        live = self._last > self._first
        return self._first[live], self._last[live]


class _StreamPlan:
    """Per-run constants: box geometry, time packing, element packing."""

    __slots__ = ("lowers", "trips", "total", "t_rows", "t_mins", "t_spans")

    def __init__(self, program: Program, transformation: IntMatrix | None):
        nest = program.nest
        self.lowers = nest.lowers
        self.trips = nest.trip_counts
        self.total = math.prod(int(t) for t in self.trips)
        if self.total >= _INT64_LIMIT:
            raise ValueError(
                f"nest has {self.total} iterations; linear indices would "
                f"overflow int64"
            )
        if transformation is None:
            self.t_rows = None
            self.t_mins = self.t_spans = ()
        else:
            check_transformation(transformation, nest.depth)
            rows = transformation.to_lists()
            mins, maxs = _affine_extents(
                rows, [0] * len(rows), nest.lowers, nest.uppers
            )
            spans = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
            if math.prod(spans) >= _INT64_LIMIT:
                raise ValueError(
                    f"transformed time extents {spans} overflow int64 "
                    f"packing; the streaming engine has no dense fallback"
                )
            self.t_rows = np.array(rows, dtype=np.int64)
            self.t_mins, self.t_spans = mins, spans

    def time_keys(self, coords: np.ndarray, start: int) -> np.ndarray:
        if self.t_rows is None:
            return np.arange(start, start + coords.shape[0], dtype=np.int64)
        return _pack_columns(coords @ self.t_rows.T, self.t_mins, self.t_spans)


class _ArrayPlan:
    """Element packing for one array: per-ref matrices + global extents."""

    __slots__ = ("accesses", "offsets", "mins", "spans")

    def __init__(self, program: Program, array: str):
        refs = [ref for ref in program.references if ref.array == array]
        if not refs:
            raise KeyError(array)
        nest = program.nest
        self.accesses = []
        self.offsets = []
        mins: list[int] | None = None
        maxs: list[int] | None = None
        for ref in refs:
            rows = ref.access.to_lists()
            offs = list(ref.offset)
            self.accesses.append(np.array(rows, dtype=np.int64))
            self.offsets.append(np.array(offs, dtype=np.int64))
            lo, hi = _affine_extents(rows, offs, nest.lowers, nest.uppers)
            if mins is None:
                mins, maxs = lo, hi
            else:
                mins = [min(a, b) for a, b in zip(mins, lo)]
                maxs = [max(a, b) for a, b in zip(maxs, hi)]
        spans = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
        if math.prod(spans) >= _INT64_LIMIT:
            raise ValueError(
                f"array {array}: touched bounding box {spans} too large "
                f"for int64 element packing"
            )
        self.mins, self.spans = mins, spans

    def element_keys(self, coords: np.ndarray) -> np.ndarray:
        """Packed element id per access; refs concatenated in order."""
        parts = [
            _pack_columns(coords @ a.T + b, self.mins, self.spans)
            for a, b in zip(self.accesses, self.offsets)
        ]
        return np.concatenate(parts)


def _reduce_block(
    ids: np.ndarray, times: np.ndarray, store: _LifetimeStore
) -> None:
    """Compress one block's accesses to per-element first/last keys."""
    unique_ids, inverse = np.unique(ids, return_inverse=True)
    first = np.full(unique_ids.shape[0], np.iinfo(np.int64).max, np.int64)
    last = np.full(unique_ids.shape[0], np.iinfo(np.int64).min, np.int64)
    np.minimum.at(first, inverse, times)
    np.maximum.at(last, inverse, times)
    store.add(unique_ids, first, last)


def _stream_lifetimes(
    program: Program,
    arrays: Sequence[str],
    transformation: IntMatrix | None,
    chunk: int,
) -> dict[str, _LifetimeStore]:
    plan = _StreamPlan(program, transformation)
    array_plans = {name: _ArrayPlan(program, name) for name in arrays}
    stores = {name: _LifetimeStore(chunk) for name in arrays}
    for start in range(0, plan.total, chunk):
        stop = min(start + chunk, plan.total)
        obs.counter("streaming.chunks")
        coords = _decode_block(start, stop, plan.lowers, plan.trips)
        times = plan.time_keys(coords, start)
        for name in arrays:
            aplan = array_plans[name]
            ids = aplan.element_keys(coords)
            tiled = (
                times
                if len(aplan.accesses) == 1
                else np.concatenate([times] * len(aplan.accesses))
            )
            _reduce_block(ids, tiled, stores[name])
    return stores


def max_window_size_streaming(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    chunk: int | None = None,
) -> int:
    """Exact MWS of one array, computed in O(chunk + distinct) memory."""
    obs.counter("streaming.simulate.calls")
    with obs.span("simulate.streaming", array=array):
        size = chunk if chunk is not None else stream_chunk()
        stores = _stream_lifetimes(program, (array,), transformation, size)
        first, last = stores[array].live_lifetimes()
        return _peak_concurrent(first, last)


def max_total_window_streaming(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
    chunk: int | None = None,
) -> int:
    """Exact total MWS (``max_t sum_X |W_X(t)|``), streamed.

    One pass over the iteration space feeds every array's lifetime
    store; the final peak scan merges all arrays' intervals.
    """
    obs.counter("streaming.simulate.calls")
    with obs.span("simulate.streaming", array="*"):
        names = tuple(arrays) if arrays is not None else program.arrays
        if not names:
            return 0
        size = chunk if chunk is not None else stream_chunk()
        stores = _stream_lifetimes(program, names, transformation, size)
        starts = []
        ends = []
        for name in names:
            first, last = stores[name].live_lifetimes()
            starts.append(first)
            ends.append(last)
        return _peak_concurrent(np.concatenate(starts), np.concatenate(ends))
