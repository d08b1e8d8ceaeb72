"""Streaming window engine: the dense engine's kernel, one block at a time.

Computes exact MWS without materializing the ``(N, n)`` iteration
matrix, so nests far beyond ``REPRO_DENSE_BUDGET`` iterations stay
searchable.  Each block of :data:`CHUNK` native positions runs the steps
of :mod:`repro.window.fast`: enumerate the block's points, pack their
element ids, key their times and reduce each element to its first and
last touch.  The same reduction merges the block results, amortized:
pending rows merge once they outgrow the merged ones, so peak memory is
``O(CHUNK + distinct elements)`` instead of ``O(N)``.  The peak scan is
the batched sweep's :func:`~repro.window.batched._peak_concurrent`.

Time keys are *order-isomorphic* integers: the native position, or the
mixed-radix pack of ``u = T @ i`` under a transformation.  First/last
comparisons and the peak scan read only their order, so the result
equals the reference simulator's.  The streaming engine has no
dense-rank fallback: a pack past int64 raises rather than allocate
``O(N)`` rank arrays.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window import fast
from repro.window.batched import _peak_concurrent
from repro.window.simulator import check_transformation

#: Native positions per block.  On a 2-core x86-64 host, blocks of 4096
#: to 262144 points took 72-261 ms on a 1024x1024 stencil, 424-488 ms on
#: a 1022x1022 Jacobi sweep and 279-345 ms on a 128**3 matmul; 65536
#: (111, 452 and 279 ms) keeps a block's temporaries near 10 MB.
CHUNK = 65536

_Lifetimes = tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge(parts: list[_Lifetimes]) -> _Lifetimes:
    """Fold block results into one ``(id, first, last)`` triple."""
    if len(parts) == 1:
        return parts[0]
    ids, first, last = (np.concatenate(column) for column in zip(*parts))
    return fast._first_last(ids, first, last)


def _stream_lifetimes(
    program: Program,
    arrays: Sequence[str],
    transformation: IntMatrix | None,
) -> list[_Lifetimes]:
    """Per array, every element's ``(id, first, last)`` time keys."""
    nest = program.nest
    lowers, trips = nest.lowers, nest.trip_counts
    total = math.prod(trips)
    if total >= fast._INT64_LIMIT:
        raise ValueError(
            f"nest has {total} iterations; linear indices would overflow "
            f"int64"
        )
    pack = None
    if transformation is not None:
        check_transformation(transformation, nest.depth)
        fused = fast._time_pack(transformation.rows, lowers, nest.uppers)
        if fused is None:
            raise ValueError(
                f"transformation {transformation.rows}: its time keys "
                f"overflow int64 packing; the streaming engine has no "
                f"dense fallback"
            )
        pack = np.array(fused[0], dtype=np.int64), fused[1]
    packers = [fast._element_packer(program, name)[0] for name in arrays]
    # Per array: the merged lifetimes first, then the pending blocks,
    # merged once their rows outgrow the merged ones (amortized).
    parts: list[list[_Lifetimes]] = [[] for _ in arrays]
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        obs.counter("streaming.chunks")
        points = fast._native_points(lowers, trips, start, stop)
        if pack is None:
            times = np.arange(start, stop, dtype=np.int64)
        else:
            times = points @ pack[0] - pack[1]
        for packer, held in zip(packers, parts):
            ids = packer(points)
            keys = np.tile(times, len(ids))
            held.append(fast._first_last(np.concatenate(ids), keys, keys))
            if sum(p[0].shape[0] for p in held[1:]) > held[0][0].shape[0]:
                held[:] = [_merge(held)]
    return [_merge(held) for held in parts]


def max_window_size_streaming(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
) -> int:
    """Exact MWS of one array, computed in O(CHUNK + distinct) memory."""
    obs.counter("streaming.simulate.calls")
    with obs.span("simulate.streaming", array=array):
        ((_, first, last),) = _stream_lifetimes(
            program, (array,), transformation
        )
        return _peak_concurrent(first, last)


def max_total_window_streaming(
    program: Program,
    transformation: IntMatrix | None = None,
    arrays: Sequence[str] | None = None,
) -> int:
    """Exact total MWS (``max_t sum_X |W_X(t)|``), streamed.

    One pass over the iteration space feeds every array's lifetimes;
    the final peak scan merges all arrays' intervals.
    """
    obs.counter("streaming.simulate.calls")
    with obs.span("simulate.streaming", array="*"):
        names = tuple(arrays) if arrays is not None else program.arrays
        if not names:
            return 0
        lifetimes = _stream_lifetimes(program, names, transformation)
        return _peak_concurrent(
            np.concatenate([first for _, first, _ in lifetimes]),
            np.concatenate([last for _, _, last in lifetimes]),
        )
