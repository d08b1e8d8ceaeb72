"""Legality and tileability of unimodular transformations.

A transformation ``T`` is *legal* when every order-constraining dependence
distance ``d`` stays lexicographically positive after transformation
(``T @ d`` lex-positive) — the transformed nest then executes sources
before sinks.  It is *tileable* (paper Section 4, after Irigoin & Triolet)
when ``T @ d >= 0`` componentwise — every loop of the transformed nest
carries all dependences forward, so rectangular blocks of iterations can
execute atomically.  Tileability implies legality for nonzero distances.

:func:`screen_stack` answers both questions, and the reuse levels the
3-D search ranks by, for a whole stack of candidate matrices at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.dependence.analysis import array_distance_vectors, ordering_vectors
from repro.dependence.distance import is_lex_positive
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.transform.elementary import as_matrices


def transformed_distances(
    transformation: IntMatrix, distances: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Apply ``T`` to each distance vector (``T @ d``)."""
    return [transformation.apply(d) for d in distances]


def is_legal(
    transformation: IntMatrix, distances: Iterable[Sequence[int]]
) -> bool:
    """All transformed distances lexicographically positive.

    >>> is_legal(IntMatrix([[0, 1], [1, 0]]), [(1, 0)])
    True
    >>> is_legal(IntMatrix([[1, 0], [0, -1]]), [(0, 1)])
    False
    """
    return all(
        is_lex_positive(transformation.apply(d)) for d in distances
    )


def is_tileable(
    transformation: IntMatrix, distances: Iterable[Sequence[int]]
) -> bool:
    """All transformed distance components non-negative (``T d >= 0``).

    >>> is_tileable(IntMatrix([[2, 3], [1, 1]]), [(3, -2), (2, 0), (5, -2)])
    True
    """
    for d in distances:
        if any(component < 0 for component in transformation.apply(d)):
            return False
    return True


#: (matrix, distance) pairs screened per block: a block of
#: ``SCREEN_PAIRS // distances`` matrices keeps its temporaries
#: ``O(SCREEN_PAIRS)``.
SCREEN_PAIRS = 1 << 14


@dataclass(frozen=True)
class StackScreen:
    """Per-matrix verdicts of :func:`screen_stack`, in stack order.

    ``tileable[k]`` is :func:`is_tileable` of matrix ``k`` against the
    window distances, ``legal[k]`` is :func:`is_legal` against the
    ordering distances.  ``min_level`` and ``level_sum`` are the minimum
    and the sum over the window distances of the lex level of ``T d``
    (the zero vector counts one past the last row); both are 0 when
    there are no window distances.
    """

    tileable: np.ndarray
    legal: np.ndarray
    min_level: np.ndarray
    level_sum: np.ndarray


def screen_stack(
    stack: np.ndarray,
    window_distances: Iterable[Sequence[int]],
    order_distances: Iterable[Sequence[int]],
) -> StackScreen:
    """Tileability, legality and reuse levels of every matrix of a
    ``(K, m, n)`` integer stack.

    Each block of :data:`SCREEN_PAIRS` (matrix, distance) pairs meets
    every distance at once, one row of ``T`` at a time: ``m`` products
    ``(block, n) @ (n, distances)``.  Products are int64 while
    ``max|T| * n * max|d| < 2**62`` bounds every ``T @ d``; beyond that
    the same code runs on exact Python ints.

    >>> s = screen_stack(np.array([[[2, 3], [1, 1]], [[1, 0], [0, 1]]]),
    ...                  [(3, -2), (2, 0)], [(3, -2)])
    >>> s.tileable.tolist(), s.legal.tolist(), s.min_level.tolist()
    ([True, False], [True, True], [1, 1])
    """
    count, m, n = stack.shape
    window = [tuple(d) for d in window_distances]
    order = [tuple(d) for d in order_distances]
    tileable = np.ones(count, dtype=bool)
    legal = np.ones(count, dtype=bool)
    min_level = np.full(count, m + 1 if window else 0, dtype=np.int64)
    level_sum = np.zeros(count, dtype=np.int64)
    if not (window or order) or not count:
        return StackScreen(tileable, legal, min_level, level_sum)
    entry = max(int(stack.max()), -int(stack.min()))
    reach = max(abs(v) for d in window + order for v in d)
    dtype = np.int64 if entry * n * max(reach, 1) < 2 ** 62 else object
    vectors = np.array(window + order, dtype=dtype).reshape(-1, n).T
    w = len(window)
    rows = max(1, SCREEN_PAIRS // vectors.shape[1])
    for lo in range(0, count, rows):
        block = slice(lo, lo + rows)
        part = stack[block].astype(dtype)
        # Row by row of T: the level of each T @ d's first nonzero
        # component (m + 1 for none), its sign, and T @ d >= 0.
        level = np.zeros((part.shape[0], vectors.shape[1]), dtype=np.int64)
        positive = np.zeros(level.shape, dtype=bool)
        nonnegative = np.ones(level.shape, dtype=bool)
        for k in range(m):
            moved = part[:, k, :] @ vectors
            first = (level == 0) & (moved != 0)
            level[first] = k + 1
            positive |= first & (moved > 0)
            nonnegative &= moved >= 0
        level[level == 0] = m + 1
        if w:
            tileable[block] = nonnegative[:, :w].all(axis=1)
            min_level[block] = level[:, :w].min(axis=1)
            level_sum[block] = level[:, :w].sum(axis=1)
        if order:
            legal[block] = positive[:, w:].all(axis=1)
    return StackScreen(tileable, legal, min_level, level_sum)


def legal_matrices(
    stack: np.ndarray, distances: Iterable[Sequence[int]]
) -> list[IntMatrix]:
    """The stack's matrices legal for ``distances``, in stack order."""
    return as_matrices(stack[screen_stack(stack, (), distances).legal])


#: ``(signature, array, kind/flags)`` -> distance vectors.  Dependence
#: analysis is pure in the program, and the search re-derives the same
#: distance sets for every candidate batch (and in every pool worker the
#: program is re-pickled into), so a content-hash memo pays for itself
#: immediately.  Bounded: dropped wholesale past the cap.
_DISTANCE_CACHE: dict[tuple, tuple] = {}
_DISTANCE_CACHE_LIMIT = 512


def clear_distance_cache() -> None:
    """Drop memoized dependence-distance sets (tests)."""
    _DISTANCE_CACHE.clear()


def _memo(key: tuple, compute) -> tuple:
    cached = _DISTANCE_CACHE.get(key)
    if cached is None:
        cached = tuple(compute())
        if len(_DISTANCE_CACHE) >= _DISTANCE_CACHE_LIMIT:
            _DISTANCE_CACHE.clear()
        _DISTANCE_CACHE[key] = cached
    return cached


def ordering_distances(
    program: Program,
    array: str | None = None,
    reductions_reorderable: bool = True,
) -> list[tuple[int, ...]]:
    """Distance vectors that decide legality (flow/anti/output), exact in
    the nest's bounds: a transformation keeps every such distance of the
    nest lex-positive iff it keeps these lex-positive
    (:func:`repro.dependence.analysis.ordering_vectors`, uniform arrays
    and non-uniform ones alike).

    Input (read-read) dependences impose no ordering; the paper's legality
    constraints in Example 8 use exactly the flow, anti and output
    distances.  Dependences among scalar-in-nest accumulators are
    reduction updates and are excluded unless ``reductions_reorderable``
    is False.  ``array=None`` collects over every array.
    """

    def compute() -> Iterable[tuple[int, ...]]:
        if array is None:
            # The union, in first-seen order, of the memoized array sets.
            return dict.fromkeys(
                d
                for name in program.arrays
                for d in ordering_distances(program, name, reductions_reorderable)
            )
        return ordering_vectors(program, array, reductions_reorderable)

    key = (program.signature(), array, reductions_reorderable, "ordering")
    return list(_memo(key, compute))


def reuse_distances(program: Program, array: str | None = None) -> list[tuple[int, ...]]:
    """The paper's reuse distances (input dependences included), one
    lex-smallest in-box member per dependence family — what the window
    optimization must push to inner levels.  ``array=None`` collects
    over the uniformly generated arrays."""

    def compute() -> Iterable[tuple[int, ...]]:
        if array is None:
            return dict.fromkeys(
                d
                for name in program.arrays
                if program.is_uniformly_generated(name)
                for d in reuse_distances(program, name)
            )
        return array_distance_vectors(program, array)

    key = (program.signature(), array, "reuse")
    return list(_memo(key, compute))
