"""Tiling support: permutability, tile footprints and tile-size selection.

The paper requires transformed nests to be *tileable* so data can be
moved in block transfers (Section 4.1, citing Irigoin & Triolet and Wolf
& Lam).  Once a nest is fully permutable, a rectangular tile of the
transformed iteration space touches a bounded data footprint; choosing
the largest tile whose footprint fits the on-chip buffer minimizes
off-chip traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.transform.legality import is_tileable, ordering_distances
from repro.window import fast


def is_fully_permutable(
    program: Program, transformation: IntMatrix | None = None
) -> bool:
    """True when every ordering dependence has all components >= 0 in the
    (transformed) nest — any loop order, and hence rectangular tiling, is
    legal.
    """
    t = transformation if transformation is not None else IntMatrix.identity(program.nest.depth)
    return is_tileable(t, ordering_distances(program))


@dataclass(frozen=True)
class TileFootprints:
    """Exact per-tile data volumes of one rectangular tiling.

    ``per_array`` / ``written_per_array`` are worst-case (max over tile
    cells) distinct counts — the per-tier feasibility numbers for the
    hierarchy search; ``total`` is the worst single tile over all arrays
    together; ``fetch_words`` / ``writeback_words`` sum every cell, i.e.
    the whole-execution DMA volume when each tile's footprint streams in
    (and dirty elements stream out) once, with no inter-tile reuse.
    """

    tile: tuple[int, ...]
    n_cells: int
    total: int
    per_array: dict[str, int]
    written_per_array: dict[str, int]
    fetch_words: dict[str, int]
    writeback_words: dict[str, int]


def _lex_min(
    rows: Sequence[Sequence[int]], lowers: Sequence[int], uppers: Sequence[int]
) -> list[int]:
    """Lexicographic minimum of ``rows @ i`` over the box, exactly.

    Row by row: a row's minimizers over the current sub-box pin each
    index it weighs to the bound its coefficient's sign favours, which
    leaves the sub-box on which the next row is minimized.
    """
    lo, hi = list(lowers), list(uppers)
    for row in rows:
        for k, c in enumerate(row):
            if c > 0:
                hi[k] = lo[k]
            elif c < 0:
                lo[k] = hi[k]
    return [sum(c * x for c, x in zip(row, lo)) for row in rows]


def _distinct_per_cell(
    base: np.ndarray, ids: Sequence[np.ndarray], radix: int, n_cells: int
) -> np.ndarray:
    """Per-cell distinct elements over the references' ``ids``.

    ``base`` holds ``cell * radix`` per point, so ``base + id`` packs a
    (cell, element) pair; the keys of all references sort together.
    """
    n = base.shape[0]
    keys = np.empty(len(ids) * n, dtype=np.int64)
    for k, element_ids in enumerate(ids):
        np.add(base, element_ids, out=keys[k * n:(k + 1) * n])
    keys.sort()
    first = np.empty(keys.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.bincount(keys[first] // radix, minlength=n_cells)


def tile_footprints(
    program: Program,
    tile_sizes: Sequence[int],
    transformation: IntMatrix | None = None,
) -> TileFootprints:
    """Measure every tile cell of the (transformed) iteration space.

    The grid is anchored at the lexicographic-min corner of the
    transformed space.  Skewing transforms make the space non-rectangular,
    so boundary cells are *partial* tiles: the worst-case footprint is the
    max over all cells (an interior full tile), not the corner cell.

    Array code over the dense engine's caches: cell ids are a floor
    division of :func:`repro.window.fast.transformed_points`, packed and
    ranked; each array's per-cell distinct counts are one sort of packed
    ``(cell, element id)`` keys over its references (and one over its
    written references), an adjacent-difference mask and a ``bincount``.
    Every pack is screened first: one that could pass 2**62 raises
    ``ValueError`` instead of wrapping.
    """
    n = program.nest.depth
    tile = tuple(tile_sizes)
    if len(tile) != n:
        raise ValueError("tile rank != nest depth")
    if any(s <= 0 for s in tile):
        raise ValueError("tile extents must be positive")
    points_in_nest = math.prod(program.nest.trip_counts)
    with obs.span("tiling.footprints", tile=tile, points=points_in_nest):
        points = fast.transformed_points(program, transformation)
        rows = (
            IntMatrix.identity(n).rows
            if transformation is None
            else transformation.rows
        )
        lowers, uppers = program.nest.lowers, program.nest.uppers
        origin = _lex_min(rows, lowers, uppers)
        # Extents of ``T @ i - origin``, hence of every cell coordinate.
        mins, maxs = fast._affine_extents(
            rows, [-o for o in origin], lowers, uppers
        )
        cell_mins = [lo // s for lo, s in zip(mins, tile)]
        cell_spans = [
            hi // s - c + 1 for hi, s, c in zip(maxs, tile, cell_mins)
        ]
        if not fast.spans_fit_int64(cell_spans):
            raise ValueError(
                f"tile grid {cell_spans} too large to pack under 2**62"
            )
        cells = np.empty_like(points)
        for dim, (o, s) in enumerate(zip(origin, tile)):
            # Column by column: numpy divides by a scalar much faster
            # than by a broadcast row.
            np.floor_divide(points[:, dim] - o, s, out=cells[:, dim])
        cell_key = fast._pack_columns(cells, cell_mins, cell_spans)
        # Dense 0..n_grid-1 cell ranks, so per-cell counts are bincounts.
        order = np.argsort(cell_key)
        ranks = np.empty(order.shape[0], dtype=np.int64)
        ranks[0] = 0
        np.not_equal(cell_key[order[1:]], cell_key[order[:-1]], out=ranks[1:])
        np.cumsum(ranks, out=ranks)
        n_grid = int(ranks[-1]) + 1
        cell = np.empty_like(ranks)
        cell[order] = ranks

        arrays = program.arrays
        per_array = dict.fromkeys(arrays, 0)
        written_per_array = dict.fromkeys(arrays, 0)
        fetch = dict.fromkeys(arrays, 0)
        writeback = dict.fromkeys(arrays, 0)
        totals = np.zeros(n_grid, dtype=np.int64)
        for array in arrays:
            element = fast._element_state(program, array)
            ids, radix = element.ids, element.packed.shape[0]
            if not fast.spans_fit_int64((n_grid, radix)):
                raise ValueError(
                    f"array {array}: {n_grid} cells x {radix} element ids "
                    f"too large to pack under 2**62"
                )
            base = cell * radix
            counts = _distinct_per_cell(base, ids, radix, n_grid)
            per_array[array] = int(counts.max())
            fetch[array] = int(counts.sum())
            totals += counts
            written = [
                e for e, ref in zip(ids, program.refs_to(array)) if ref.is_write
            ]
            if written:
                counts = _distinct_per_cell(base, written, radix, n_grid)
                written_per_array[array] = int(counts.max())
                writeback[array] = int(counts.sum())
        return TileFootprints(
            tile=tile,
            n_cells=int(np.count_nonzero(totals)),
            total=int(totals.max()),
            per_array=per_array,
            written_per_array=written_per_array,
            fetch_words=fetch,
            writeback_words=writeback,
        )


def tile_footprint(
    program: Program,
    tile_sizes: Sequence[int],
    transformation: IntMatrix | None = None,
) -> int:
    """Exact distinct elements touched by the worst single tile.

    Measured as the max over every tile cell of the (transformed)
    iteration space.  With uniformly generated references all *full*
    tiles touch the same count, but a skewing transform leaves partial
    tiles at the boundary — including the lexicographic-min corner — so
    the corner tile alone under-reports the buffer a tile needs.
    """
    return tile_footprints(program, tile_sizes, transformation).total


def pick_tile_size(
    program: Program,
    capacity: int,
    transformation: IntMatrix | None = None,
    max_size: int = 64,
) -> tuple[int, ...]:
    """Largest square tile whose footprint fits ``capacity`` elements.

    Doubling search then refinement; returns ``(s, ..., s)``.  A capacity
    below the single-iteration footprint returns the unit tile.
    """
    n = program.nest.depth
    best = 1
    size = 1
    while size <= max_size:
        footprint = tile_footprint(program, (size,) * n, transformation)
        if footprint <= capacity:
            best = size
            size *= 2
        else:
            break
    # Refine between best and the failed size (exclusive), or past
    # max_size when doubling overshot it without a failure.
    low, high = best, min(size, max_size + 1)
    while low + 1 < high:
        mid = (low + high) // 2
        if tile_footprint(program, (mid,) * n, transformation) <= capacity:
            low = mid
        else:
            high = mid
    return (low,) * n
