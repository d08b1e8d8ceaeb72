"""Line-granular reference windows: spatial locality meets the MWS.

The paper's window counts *elements*; real memories move *lines*.  With a
layout mapping elements to addresses, the same first/last-access sweep
over line ids gives the minimum number of cache lines that must stay
resident — the element window model composed with spatial locality.  A
good transformation with a bad layout (column traversal of a row-major
array) shows up immediately: every live element occupies its own line.
"""

from __future__ import annotations

import numpy as np

from repro.ir.program import Program
from repro.layout.layouts import Layout, RowMajorLayout
from repro.linalg import IntMatrix
from repro.window import fast
from repro.window.batched import _peak_concurrent
from repro.window.simulator import WindowProfile


def _line_lifetimes(
    program: Program,
    array: str,
    layout: Layout,
    line_size: int,
    transformation: IntMatrix | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each touched line's first and last execution positions: the
    minimum first and the maximum last touch of the elements it holds."""
    if line_size <= 0:
        raise ValueError("line size must be positive")
    table = fast.lifetime_table(program, array, transformation)
    lines = table.addresses(layout, program.decl(array)) // line_size
    _, first, last = fast._first_last(lines, table.first, table.last)
    return first, last


def max_line_window(
    program: Program,
    array: str,
    layout: Layout | None = None,
    line_size: int = 8,
    transformation: IntMatrix | None = None,
) -> int:
    """Maximum number of simultaneously live lines for one array.

    Same half-open window convention as the element MWS; ``layout``
    defaults to row-major.  With ``line_size=1`` this reduces exactly to
    the element window (tested).
    """
    return _peak_concurrent(*_line_lifetimes(
        program, array, layout or RowMajorLayout(), line_size, transformation
    ))


def line_window_profile(
    program: Program,
    array: str,
    layout: Layout | None = None,
    line_size: int = 8,
    transformation: IntMatrix | None = None,
) -> WindowProfile:
    """Live-line count over execution time."""
    first, last = _line_lifetimes(
        program, array, layout or RowMajorLayout(), line_size, transformation
    )
    sizes = fast._occupancy(first, last, program.nest.total_iterations)
    return WindowProfile(array, tuple(sizes.tolist()))
