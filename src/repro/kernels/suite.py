"""Seven image/video-processing kernels from the paper's Section 5.

The scanned paper garbles most absolute numbers in Figure 2, so each
kernel records the *surviving* paper data (the percentage reductions and
the thousands digits) in its :class:`KernelSpec`; EXPERIMENTS.md compares
them with what the pipeline measures.  Sizes are chosen to make the
surviving digits consistent (see DESIGN.md Section 5): stencils on 64x64
and 32x32 grids, matmult at N=16 (default 3N^2 = 768 with 64.4% both
columns), motion estimation over 32x32 frames (default 2048), and
rasta_flt declared at exactly 5152 elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.builder import NestBuilder
from repro.ir.program import Program


@dataclass(frozen=True)
class KernelSpec:
    """A benchmark kernel plus the surviving Figure-2 numbers."""

    name: str
    build: Callable[[], Program]
    description: str
    paper_default: int | None  # None where the scan lost the value
    paper_unopt_reduction: float  # percentage, e.g. 98.4
    paper_opt_reduction: float
    paper_opt_mws: int | None


def two_point(n: int = 64) -> Program:
    """Two-point (vertical-difference) stencil over an ``n x n`` image.

    ``sum += A[i-1][j] + A[i][j]`` — each element is reused one row later,
    so the untransformed window is a full image row; interchange makes the
    reuse adjacent and collapses the window to O(1).
    """
    return (
        NestBuilder("2point")
        .loop("i", 1, n)
        .loop("j", 1, n)
        .use("S1", ("A", [[1, 0], [0, 1]], [-1, 0]), ("A", [[1, 0], [0, 1]], [0, 0]))
        .build()
    )


def three_point(n: int = 32) -> Program:
    """Three-point vertical stencil over an ``n x n`` image.

    Reuse distances (1,0) and (2,0): two rows live untransformed.
    """
    ident = [[1, 0], [0, 1]]
    return (
        NestBuilder("3point")
        .loop("i", 1, n)
        .loop("j", 1, n)
        .use(
            "S1",
            ("A", ident, [-1, 0]),
            ("A", ident, [0, 0]),
            ("A", ident, [1, 0]),
        )
        .build()
    )


def sor(n: int = 32) -> Program:
    """Five-point Gauss-Seidel successive-over-relaxation, in place.

    Flow dependences (1,0) and (0,1) mean no reordering can shrink the
    window below about one grid row — the optimized value plateaus near
    ``n + 3`` rather than O(1), matching the paper's 96.5% (not 99.9%).
    """
    ident = [[1, 0], [0, 1]]
    return (
        NestBuilder("sor")
        .loop("i", 1, n)
        .loop("j", 1, n)
        .statement(
            "S1",
            write=("A", ident, [0, 0]),
            reads=[
                ("A", ident, [0, 0]),
                ("A", ident, [-1, 0]),
                ("A", ident, [1, 0]),
                ("A", ident, [0, -1]),
                ("A", ident, [0, 1]),
            ],
        )
        .build()
    )


def matmult(n: int = 16) -> Program:
    """Matrix multiply ``C += A @ B`` with the canonical i-j-k order.

    ``B`` is traversed column-wise inside the whole ``i`` loop, so nearly
    all of ``B`` stays live whatever the loop order — the one kernel in
    Figure 2 where transformation does not help (64.4% both columns).
    """
    return (
        NestBuilder("matmult")
        .loop("i", 1, n)
        .loop("j", 1, n)
        .loop("k", 1, n)
        .statement(
            "S1",
            write=("C", [[1, 0, 0], [0, 1, 0]], [0, 0]),
            reads=[
                ("C", [[1, 0, 0], [0, 1, 0]], [0, 0]),
                ("A", [[1, 0, 0], [0, 0, 1]], [0, 0]),
                ("B", [[0, 0, 1], [0, 1, 0]], [0, 0]),
            ],
        )
        .build()
    )


def threestep_log(frame: int = 32, block: int = 8, stride: int = 4) -> Program:
    """One refinement level of three-step logarithmic motion estimation.

    Candidates at offsets ``stride * {-1, 0, 1}^2`` around the frame
    center are compared against a fixed current block.  The paper's full
    3-step search shrinks the stride per level — a data-dependent control
    pattern outside the affine model — so we reproduce the dominant level
    (stride 4, 9 candidates), which exercises the same overlapping-window
    reuse; DESIGN.md Section 5 records the substitution.
    """
    center = frame // 2
    return (
        NestBuilder("3step_log")
        .loops(("p", -1, 1), ("q", -1, 1), ("u", 1, block), ("v", 1, block))
        .declare("R", frame, frame)
        .declare("C", frame, frame)
        .use(
            "S1",
            (
                "R",
                [[stride, 0, 1, 0], [0, stride, 0, 1]],
                [center - block // 2, center - block // 2],
            ),
            (
                "C",
                [[0, 0, 1, 0], [0, 0, 0, 1]],
                [center - block // 2, center - block // 2],
            ),
        )
        .build()
    )


def full_search(frame: int = 32, block: int = 8) -> Program:
    """Exhaustive block-matching motion estimation for one block.

    The reference window ``R[p+u][q+v]`` slides over the whole frame; the
    current block ``C`` is re-read per candidate.  Untransformed, a
    ``block``-row band of ``R`` stays live.  Both frames are indexed
    from 1, like the loops, so ``R``'s indices 2..32 lie inside them.
    """
    span = frame - block
    offset = block // 2
    return (
        NestBuilder("full_search")
        .loops(("p", 1, span), ("q", 1, span), ("u", 1, block), ("v", 1, block))
        .declare("R", frame, frame, origins=(1, 1))
        .declare("C", frame, frame, origins=(1, 1))
        .use(
            "S1",
            ("R", [[1, 0, 1, 0], [0, 1, 0, 1]], [0, 0]),
            ("C", [[0, 0, 1, 0], [0, 0, 0, 1]], [offset, offset]),
        )
        .build()
    )


def rasta_flt(frames: int = 13, bands: int = 46, taps: int = 44) -> Program:
    """RASTA-style FIR filtering across frames, per critical band.

    ``Y[f][b] += X[f+t-1][b]`` with the tap loop innermost *under* the
    band loop: every band pass re-reads a ``taps``-row window of the
    spectral history ``X``, so untransformed roughly ``taps`` rows of
    ``X`` stay live; moving the band loop outward confines the window to
    one band column.  Declarations cover full 56x46 frame buffers for
    both arrays (2 x 2576 = 5152 elements — the paper's default),
    indexed from 1 like the loops.
    """
    return (
        NestBuilder("rasta_flt")
        .loops(("f", 1, frames), ("b", 1, bands), ("t", 1, taps))
        .declare("X", frames + taps - 1, bands, origins=(1, 1))
        .declare("Y", frames + taps - 1, bands, origins=(1, 1))
        .statement(
            "S1",
            write=("Y", [[1, 0, 0], [0, 1, 0]], [0, 0]),
            reads=[
                ("Y", [[1, 0, 0], [0, 1, 0]], [0, 0]),
                ("X", [[1, 0, 1], [0, 1, 0]], [-1, 0]),
            ],
        )
        .build()
    )


KERNELS: tuple[KernelSpec, ...] = (
    KernelSpec(
        "2point", two_point,
        "two-point stencil, 64x64",
        None, 98.4, 99.9, 3,
    ),
    KernelSpec(
        "3point", three_point,
        "three-point stencil, 32x32",
        None, 93.3, 96.5, 35,
    ),
    KernelSpec(
        "sor", sor,
        "successive over-relaxation (5-point Gauss-Seidel), 32x32",
        None, 93.6, 96.5, 35,
    ),
    KernelSpec(
        "matmult", matmult,
        "matrix multiply, 16x16",
        None, 64.4, 64.4, 273,
    ),
    KernelSpec(
        "3step_log", threestep_log,
        "three-step logarithmic motion estimation (one level), 32x32 frames",
        None, 75.2, 94.0, 122,
    ),
    KernelSpec(
        "full_search", full_search,
        "full-search motion estimation, 32x32 frames",
        None, 87.8, 97.1, 60,
    ),
    KernelSpec(
        "rasta_flt", rasta_flt,
        "RASTA filtering (MediaBench), 46 bands",
        5152, 60.4, 97.5, 127,
    ),
)


def kernel_by_name(name: str) -> KernelSpec:
    """Look a kernel up by its Figure-2 name."""
    for spec in KERNELS:
        if spec.name == name:
            return spec
    raise KeyError(name)
