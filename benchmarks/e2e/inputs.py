"""Every program and request the benchmark sends, as functions of the seed.

Nothing here imports ``repro`` at module level: the functions that build
programs import it when called, from whichever source tree is on the path.
"""

from __future__ import annotations

import itertools
import math
import random

#: The seven Figure-2 kernels, by their suite names.
KERNELS = ("2point", "3point", "3step_log", "full_search", "matmult",
           "rasta_flt", "sor")

#: serve-warm: every kernel under every request kind the service caches.
WARM_REQUESTS = tuple(
    {"kind": kind, "kernel": kernel}
    for kernel in KERNELS
    for kind in ("mws", "analyze", "optimize", "search", "hierarchy")
)

#: The request every server answers once before it counts as set up, so
#: that its worker pool has spawned.
FIRST_REQUEST = {"kind": "mws", "kernel": "2point"}

#: hierarchy-cold: the nests of ``examples/hierarchy/*48.loop`` at this
#: extent.  A 48^3 query takes 105-135 s; 10^3 takes about 1 s and
#: still spends about 95% of it in tile footprints.
HIERARCHY_N = 10

#: Statement bodies of the hierarchy nests (loops i, j, k around each).
HIERARCHY_BODIES = {
    "gemm": "S1: C[i][j] = C[i][j] + A[i][k] * B[k][j]",
    "correlation": "S1: C[i][j] = C[i][j] + X[k][i] * X[k][j]",
    "attention": "S1: S[i][j] = S[i][j] + Q[i][k] * K[j][k]",
}

#: serve-mixed generator dials: 3-deep nests of 64 to 1728 points.
MIXED_DEPTH, MIXED_MIN_TRIP, MIXED_MAX_TRIP = 3, 4, 12

#: serve-mixed: every third request repeats a program sent before; the
#: others carry one not sent before.  A repeat comes back in a few ms
#: from the worker that holds the program in memory and in tens of ms
#: from the other one, so with more repeats the median latency falls
#: between those modes and moves from run to run.
MIXED_REPEAT_EVERY = 3


def nest_source(body: str, n: int) -> str:
    """Source of loops i, j, k from 1 to ``n`` around ``body``."""
    return (f"for i = 1 to {n} {{\n  for j = 1 to {n} {{\n"
            f"    for k = 1 to {n} {{\n      {body}\n    }}\n  }}\n}}\n")


#: serve-mixed: the untimed request that pays an in-process service's
#: first-call costs before a traced run times it.
MIXED_WARM_UP = {"kind": "optimize",
                 "source": nest_source(HIERARCHY_BODIES["gemm"], 4)}


def hierarchy_programs() -> dict:
    """``{name: Program}`` of the three hierarchy nests."""
    from repro.ir import parse_program

    n = HIERARCHY_N
    return {
        f"{name}{n}": parse_program(nest_source(body, n), name=f"{name}{n}")
        for name, body in HIERARCHY_BODIES.items()
    }


def scaled_hierarchy():
    """The ``tcm`` preset with every capacity scaled by ``(n/48)^2``.

    The 48^3 examples were sized against the unscaled preset; scaling
    each tier by the operand-size ratio keeps every operand-to-tier ratio
    (three operands overflow L1, two fit the TCM).
    """
    from repro.memory.hierarchy import preset

    hierarchy = preset("tcm")
    for index, tier in enumerate(hierarchy.tiers):
        hierarchy = hierarchy.resized(
            index, tier.capacity_words * HIERARCHY_N**2 // 48**2
        )
    return hierarchy


def _det(matrix: list[list[int]]) -> int:
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** col * matrix[0][col]
        * _det([row[:col] + row[col + 1:] for row in matrix[1:]])
        for col in range(len(matrix))
    )


def is_primitive(rows: list[list[int]]) -> bool:
    """True when the rows extend to a unimodular matrix.

    That holds exactly when the gcd of the maximal minors is 1.  Access
    matrices of two or more rows failing it can make ``optimize`` raise
    an internal ``AssertionError`` in ``complete_unimodular`` (5-8% of
    the generator's programs), so serve-mixed leaves them out.  (A single
    non-primitive row is refused there with the ``ValueError`` its
    callers expect.)  Computed here rather than with the package, so
    that a fix there does not change the workload.
    """
    k, n = len(rows), len(rows[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, _det([[row[c] for c in cols] for row in rows]))
    return g == 1


def _admissible(program) -> bool:
    depth = program.nest.depth
    return all(
        is_primitive([list(ref.access.row(i)) for i in range(ref.rank)])
        for ref in program.references
        if 1 < ref.rank < depth
    )


def mixed_programs(seed: int, count: int) -> list[tuple[int, str]]:
    """``count`` distinct ``(generator seed, source)`` pairs for serve-mixed."""
    from repro.ir.codegen import generate_source
    from repro.ir.generate import GeneratorConfig, random_program

    config = GeneratorConfig(
        depth=MIXED_DEPTH, min_trip=MIXED_MIN_TRIP, max_trip=MIXED_MAX_TRIP
    )
    rng = random.Random(f"serve-mixed/{seed}")
    out: list[tuple[int, str]] = []
    seen: set[str] = set()
    while len(out) < count:
        gen_seed = rng.randrange(2**31)
        program = random_program(gen_seed, config)
        source = generate_source(program)
        if source in seen or not _admissible(program):
            continue
        seen.add(source)
        out.append((gen_seed, source))
    return out


def mixed_order(seed: int, n_novel: int) -> list[tuple[int, bool]]:
    """``(program index, novel)`` per request: every
    ``MIXED_REPEAT_EVERY``-th request repeats a random program already
    sent, the others send the next new one."""
    rng = random.Random(f"serve-mixed-order/{seed}")
    order: list[tuple[int, bool]] = []
    for novel in range(n_novel):
        order.append((novel, True))
        if novel % (MIXED_REPEAT_EVERY - 1) == MIXED_REPEAT_EVERY - 2:
            order.append((rng.randrange(novel + 1), False))
    return order
