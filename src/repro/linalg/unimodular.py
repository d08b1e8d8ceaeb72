"""Unimodular matrices: predicates, inverses, completion, generation.

A unimodular matrix (integer, determinant +-1) is exactly an invertible
change of basis of the iteration lattice, which is why the paper restricts
its loop transformations to this class: the transformed loop nest scans the
same integer points, once each.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from repro.linalg.gcd import gcd_list
from repro.linalg.hermite import hermite_normal_form
from repro.linalg.matrix import IntMatrix


def is_unimodular(matrix: IntMatrix) -> bool:
    """True iff the matrix is square with determinant +1 or -1."""
    return matrix.is_square() and matrix.det() in (1, -1)


def unimodular_inverse(matrix: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unimodular matrix."""
    return matrix.inverse_unimodular()


def complete_unimodular(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Extend ``rows`` (k linearly independent primitive-lattice rows) to an
    ``n x n`` unimodular matrix whose first ``k`` rows are ``rows``.

    The construction: compute ``H = U @ R^T`` (column relations of the row
    space).  When the rows span a *direct summand* of ``Z^n`` (equivalently
    the gcd of their ``k x k`` minors is 1), ``inv(U)``'s trailing rows
    complete the basis.  Raises ``ValueError`` when no unimodular
    completion exists, e.g. ``rows = [[2, 0]]`` (the row is not primitive)
    or ``[[0, 3, 2], [-3, -3, -1]]`` (its minors are 9, 6 and 3).

    >>> complete_unimodular([[2, -3]]).det() in (1, -1)
    True
    >>> complete_unimodular([[3, 0, 1], [0, 1, 1]]).n_rows
    3
    """
    r = IntMatrix(rows)
    k, n = r.shape
    if k > n:
        raise ValueError("more rows than columns; cannot complete")
    # A completion exists iff the rows generate a direct summand of Z^n,
    # i.e. their maximal minors have gcd 1 (all zero: dependent rows).
    minors_gcd = gcd_list(
        IntMatrix([[row[c] for c in cols] for row in r.to_lists()]).det()
        for cols in combinations(range(n), k)
    )
    if minors_gcd == 0:
        raise ValueError("rows are linearly dependent; cannot complete")
    if minors_gcd != 1:
        raise ValueError(
            f"rows do not generate a direct summand of Z^n (maximal minors "
            f"have gcd {minors_gcd}); no unimodular completion exists"
        )
    _, u = hermite_normal_form(r.transpose())
    # U @ R^T = [B; 0] with B k x k, so R = [B^T  0] @ inv(U)^T: the rows
    # of inv(U)^T past the first k complete R's rows to a matrix of det
    # +-det(B), which is +-(gcd of R's maximal minors) = +-1.
    u_inv_t = u.inverse_unimodular().transpose()
    completion_rows = list(rows) + [list(u_inv_t.row(i)) for i in range(k, n)]
    result = IntMatrix(completion_rows)
    d = result.det()
    if d not in (1, -1):
        raise AssertionError(f"internal error: completion has det {d}")
    if d == -1 and n > k:
        # Normalize to det +1 by negating the last appended row.
        completion_rows[-1] = [-v for v in completion_rows[-1]]
        result = IntMatrix(completion_rows)
    return result


def random_unimodular(n: int, rng: random.Random, steps: int = 12, max_mult: int = 3) -> IntMatrix:
    """A pseudo-random unimodular matrix built from elementary operations.

    Used by property-based tests: starting from the identity, apply a
    bounded number of row swaps, row negations and bounded-multiple row
    additions — each preserves ``|det| == 1``.
    """
    m = IntMatrix.identity(n).to_lists()
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-v for v in m[i]]
        elif op == 2 and i != j:
            k = rng.randint(-max_mult, max_mult)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return IntMatrix(m)
