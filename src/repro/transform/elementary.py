"""Elementary unimodular transformations.

Wolf & Lam: every unimodular transformation factors into loop interchange
(permutation), reversal (negating one index) and skewing (adding an
integer multiple of one index to another).  These generators both build
compound transformations and span the baseline search spaces.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from repro.linalg import IntMatrix


def interchange(n: int, level_a: int, level_b: int) -> IntMatrix:
    """Swap loop levels ``level_a`` and ``level_b`` (0-based).

    >>> interchange(2, 0, 1)
    IntMatrix([[0, 1], [1, 0]])
    """
    rows = IntMatrix.identity(n).to_lists()
    rows[level_a], rows[level_b] = rows[level_b], rows[level_a]
    return IntMatrix(rows)


def reversal(n: int, level: int) -> IntMatrix:
    """Reverse loop ``level`` (0-based).

    >>> reversal(2, 0)
    IntMatrix([[-1, 0], [0, 1]])
    """
    rows = IntMatrix.identity(n).to_lists()
    rows[level][level] = -1
    return IntMatrix(rows)


def skew(n: int, target: int, source: int, factor: int) -> IntMatrix:
    """Skew loop ``target`` by ``factor`` times loop ``source``.

    The transformed index is ``u_target = i_target + factor * i_source``.

    >>> skew(2, 1, 0, 1)
    IntMatrix([[1, 0], [1, 1]])
    """
    if target == source:
        raise ValueError("cannot skew a loop by itself")
    rows = IntMatrix.identity(n).to_lists()
    rows[target][source] = factor
    return IntMatrix(rows)


def signed_permutations(n: int) -> Iterator[IntMatrix]:
    """All compositions of interchanges and reversals: the ``2^n * n!``
    signed permutation matrices — Eisenbeis et al.'s search space.

    The rows of :func:`signed_permutation_stack`, as matrices.

    >>> len(list(signed_permutations(2)))
    8
    """
    for rows in signed_permutation_stack(n).tolist():
        yield IntMatrix(rows)


def bounded_unimodular_matrices(n: int, bound: int) -> Iterator[IntMatrix]:
    """All unimodular ``n x n`` matrices with entries in ``[-bound, bound]``.

    The rows of :func:`unimodular_stack`, as matrices.  The space grows
    steeply: for n = 3, bound 1 keeps 6,960 of 19,683 products and bound
    2 keeps 135,408 of 1,953,125, so keep n <= 3 and bound <= 2.
    """
    for rows in unimodular_stack(n, bound).tolist():
        yield IntMatrix(rows)


def as_matrices(stack: np.ndarray) -> list[IntMatrix]:
    """The matrices of an ``(K, m, n)`` integer stack, in stack order."""
    return [IntMatrix(rows) for rows in stack.tolist()]


@functools.lru_cache(maxsize=None)
def signed_permutation_stack(n: int) -> np.ndarray:
    """The signed permutation matrices as one read-only ``(2^n n!, n, n)``
    stack: permutations in lexicographic order, and for each the sign
    vectors in ``itertools.product((1, -1), repeat=n)`` order.

    Built once per process, on first use, and shared by every caller.

    >>> signed_permutation_stack(2)[:3].tolist()
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, 1]]]
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    n_signs = 1 << n
    # Sign vector s: bit (n - 1 - i) of s set means row i is negated.
    bits = (np.arange(n_signs)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = (1 - 2 * bits).astype(np.int8)
    count = len(perms) * n_signs
    stack = np.zeros((count, n, n), dtype=np.int8)
    stack[
        np.arange(count)[:, None],
        np.arange(n)[None, :],
        np.repeat(perms, n_signs, axis=0),
    ] = np.tile(signs, (len(perms), 1))
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=None)
def unimodular_stack(n: int, bound: int) -> np.ndarray:
    """Every unimodular ``n x n`` matrix with entries in ``[-bound, bound]``
    as one read-only ``(K, n, n)`` stack (int8 while the bound fits), in
    the lexicographic order of the flattened entries.

    Built once per process, on first use, one first row at a time: the
    last ``n - 1`` rows range over one shared product block whose signed
    first-row cofactors are exact integer determinants, so each first
    row's determinants are one matrix-vector product and the full
    ``(2 bound + 1)^(n^2)`` product is never held.

    >>> unimodular_stack(1, 1).tolist()
    [[[-1]], [[1]]]
    >>> len(unimodular_stack(2, 1))
    40
    """
    dtype = np.int8 if bound <= np.iinfo(np.int8).max else np.int64
    firsts = _product(n, bound, dtype)
    rest = _product((n - 1) * n, bound, dtype)
    rest = rest.reshape(len(rest), n - 1, n)
    # |det| <= n! bound^n: fixed width only while that cannot wrap.
    exact = np.int64 if math.factorial(n) * bound ** n < 2 ** 62 else object
    wide = rest.astype(exact)
    cofactors = np.stack(
        [
            (-1) ** j * _det(np.delete(wide, j, axis=2))
            for j in range(n)
        ],
        axis=1,
    )
    blocks = []
    for first in firsts:
        keep = np.flatnonzero(np.abs(cofactors @ first.astype(exact)) == 1)
        if keep.size:
            block = np.empty((keep.size, n, n), dtype=dtype)
            block[:, 0] = first
            block[:, 1:] = rest[keep]
            blocks.append(block)
    stack = (
        np.concatenate(blocks) if blocks else np.empty((0, n, n), dtype=dtype)
    )
    stack.flags.writeable = False
    return stack


def _product(k: int, bound: int, dtype) -> np.ndarray:
    """``itertools.product(range(-bound, bound + 1), repeat=k)`` as a
    ``((2 bound + 1)^k, k)`` array, first column slowest."""
    side = 2 * bound + 1
    values = np.arange(-bound, bound + 1, dtype=dtype)
    out = np.empty((side ** k, k), dtype=dtype)
    for col in range(k):
        out[:, col] = np.tile(
            np.repeat(values, side ** (k - 1 - col)), side ** col
        )
    return out


def _det(stack: np.ndarray) -> np.ndarray:
    """Exact determinants of a ``(K, k, k)`` stack by cofactor expansion
    along the first row (``k`` is at most a few here)."""
    k = stack.shape[1]
    if k == 0:
        return np.ones(len(stack), dtype=stack.dtype)
    total = stack[:, 0, 0] * _det(stack[:, 1:, 1:])
    for j in range(1, k):
        term = stack[:, 0, j] * _det(np.delete(stack[:, 1:, :], j, axis=2))
        total = total - term if j % 2 else total + term
    return total
