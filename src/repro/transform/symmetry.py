"""Exact loop symmetries: which candidate orders are the same schedule.

A *symmetry* of a program is an affine bijection of its iteration box,
``g(i) = P @ i + s`` with ``P`` a signed permutation that moves a loop
only onto a loop of equal trip count (``s`` is fixed by the box: a
reversed loop ``k`` fed by loop ``p`` maps ``i_p`` to ``lo_k + hi_p -
i_p``), together with

* a bijection ``sigma`` between arrays of equal rank,
* per array ``X`` a signed permutation ``M_X`` of its dimensions and a
  shift ``m_X`` (the element map ``h_X(e) = M_X @ e + m_X``),
* a bijection ``pi`` of references that keeps read/write and maps the
  references of ``X`` onto those of ``sigma(X)``,

such that ``M_X @ A_r @ P = A_pi(r)`` and ``M_X @ (A_r @ s + c_r) + m_X
= c_pi(r)`` for every reference ``r`` of ``X``.  Then reference
``pi(r)`` at iteration ``i`` touches ``h_X`` of what ``r`` touches at
``g(i)``, so ``g`` maps the iterations touching each element of
``sigma(X)`` one to one onto those touching an element of ``X``.  Since
``T @ P @ i = T @ g(i) - T @ s``, the order ``T @ P`` runs ``i`` when
``T`` runs ``g(i)``, and every element keeps its lifetime:

* ``window(T @ P) = window(T)``, in total and per array up to ``sigma``;
* the tile footprints of ``(T @ P, tile)`` equal those of ``(T, tile)``
  per array up to ``sigma``, written and write-back counts included:
  :func:`repro.transform.tiling.tile_footprints` anchors its grid at the
  lexicographic minimum of the transformed box, and that minimum moves
  by ``-T @ s`` with the points.

:func:`symmetries` finds the signed permutations that pass this check
(pruned first by per-loop and per-loop-pair invariants), memoized by
program signature; the check is sound but not complete — a missed
symmetry costs speed only.  :func:`first_of_class` then maps each candidate to the earliest
candidate of its class ``{T @ P}``: the cascade
(:func:`repro.transform.search.evaluate_cascade`) and the pruned
hierarchy search score only the first of each class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.store.lru import LRUCache


@dataclass(frozen=True)
class Symmetry:
    """One verified symmetry: the loop map ``matrix`` (``P``) and the
    array map ``arrays`` (``(X, sigma(X))`` per array, in program
    order).  See the module docstring for the exact condition."""

    matrix: IntMatrix
    arrays: tuple[tuple[str, str], ...]

    def image(self, array: str) -> str:
        """``sigma(array)``: the window of ``sigma(array)`` under
        ``T @ P`` is the window of ``array`` under ``T``."""
        for source, target in self.arrays:
            if source == array:
                return target
        raise KeyError(array)


#: program signature -> its symmetries (the identity first).
_SYMMETRY_CACHE: LRUCache = LRUCache(1024, counter="symmetry.memo")


def clear_symmetry_cache() -> None:
    """Drop memoized symmetries (tests, cold benchmarks)."""
    _SYMMETRY_CACHE.clear()


def symmetries(program: Program) -> tuple[Symmetry, ...]:
    """Every verified loop symmetry of ``program``, the identity first.

    Candidates are the signed permutations whose loop map keeps each
    loop's invariants (trip count and, over the references, the multiset
    of ``|column|`` entries) and whose signs keep, for each pair of
    loops, the multiset of products of a row's two entries; each is
    accepted only after the exact check of the module docstring.
    """
    sig = program.signature()
    found = _SYMMETRY_CACHE.get(sig)
    if found is None:
        found = _detect(program)
        _SYMMETRY_CACHE.put(sig, found)
    return found


# A reference table: per array, ``(access rows, is_write) -> sorted
# offsets``; two arrays' tables compare as the multisets of their
# references.
_Table = dict[tuple[tuple[tuple[int, ...], ...], bool], list[tuple[int, ...]]]


def _table(refs) -> _Table:
    table: _Table = {}
    for rows, offset, write in refs:
        table.setdefault((rows, write), []).append(offset)
    for offsets in table.values():
        offsets.sort()
    return table


def _detect(program: Program) -> tuple[Symmetry, ...]:
    nest = program.nest
    n = nest.depth
    lowers, uppers, trips = nest.lowers, nest.uppers, nest.trip_counts
    refs: dict[str, list] = {}
    for ref in program.references:
        refs.setdefault(ref.array, []).append(
            (ref.access.rows, ref.offset, ref.is_write)
        )
    arrays = program.arrays
    tables = {array: _table(refs[array]) for array in arrays}
    shapes = {
        array: (
            len(refs[array][0][0]),
            sorted((write, len(offsets)) for (_, write), offsets in table.items()),
        )
        for array, table in tables.items()
    }
    # Column k of A_r @ P is +-column p^-1(k) of A_r and M_X permutes
    # its entries, so a loop maps only onto a loop with the same trip
    # count and the same multiset of |column| entries per reference.
    invariant = [
        (
            trips[k],
            tuple(sorted(
                (len(rows), write, tuple(sorted(abs(row[k]) for row in rows)))
                for ref_list in refs.values()
                for rows, _, write in ref_list
            )),
        )
        for k in range(n)
    ]
    products = _pair_products(refs, n)
    found: list[Symmetry] = []
    for perm in _compatible_permutations(invariant):
        for signs in _compatible_signs(products, perm):
            shift = tuple(
                lowers[k] - lowers[p] if e > 0 else lowers[k] + uppers[p]
                for k, (p, e) in enumerate(zip(perm, signs))
            )
            sigma = _verify(refs, tables, shapes, arrays, perm, signs, shift)
            if sigma is not None:
                rows = [[0] * n for _ in range(n)]
                for k, (p, e) in enumerate(zip(perm, signs)):
                    rows[k][p] = e
                found.append(Symmetry(IntMatrix(rows), sigma))
    return tuple(found)


def _compatible_permutations(invariant: list) -> list[tuple[int, ...]]:
    """Loop maps ``k -> perm[k]`` that keep every invariant, the
    identity first."""
    classes: dict = {}
    for k, inv in enumerate(invariant):
        classes.setdefault(inv, []).append(k)
    groups = list(classes.values())
    out = []
    for images in itertools.product(
        *(itertools.permutations(group) for group in groups)
    ):
        perm = [0] * len(invariant)
        for group, image in zip(groups, images):
            for k, p in zip(group, image):
                perm[k] = p
        out.append(tuple(perm))
    return out


def _pair_products(refs, n: int) -> dict:
    """Per loop pair ``(k, l)``: the multiset, over every row of every
    reference, of ``(rank, write, row[k] * row[l])``, and its negation."""
    out = {}
    for k, l in itertools.combinations(range(n), 2):
        items = [
            (len(rows), write, row[k] * row[l])
            for ref_list in refs.values()
            for rows, _, write in ref_list
            for row in rows
        ]
        out[k, l] = out[l, k] = (
            sorted(items), sorted((rank, w, -v) for rank, w, v in items)
        )
    return out


def _compatible_signs(products, perm) -> list[tuple[int, ...]]:
    """Sign vectors ``e`` that the loop map ``k -> perm[k]`` may carry.
    ``M`` flips and permutes whole rows, so the products of each row's
    entries at loops ``(perm[k], perm[l])`` must be those at ``(k, l)``
    times ``e_k e_l``."""
    fixed = []
    for k, l in itertools.combinations(range(len(perm)), 2):
        want = products[perm[k], perm[l]][0]
        same, flipped = products[k, l]
        plus, minus = want == same, want == flipped
        if not (plus or minus):
            return []
        if plus != minus:
            fixed.append((k, l, 1 if plus else -1))
    return [
        signs
        for signs in itertools.product((1, -1), repeat=len(perm))
        if all(signs[k] * signs[l] == e for k, l, e in fixed)
    ]


def _verify(refs, tables, shapes, arrays, perm, signs, shift):
    """The array map ``sigma`` (as ``(X, sigma(X))`` pairs) when ``g``
    passes the exact check, else ``None``.  Each array's own image is
    tried first, so ``sigma`` is the identity whenever that passes."""
    images = {}
    for array in arrays:
        moved = _table(
            (
                _times_p(rows, perm, signs),
                tuple(
                    sum(a * s for a, s in zip(row, shift)) + c
                    for row, c in zip(rows, offset)
                ),
                write,
            )
            for rows, offset, write in refs[array]
        )
        images[array] = [
            target
            for target in sorted(arrays, key=lambda name: name != array)
            if shapes[target] == shapes[array]
            and _maps_onto(moved, tables[target])
        ]
        if not images[array]:
            return None
    sigma = _matching(arrays, images, {})
    return None if sigma is None else tuple((a, sigma[a]) for a in arrays)


def _times_p(rows, perm, signs) -> tuple[tuple[int, ...], ...]:
    """``A @ P`` for ``P[k][perm[k]] = signs[k]``: column ``perm[k]`` is
    ``signs[k]`` times column ``k``."""
    out = []
    for row in rows:
        new = [0] * len(row)
        for k, (p, e) in enumerate(zip(perm, signs)):
            new[p] = e * row[k]
        out.append(tuple(new))
    return tuple(out)


def _maps_onto(moved: _Table, target: _Table) -> bool:
    """Is there a signed permutation ``M`` and a shift ``m`` taking every
    ``(B, b, write)`` of ``moved`` to the references of ``target``, one
    to one?"""
    (b0, write0), offsets0 = next(iter(moved.items()))
    for (rows, write), offsets in target.items():
        if write != write0 or len(offsets) != len(offsets0):
            continue
        for rowmap in _row_maps(b0, rows):
            # A shift keeps the lexicographic order, so it takes the
            # least mapped offset to the least target one.
            least = min(_apply(rowmap, b) for b in offsets0)
            m = tuple(c - v for c, v in zip(offsets[0], least))
            if all(
                _same_group(rowmap, m, key, group, target)
                for key, group in moved.items()
            ):
                return True
    return False


def _same_group(rowmap, m, key, group, target: _Table) -> bool:
    rows, write = key
    want = target.get((_apply_rows(rowmap, rows), write))
    if want is None or len(want) != len(group):
        return False
    return sorted(
        tuple(v + s for v, s in zip(_apply(rowmap, b), m)) for b in group
    ) == want


def _row_maps(source, target) -> list[tuple[tuple[int, int], ...]]:
    """Every signed permutation ``M`` with ``M @ source = target``, as
    ``(row of source, sign)`` per target row.  A zero row matches with
    either sign: the sign still acts on the offsets."""
    negated = [tuple(-v for v in row) for row in source]
    options = []
    for want in target:
        choices = [(j, 1) for j, have in enumerate(source) if have == want]
        choices += [(j, -1) for j, have in enumerate(negated) if have == want]
        if not choices:
            return []
        options.append(choices)
    return [
        combo
        for combo in itertools.product(*options)
        if len({j for j, _ in combo}) == len(combo)
    ]


def _apply_rows(rowmap, rows) -> tuple[tuple[int, ...], ...]:
    """``M @ B`` for the rows of ``B``."""
    return tuple(tuple(e * v for v in rows[j]) for j, e in rowmap)


def _apply(rowmap, vector) -> tuple[int, ...]:
    return tuple(e * vector[j] for j, e in rowmap)


def _matching(arrays, images, taken) -> dict | None:
    """A one-to-one ``sigma`` choosing each array's image from
    ``images`` (earlier choices first), or ``None``."""
    if len(taken) == len(arrays):
        return dict(taken)
    array = arrays[len(taken)]
    used = set(taken.values())
    for target in images[array]:
        if target in used:
            continue
        taken[array] = target
        found = _matching(arrays, images, taken)
        del taken[array]
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# candidate classes
# ----------------------------------------------------------------------

#: Entries of ``T @ P`` are entries of ``T`` up to sign; under this
#: magnitude the stacked keys are exact in int64.
_KEY_LIMIT = 1 << 62

#: Entries of ``T @ P`` held at once (8 MB of int64), so a long
#: candidate list (an exhaustive search at depth 3 and bound 2) is
#: keyed block by block.
_IMAGE_ENTRIES = 1 << 20


def first_of_class(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    array: str | None = None,
) -> list[int]:
    """For each candidate, the index of the earliest candidate of its
    class ``{T @ P}`` over the verified symmetries ``P`` (``None`` is the
    native order, the identity).  With ``array``, only symmetries with
    ``sigma(array) == array`` count.

    Never raises on a candidate list: a candidate that is not an
    ``n x n`` matrix is its own class (its scorer raises the usual
    ``ValueError``).  Keys are the lexicographic minimum of ``T @ P``,
    from one stacked product in int64, or exact Python tuples when an
    entry is too large for it.
    """
    n = program.nest.depth
    group = [
        s.matrix.rows
        for s in symmetries(program)
        if array is None or s.image(array) == array
    ]
    firsts = list(range(len(candidates)))
    identity = IntMatrix.identity(n).rows
    square = [
        idx for idx, t in enumerate(candidates)
        if t is None or t.shape == (n, n)
    ]
    if not square:
        return firsts
    rows = [identity if candidates[i] is None else candidates[i].rows for i in square]
    if len(group) == 1:
        # The identity alone: a class is one matrix.
        seen: dict = {}
        owners = [seen.setdefault(t, pos) for pos, t in enumerate(rows)]
    elif max(abs(v) for t in rows for row in t for v in row) < _KEY_LIMIT:
        owners = _array_classes(
            np.array(rows, dtype=np.int64), np.array(group, dtype=np.int64)
        )
    else:
        owners = _python_classes(rows, group)
    for pos, owner in zip(square, owners):
        firsts[pos] = square[owner]
    return firsts


def _array_classes(stack: np.ndarray, perms: np.ndarray) -> list[int]:
    """Earliest row of each row's class: per block of rows one ``(B, 1)
    @ (1, G)`` stacked product and a lexsort for each row's least image,
    then one ``unique`` over those keys."""
    n, g = stack.shape[1], perms.shape[0]
    block = max(1, _IMAGE_ENTRIES // (g * n * n))
    keys = []
    for start in range(0, stack.shape[0], block):
        part = stack[start:start + block]
        images = np.matmul(part[:, None], perms[None]).reshape(-1, n * n)
        owner = np.repeat(np.arange(len(part)), g)
        order = np.lexsort((*images.T[::-1], owner))
        keys.append(images[order[::g]])
    _, first, inverse = np.unique(
        np.concatenate(keys), axis=0, return_index=True, return_inverse=True
    )
    return first[inverse.reshape(-1)].tolist()


def _python_classes(rows, group) -> list[int]:
    seen: dict[tuple, int] = {}
    out = []
    for idx, t in enumerate(rows):
        key = min(
            tuple(
                sum(a * b for a, b in zip(row, col))
                for row in t
                for col in zip(*p)
            )
            for p in group
        )
        out.append(seen.setdefault(key, idx))
    return out
