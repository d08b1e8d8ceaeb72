"""Reuse vectors and reuse levels.

Paper Section 2: if iterations ``i`` and ``j`` access the same location,
``j - i`` is a *reuse vector*.  Self reuse comes from the kernel of the
access matrix (``d < n``); group reuse comes from offset differences among
uniformly generated references.  The *level* of a reuse vector (index of
its first nonzero) is what Section 4.3's transformation search pushes
inward: the deeper the carrying loop, the smaller the live window.
"""

from __future__ import annotations

from typing import Sequence

from repro.dependence.analysis import (
    array_distance_vectors,
    dependence_distance,
    self_reuse_distance,
)
from repro.dependence.distance import lex_level
from repro.ir.program import Program
from repro.ir.reference import ArrayRef


def reuse_vector(
    ref: ArrayRef, spans: Sequence[int]
) -> tuple[int, ...] | None:
    """The (single-reference) reuse vector: smallest lex-positive kernel
    element of the access matrix, e.g. ``(5, -2)`` for ``A[2i + 5j + 1]``
    (:func:`~repro.dependence.analysis.self_reuse_distance`).
    """
    return self_reuse_distance(ref, spans)


def reuse_vectors(program: Program, array: str) -> list[tuple[int, ...]]:
    """All reuse vectors for one (uniformly generated) array.

    The union of self-reuse kernel vectors and pairwise group-reuse
    distances — identical to the dependence distance set with input
    dependences included, which is exactly how the paper uses the term.
    """
    return array_distance_vectors(program, array, include_input=True)


def reuse_level(vector: tuple[int, ...]) -> int | None:
    """1-based loop level carrying the reuse (paper Section 2)."""
    return lex_level(vector)


def group_reuse_distances(
    refs: list[ArrayRef], spans: Sequence[int]
) -> list[tuple[int, ...]]:
    """Distance vectors from each reference to one designated sink.

    Section 3.1 computes reuse from the ``r - 1`` dependences into the
    sink reference; this returns those distances with the sink chosen to
    make all of them lex-positive (the lexicographically last reference).
    ``spans`` is the nest's difference box
    (:func:`~repro.dependence.analysis.dependence_distance`).
    """
    if len(refs) < 2:
        return []
    # Choose as sink the reference whose offset makes every incoming
    # distance lex-positive: the one accessed "earliest" in element space.
    best_sink = None
    best_distances: list[tuple[int, ...]] | None = None
    for sink in refs:
        distances = []
        ok = True
        for src in refs:
            if src is sink:
                continue
            d = dependence_distance(src, sink, spans)
            if d is None:
                ok = False
                break
            distances.append(d)
        if ok and (best_distances is None or len(distances) > len(best_distances)):
            best_sink = sink
            best_distances = distances
    if best_distances is None:
        return []
    return best_distances
