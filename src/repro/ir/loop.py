"""Loops and loop nests with rectangular integer bounds."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Loop:
    """One loop level: ``for <index> = <lower> to <upper>`` (inclusive).

    The paper's model uses unit-stride loops with integer bounds; lower
    bounds are usually 1 but any integers with ``lower <= upper`` are
    allowed.
    """

    index: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if not isinstance(self.lower, int) or not isinstance(self.upper, int):
            raise TypeError("loop bounds must be ints")
        if self.lower > self.upper:
            raise ValueError(
                f"empty loop {self.index}: lower {self.lower} > upper {self.upper}"
            )
        if not self.index.isidentifier():
            raise ValueError(f"invalid loop index name {self.index!r}")

    @property
    def trip_count(self) -> int:
        """Number of iterations ``N = upper - lower + 1``."""
        return self.upper - self.lower + 1

    @property
    def span(self) -> int:
        """``upper - lower`` — the paper's ``N - 1`` when lower is 1."""
        return self.upper - self.lower

    def __str__(self) -> str:
        return f"for {self.index} = {self.lower} to {self.upper}"


class LoopNest:
    """A perfectly nested sequence of loops, outermost first.

    Provides the sequential (row-major / lexicographic) iteration order
    that defines execution time in the paper's window model.
    """

    def __init__(self, loops: Sequence[Loop]):
        loops = tuple(loops)
        if not loops:
            raise ValueError("a loop nest needs at least one loop")
        names = [lp.index for lp in loops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate loop index names in {names}")
        self.loops: tuple[Loop, ...] = loops

    @property
    def depth(self) -> int:
        """Nesting level ``n``."""
        return len(self.loops)

    @property
    def index_names(self) -> tuple[str, ...]:
        return tuple(lp.index for lp in self.loops)

    @property
    def lowers(self) -> tuple[int, ...]:
        return tuple(lp.lower for lp in self.loops)

    @property
    def uppers(self) -> tuple[int, ...]:
        return tuple(lp.upper for lp in self.loops)

    @property
    def trip_counts(self) -> tuple[int, ...]:
        """The paper's ``(N1, ..., Nn)``."""
        return tuple(lp.trip_count for lp in self.loops)

    @property
    def spans(self) -> tuple[int, ...]:
        """The difference box: two iterations differ by ``d`` iff
        ``|d_k| <= spans[k]`` for every ``k``."""
        return tuple(lp.span for lp in self.loops)

    @property
    def total_iterations(self) -> int:
        out = 1
        for lp in self.loops:
            out *= lp.trip_count
        return out

    def iterate(self) -> Iterator[tuple[int, ...]]:
        """Yield iteration vectors in sequential (lexicographic) order."""
        ranges = [range(lp.lower, lp.upper + 1) for lp in self.loops]
        return itertools.product(*ranges)

    def contains(self, point: Sequence[int]) -> bool:
        """Is ``point`` inside the iteration space?"""
        if len(point) != self.depth:
            return False
        return all(
            lp.lower <= x <= lp.upper for lp, x in zip(self.loops, point)
        )

    def linearize(self, point: Sequence[int]) -> int:
        """Sequential position (0-based) of an iteration vector.

        The inverse of enumerating ``iterate()``; used to timestamp
        accesses in the window simulator.
        """
        if not self.contains(point):
            raise ValueError(f"point {tuple(point)} outside nest bounds")
        pos = 0
        for lp, x in zip(self.loops, point):
            pos = pos * lp.trip_count + (x - lp.lower)
        return pos

    def loop(self, index: str) -> Loop:
        """Look a loop up by its index variable name."""
        for lp in self.loops:
            if lp.index == index:
                return lp
        raise KeyError(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopNest):
            return NotImplemented
        return self.loops == other.loops

    def __hash__(self) -> int:
        return hash(self.loops)

    def __repr__(self) -> str:
        return f"LoopNest({list(self.loops)!r})"

    def __str__(self) -> str:
        return "\n".join(
            "  " * depth + str(lp) for depth, lp in enumerate(self.loops)
        )
