"""Set-associative cache simulation over laid-out addresses.

Complements the scratchpad model: where the scratchpad is software-
managed at element granularity with perfect knowledge, a cache is
hardware-managed at line granularity with LRU — the realistic fallback
when an embedded platform has no scratchpad.  Arrays are allocated
back-to-back in a single address space under a chosen layout.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.ir.program import Program
from repro.layout.layouts import Layout, RowMajorLayout
from repro.linalg import IntMatrix
from repro.memory.scratchpad import access_stream
from repro.window.fast import lifetime_table


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache (sizes in words/lines)."""

    total_lines: int
    line_size: int = 8
    associativity: int = 4

    def __post_init__(self) -> None:
        if self.total_lines <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ValueError("cache parameters must be positive")
        if self.total_lines % self.associativity != 0:
            raise ValueError("total_lines must be a multiple of associativity")

    @property
    def n_sets(self) -> int:
        return self.total_lines // self.associativity

    @property
    def capacity_words(self) -> int:
        return self.total_lines * self.line_size


@dataclass(frozen=True)
class CacheStats:
    """Outcome of a cache simulation."""

    config: CacheConfig
    accesses: int
    hits: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def allocate_arrays(program: Program, layout: Layout | None = None):
    """Assign each array a base address (packed allocation, in order).

    Returns ``(bases, layout)`` where ``bases[array]`` is the word base.
    """
    layout = layout or RowMajorLayout()
    bases: dict[str, int] = {}
    cursor = 0
    for decl in program.decls:
        bases[decl.name] = cursor
        cursor += decl.declared_size
    return bases, layout


def simulate_cache(
    program: Program,
    config: CacheConfig,
    layout: Layout | None = None,
    transformation: IntMatrix | None = None,
) -> CacheStats:
    """Run the full access stream through a set-associative LRU cache,
    in the order :func:`~repro.memory.scratchpad.access_stream` gives
    ``T`` (with the window engines' checks on it)."""
    bases, layout = allocate_arrays(program, layout)
    elements, _ = access_stream(program, transformation=transformation)
    # Line of every element id: arrays claim id ranges in the order of
    # ``program.arrays``, as in the trace.
    lines = np.concatenate([
        lifetime_table(program, name).addresses(
            layout, program.decl(name), bases[name]
        )
        for name in program.arrays
    ])[elements] // config.line_size
    sets: list[OrderedDict[int, None]] = [
        OrderedDict() for _ in range(config.n_sets)
    ]
    hits = 0
    set_of = (lines % config.n_sets).tolist()
    for line, set_index in zip(lines.tolist(), set_of):
        ways = sets[set_index]
        if line in ways:
            hits += 1
            ways.move_to_end(line)
        else:
            ways[line] = None
            if len(ways) > config.associativity:
                ways.popitem(last=False)
    accesses = lines.shape[0]
    return CacheStats(config, accesses, hits, accesses - hits)
