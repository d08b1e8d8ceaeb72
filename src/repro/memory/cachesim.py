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

from repro.ir.program import Program
from repro.layout.layouts import Layout, RowMajorLayout
from repro.linalg import IntMatrix
from repro.window.simulator import _iteration_order


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
    in the order the reference window engine validates and gives ``T``."""
    bases, layout = allocate_arrays(program, layout)
    decls = {decl.name: decl for decl in program.decls}
    order = _iteration_order(program, transformation)
    points = order if order is not None else program.nest.iterate()

    sets: list[OrderedDict[int, None]] = [
        OrderedDict() for _ in range(config.n_sets)
    ]
    hits = misses = accesses = 0
    refs = list(program.references)
    address_cache: dict[tuple[str, tuple[int, ...]], int] = {}
    for point in points:
        for ref in refs:
            element = ref.element(point)
            key = (ref.array, element)
            addr = address_cache.get(key)
            if addr is None:
                addr = bases[ref.array] + layout.address(decls[ref.array], element)
                address_cache[key] = addr
            line = addr // config.line_size
            set_index = line % config.n_sets
            ways = sets[set_index]
            accesses += 1
            if line in ways:
                hits += 1
                ways.move_to_end(line)
            else:
                misses += 1
                ways[line] = None
                if len(ways) > config.associativity:
                    ways.popitem(last=False)
    return CacheStats(config, accesses, hits, misses)
