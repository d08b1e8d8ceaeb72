"""Multi-level memory hierarchy model and exact tier-stack simulation.

The paper provisions one flat on-chip buffer; a real embedded target has
a *stack* of memories — TCM / L1 cache / system SRAM backed by flash or
DRAM — with very different capacities, latencies and per-access energies
(the Cortex-M-class numbers in the ROADMAP: 16–64KB caches, 128–512KB
TCM, 4–10-cycle system SRAM).  This module models that stack and
simulates a program's access trace through it exactly.

The simulation is the stacked (exclusive) generalization of the flat
Belady scratchpad: the first ``k`` tiers together behave like one
optimally managed buffer of their summed capacity, so an access resolves
at tier ``k`` exactly when it hits at cumulative capacity ``c_1 + ... +
c_k`` but misses at ``c_1 + ... + c_{k-1}``.  Each boundary's traffic
(fetches up, dirty writebacks down) is read off the flat simulation at
the boundary's cumulative capacity — all tiers replay the *same* array
trace (:func:`repro.memory.scratchpad.access_stream`, dense like the
window engine it reads) and one next-use chain, which is what makes a
one-tier hierarchy reproduce :func:`simulate_scratchpad` field for
field (the ``hierarchy-degenerate-flat`` conformance oracle).

Two laws follow and are fuzzed as oracles:

* degenerate equivalence — one tier of capacity ``c`` gives exactly the
  flat ``ScratchpadStats`` at ``c``;
* monotonicity — growing any tier (with per-access costs held fixed)
  never increases any boundary's transfers, the off-chip traffic, or the
  modeled energy/latency, because Belady misses and writebacks are
  non-increasing in capacity (the stack property) and the constructor
  validates that per-access costs are non-decreasing with tier depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.memory.scratchpad import (
    ScratchpadStats,
    access_stream,
    next_use_chain,
    simulate_stream,
)

#: Words are 4-byte data words throughout (1KB == 256 words).
WORDS_PER_KB = 256


@dataclass(frozen=True)
class MemoryTier:
    """One on-chip memory level: capacity plus fixed per-access costs.

    ``energy_pj`` and ``latency_ns`` are properties of the physical
    memory the preset names (a 16KB cache, a 256KB TCM), *not* derived
    from ``capacity_words`` — holding them fixed while a capacity grows
    is what makes the monotonicity law well-posed.
    """

    name: str
    capacity_words: int
    latency_ns: float
    energy_pj: float

    def __post_init__(self) -> None:
        if self.capacity_words <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        if self.latency_ns <= 0 or self.energy_pj <= 0:
            raise ValueError(f"tier {self.name!r}: costs must be positive")


@dataclass(frozen=True)
class MemoryHierarchy:
    """An ordered stack of tiers, fastest first, over an off-chip backing.

    Per-access energy and latency must be non-decreasing with depth and
    bounded by the off-chip costs — that ordering (smaller memories are
    cheaper to touch) is what the monotonicity oracle's energy claim
    rests on, so it is validated here rather than assumed.
    """

    name: str
    tiers: tuple[MemoryTier, ...]
    offchip_energy_pj: float = 200.0
    offchip_latency_ns: float = 100.0

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a hierarchy needs at least one tier")
        for above, below in zip(self.tiers, self.tiers[1:]):
            if below.energy_pj < above.energy_pj:
                raise ValueError(
                    f"tier {below.name!r} is cheaper per access than "
                    f"{above.name!r} above it"
                )
            if below.latency_ns < above.latency_ns:
                raise ValueError(
                    f"tier {below.name!r} is faster than {above.name!r} "
                    "above it"
                )
        last = self.tiers[-1]
        if self.offchip_energy_pj < last.energy_pj:
            raise ValueError("off-chip energy below the last tier's")
        if self.offchip_latency_ns < last.latency_ns:
            raise ValueError("off-chip latency below the last tier's")

    @property
    def depth(self) -> int:
        return len(self.tiers)

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(tier.capacity_words for tier in self.tiers)

    @property
    def cumulative_capacities(self) -> tuple[int, ...]:
        out, total = [], 0
        for tier in self.tiers:
            total += tier.capacity_words
            out.append(total)
        return tuple(out)

    @property
    def total_capacity(self) -> int:
        return sum(tier.capacity_words for tier in self.tiers)

    def resized(self, index: int, capacity_words: int) -> "MemoryHierarchy":
        """A copy with one tier's capacity replaced (costs untouched)."""
        tiers = list(self.tiers)
        tiers[index] = replace(tiers[index], capacity_words=capacity_words)
        return replace(self, tiers=tuple(tiers))

    def spec(self) -> dict:
        """Canonical JSON-able description — the store-key identity."""
        return {
            "name": self.name,
            "tiers": [
                [t.name, t.capacity_words, t.latency_ns, t.energy_pj]
                for t in self.tiers
            ],
            "offchip_energy_pj": self.offchip_energy_pj,
            "offchip_latency_ns": self.offchip_latency_ns,
        }


@dataclass(frozen=True)
class TierStats:
    """One tier's share of a hierarchy simulation.

    ``lookups`` are the accesses that reached this tier (missed every
    faster one); ``hits`` resolved here; ``transfers_below`` is the
    traffic on the boundary to the next level down — fetches coming up
    plus dirty writebacks going down.
    """

    name: str
    capacity_words: int
    lookups: int
    hits: int
    fetches_below: int
    writebacks_below: int

    @property
    def transfers_below(self) -> int:
        return self.fetches_below + self.writebacks_below


@dataclass(frozen=True)
class HierarchyStats:
    """Exact outcome of one program run through a tier stack.

    ``levels`` keeps the flat Belady stats at each cumulative-capacity
    boundary — ``levels[k]`` is exactly what a flat scratchpad of the
    first ``k+1`` tiers' summed capacity would report, so a one-tier
    hierarchy exposes the flat simulation unchanged as ``levels[0]``.
    """

    hierarchy: str
    accesses: int
    tiers: tuple[TierStats, ...]
    levels: tuple[ScratchpadStats, ...]
    energy_pj: float
    latency_ns: float

    @property
    def offchip_fetches(self) -> int:
        return self.levels[-1].misses

    @property
    def offchip_writebacks(self) -> int:
        return self.levels[-1].writebacks

    @property
    def offchip_transfers(self) -> int:
        """Traffic on the off-chip bus — the paper's headline number."""
        return self.levels[-1].offchip_transfers

    @property
    def hits_per_tier(self) -> tuple[int, ...]:
        return tuple(t.hits for t in self.tiers)


def simulate_hierarchy(
    program: Program,
    hierarchy: MemoryHierarchy,
    array: str | None = None,
    transformation: IntMatrix | None = None,
    policy: str = "belady",
) -> HierarchyStats:
    """Run the access trace through the tier stack, exactly.

    One shared trace, one flat Belady (or LRU) simulation per cumulative
    capacity boundary; per-tier hits and boundary traffic are differences
    between adjacent boundaries.  Energy charges every access at the
    energy of the tier that resolved it, every dirty demotion at the
    receiving tier, and off-chip traffic at the backing cost; latency is
    the same sum over latencies.
    """
    trace = access_stream(program, array, transformation)
    next_use = next_use_chain(trace[0])
    levels = tuple(
        simulate_stream(trace, next_use, capacity, policy)
        for capacity in hierarchy.cumulative_capacities
    )
    accesses = len(next_use)
    tiers = []
    energy = 0.0
    latency = 0.0
    prev_misses = accesses  # an empty zeroth level misses everything
    for tier, level in zip(hierarchy.tiers, levels):
        lookups = prev_misses
        hits = lookups - level.misses
        tiers.append(
            TierStats(
                name=tier.name,
                capacity_words=tier.capacity_words,
                lookups=lookups,
                hits=hits,
                fetches_below=level.misses,
                writebacks_below=level.writebacks,
            )
        )
        energy += hits * tier.energy_pj
        latency += hits * tier.latency_ns
        prev_misses = level.misses
    # Dirty demotions land in the next tier down (a write access there);
    # the last boundary's traffic pays the off-chip cost both ways.
    for below, level in zip(hierarchy.tiers[1:], levels[:-1]):
        energy += level.writebacks * below.energy_pj
        latency += level.writebacks * below.latency_ns
    bottom = levels[-1]
    energy += bottom.offchip_transfers * hierarchy.offchip_energy_pj
    latency += bottom.offchip_transfers * hierarchy.offchip_latency_ns
    return HierarchyStats(
        hierarchy=hierarchy.name,
        accesses=accesses,
        tiers=tuple(tiers),
        levels=levels,
        energy_pj=energy,
        latency_ns=latency,
    )


def _kb(kilobytes: int) -> int:
    return kilobytes * WORDS_PER_KB


#: Cortex-M-class presets (capacities from the ROADMAP's Helium memory
#: guide numbers; energies/latencies follow the CACTI-style ordering:
#: small and close is cheap, big and far is expensive, off-chip is 200pJ
#: to match :meth:`MemoryCostModel.total_energy_pj`).
PRESETS: dict[str, MemoryHierarchy] = {
    # 16KB L1-style cache over a 128KB TCM, flash behind — the preset the
    # hierarchy search and its benchmark run against.
    "tcm": MemoryHierarchy(
        name="tcm",
        tiers=(
            MemoryTier("l1", _kb(16), 1.0, 5.0),
            MemoryTier("tcm", _kb(128), 2.0, 7.0),
        ),
    ),
    # Three-level cache path: 16KB L1, 64KB L2, 512KB system SRAM.
    "cache": MemoryHierarchy(
        name="cache",
        tiers=(
            MemoryTier("l1", _kb(16), 1.0, 5.0),
            MemoryTier("l2", _kb(64), 3.0, 10.0),
            MemoryTier("sram", _kb(512), 8.0, 25.0),
        ),
    ),
    # One flat 64KB SRAM — the paper's single-buffer world as a preset.
    "flat": MemoryHierarchy(
        name="flat",
        tiers=(MemoryTier("sram", _kb(64), 4.0, 12.0),),
    ),
}


def preset(name: str) -> MemoryHierarchy:
    """Look a preset hierarchy up by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown hierarchy preset {name!r}; available: "
            f"{', '.join(PRESETS)}"
        ) from None
