"""Memory sizing: from a program to a provisioned data memory.

The end-to-end flow the paper proposes for an embedded-system designer:

1. estimate/measure the maximum window size of the (possibly transformed)
   nest — that is the minimum on-chip data memory that avoids re-fetches;
2. provision that capacity (optionally rounded to a power of two, as
   memory generators require);
3. report the energy/latency/area this saves against the naive
   declared-size allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.memory.energy import MemoryCostModel
from repro.memory.hierarchy import (
    HierarchyStats,
    MemoryHierarchy,
    simulate_hierarchy,
)
from repro.memory.scratchpad import simulate_scratchpad
from repro.window.simulator import max_total_window


def _round_up_pow2(value: int) -> int:
    out = 1
    while out < value:
        out *= 2
    return out


@dataclass(frozen=True)
class SizingReport:
    """Provisioning outcome for one program (one transformation state)."""

    program: str
    declared_words: int
    mws_words: int
    provisioned_words: int
    offchip_transfers: int
    energy_per_access_pj: float
    naive_energy_per_access_pj: float
    latency_ns: float
    naive_latency_ns: float
    area_mm2: float
    naive_area_mm2: float

    @property
    def memory_reduction(self) -> float:
        """Fractional reduction vs. the declared allocation."""
        if self.declared_words == 0:
            return 0.0
        return 1.0 - self.mws_words / self.declared_words

    @property
    def energy_reduction(self) -> float:
        return 1.0 - self.energy_per_access_pj / self.naive_energy_per_access_pj


def size_memory_for_program(
    program: Program,
    transformation: IntMatrix | None = None,
    model: MemoryCostModel | None = None,
    round_pow2: bool = True,
) -> SizingReport:
    """Measure MWS, provision a buffer, and verify with the scratchpad.

    The scratchpad run at the provisioned capacity double-checks the MWS
    claim: off-chip transfers must equal cold misses plus writebacks (no
    capacity misses).
    """
    model = model or MemoryCostModel()
    declared = program.default_memory
    mws = max_total_window(program, transformation)
    capacity = max(1, mws)
    provisioned = _round_up_pow2(capacity) if round_pow2 else capacity
    stats = simulate_scratchpad(program, provisioned, transformation=transformation)
    return SizingReport(
        program=program.name,
        declared_words=declared,
        mws_words=mws,
        provisioned_words=provisioned,
        offchip_transfers=stats.offchip_transfers,
        energy_per_access_pj=model.energy_per_access_pj(provisioned),
        naive_energy_per_access_pj=model.energy_per_access_pj(max(1, declared)),
        latency_ns=model.latency_ns(provisioned),
        naive_latency_ns=model.latency_ns(max(1, declared)),
        area_mm2=model.area_mm2(provisioned),
        naive_area_mm2=model.area_mm2(max(1, declared)),
    )


@dataclass(frozen=True)
class HierarchySizingReport:
    """Provisioning outcome of one program against one tier stack.

    ``tiers_needed`` is the shallowest prefix of the stack whose summed
    capacity covers the program's MWS — with perfect management those
    tiers alone suffer cold misses only, so deeper tiers are dead weight
    for this nest (``None`` when even the whole stack is too small and
    capacity misses are unavoidable).
    """

    program: str
    hierarchy: str
    mws_words: int
    tiers_needed: int | None
    stats: HierarchyStats

    @property
    def offchip_transfers(self) -> int:
        return self.stats.offchip_transfers

    @property
    def energy_pj(self) -> float:
        return self.stats.energy_pj


def tiers_needed(hierarchy: MemoryHierarchy, mws_words: int) -> int | None:
    """The shallowest prefix of the stack whose summed capacity covers
    ``mws_words`` (see :class:`HierarchySizingReport`); ``None`` when
    even the whole stack is too small."""
    for index, cumulative in enumerate(hierarchy.cumulative_capacities):
        if cumulative >= max(1, mws_words):
            return index + 1
    return None


def size_memory_for_hierarchy(
    program: Program,
    hierarchy: MemoryHierarchy,
    transformation: IntMatrix | None = None,
    policy: str = "belady",
) -> HierarchySizingReport:
    """Measure MWS, simulate the stack, and report which tiers matter.

    The hierarchy analogue of :func:`size_memory_for_program`: instead
    of provisioning one buffer it answers "which prefix of this stack
    does the nest actually need, and what traffic/energy does the full
    stack deliver".
    """
    mws = max_total_window(program, transformation)
    stats = simulate_hierarchy(
        program, hierarchy, transformation=transformation, policy=policy
    )
    return HierarchySizingReport(
        program=program.name,
        hierarchy=hierarchy.name,
        mws_words=mws,
        tiers_needed=tiers_needed(hierarchy, mws),
        stats=stats,
    )
