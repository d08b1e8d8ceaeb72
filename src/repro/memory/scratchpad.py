"""Scratchpad buffer simulation.

Executes a program's access trace against an on-chip buffer of a given
capacity managed with the optimal (Belady) policy the window model
implies: an element is kept exactly while it will be used again.  When
the buffer is at least the program's MWS, every element is fetched from
off-chip exactly once (cold misses only); smaller buffers evict live
elements and re-fetch them.  This is the operational meaning of "MWS =
minimum memory" and the conservation law the tests check.

:func:`access_stream` builds the one trace, as arrays from the dense
window engine's caches, that this buffer, the tier stack of
:mod:`repro.memory.hierarchy` and the transfer bound of
:mod:`repro.estimation.bounds` replay; the ``access-trace-reference``
oracle holds it to a per-point walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window import fast


@dataclass(frozen=True)
class ScratchpadStats:
    """Outcome of a scratchpad simulation."""

    capacity: int
    accesses: int
    hits: int
    cold_misses: int
    capacity_misses: int
    writebacks: int

    @property
    def misses(self) -> int:
        return self.cold_misses + self.capacity_misses

    @property
    def offchip_transfers(self) -> int:
        """Fetches plus writebacks — the traffic a bus would carry."""
        return self.misses + self.writebacks

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def access_stream(
    program: Program,
    array: str | None = None,
    transformation: IntMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The program's ``(element id, is_write)`` trace as two arrays:
    point by point in execution order, and within a point in the order
    of ``program.references``.

    ``array`` restricts the trace to one array; ``transformation``
    replays it in the order of :func:`repro.window.fast.execution_order`
    (the window engines' checks and 2**62 screen on ``T``).  Ids are the
    engine's cached dense per-array element ids, each array's offset by
    the element counts of the arrays before it.  Every buffer model
    replays this one trace, which is what makes a one-tier hierarchy
    reproduce :func:`simulate_scratchpad` exactly.  A nest past
    ``REPRO_DENSE_BUDGET`` raises ``ValueError``.
    """
    refs = [
        ref for ref in program.references if array is None or ref.array == array
    ]
    if not refs:
        raise KeyError(array)
    order = fast.execution_order(program, transformation)
    # Each array's per-reference ids, claimed in reference order.
    ids, offsets, end = {}, {}, 0
    for name in dict.fromkeys(ref.array for ref in refs):
        element = fast._element_state(program, name)
        ids[name], offsets[name] = iter(element.ids), end
        end += element.packed.shape[0]
    elements = np.empty((order.shape[0], len(refs)), dtype=np.int64)
    for column, ref in enumerate(refs):
        np.add(next(ids[ref.array])[order], offsets[ref.array],
               out=elements[:, column])
    writes = np.tile([ref.is_write for ref in refs], order.shape[0])
    return elements.ravel(), writes


def next_use_chain(elements: np.ndarray) -> np.ndarray:
    """For each access, the index of the element's next access (or the
    trace length): one stable argsort by element, whose runs list each
    element's accesses in trace order."""
    n = elements.shape[0]
    order = np.argsort(elements, kind="stable")
    same = elements[order[1:]] == elements[order[:-1]]
    next_use = np.full(n, n, dtype=np.int64)
    next_use[order[:-1][same]] = order[1:][same]
    return next_use


def simulate_stream(
    trace: tuple[np.ndarray, np.ndarray],
    next_use: np.ndarray,
    capacity: int,
    policy: str = "belady",
) -> ScratchpadStats:
    """Run a prepared access trace (:func:`access_stream`, with its
    :func:`next_use_chain`) through one managed buffer."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if policy not in ("belady", "lru"):
        raise ValueError(f"unknown policy {policy!r}")
    elements, writes = trace
    accesses = elements.shape[0]
    # Belady evicts the LARGEST next use; LRU evicts the SMALLEST last
    # use.  Store negated next-use so the min-heap pops the right victim
    # in both policies.
    priorities = (
        (-next_use).tolist() if policy == "belady" else range(accesses)
    )
    # resident maps element -> its current priority; the lazy heap
    # orders eviction victims.
    resident: dict[int, int] = {}
    dirty: set[int] = set()
    heap: list[tuple[int, int]] = []
    hits = writebacks = 0
    for element, is_write, prio in zip(
        elements.tolist(), writes.tolist(), priorities
    ):
        if element in resident:
            hits += 1
        elif len(resident) >= capacity:
            while True:
                victim_prio, victim = heapq.heappop(heap)
                if resident.get(victim) == victim_prio:
                    break
            del resident[victim]
            if victim in dirty:
                writebacks += 1
                dirty.discard(victim)
        resident[element] = prio
        heapq.heappush(heap, (prio, element))
        if is_write:
            dirty.add(element)
    # Every element's first access misses (cold); each element has one
    # last access, whose next use is the trace length.
    cold = int(np.count_nonzero(next_use == accesses))
    return ScratchpadStats(
        capacity=capacity,
        accesses=accesses,
        hits=hits,
        cold_misses=cold,
        capacity_misses=accesses - hits - cold,
        writebacks=writebacks + len(dirty),  # final flush of dirty lines
    )


def simulate_scratchpad(
    program: Program,
    capacity: int,
    array: str | None = None,
    transformation: IntMatrix | None = None,
    policy: str = "belady",
) -> ScratchpadStats:
    """Run the access trace through a managed on-chip buffer.

    ``array`` restricts the simulation to one array (per-array buffers are
    how the paper sizes windows); None simulates all arrays sharing the
    buffer.  ``transformation`` replays the trace in the transformed
    execution order.

    ``policy="belady"`` evicts the resident element whose next use is
    farthest in the future (never-used-again elements first) — optimal,
    matching the window model's assumption of perfect management, so a
    buffer of MWS elements suffers cold misses only.  ``policy="lru"``
    models a hardware cache without future knowledge; the ablation bench
    measures how much extra capacity LRU needs to reach the same traffic.
    """
    trace = access_stream(program, array, transformation)
    return simulate_stream(trace, next_use_chain(trace[0]), capacity, policy)
