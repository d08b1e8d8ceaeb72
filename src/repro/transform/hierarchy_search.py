"""Joint (transformation, tile size, tier placement) search.

The flat-buffer pipeline picks a transformation, then a tile whose
footprint fits *the* buffer.  A hierarchy adds a third axis: each array
can live in any tier (core-addressable TCM-style memories, so an access
to a tier costs that tier's energy directly), and the DMA engine streams
each tile's footprint in from the backing store and dirty elements back
out.  This module searches the cross-product

    legal transformation x rectangular tile x per-array tier placement

for the plan minimizing modeled energy:

    sum_a accesses_a * E_tier(a)                       (core accesses)
  + sum_a (fetch_words_a + writeback_words_a) * E_back (DMA traffic)

with per-tier feasibility ``sum_{placed in k} worst_tile_footprint_a <=
capacity_k`` (the :class:`~repro.transform.tiling.TileFootprints`
numbers, exact even for partial boundary tiles).  The model is the
block-transfer view of the paper's Section 4.1 tiling requirement; the
exact optimally-managed stack simulation lives in
:func:`repro.memory.hierarchy.simulate_hierarchy` and is what the
conformance oracles pin.

Pruning follows the cascade discipline of :mod:`repro.transform.search`
— cheap admissible facts first, expensive exact evaluation only when it
could improve the incumbent:

* **floor prune** — :func:`repro.estimation.bounds.transfer_lower_bound`
  in its order-invariant regime (one phase: distinct + written words)
  lower-bounds *any* plan's DMA volume under *any* order, because every
  element is fetched at least once and every written element streamed
  back at least once.  Charging those words at the backing energy and
  every access at the cheapest tier gives ``floor_energy``; once the
  incumbent reaches it the remaining space is pruned *certified optimal*.
* **placement prune** — after a tile's footprints are measured, its DMA
  energy is fixed; if even the cheapest placement (everything in tier 1)
  cannot beat the incumbent, the placement enumeration is skipped.
* **symmetry prune** — a candidate ``T @ P`` for an earlier candidate
  ``T`` and an exact loop symmetry ``P``
  (:func:`repro.transform.symmetry.first_of_class`) with the same tile
  list has the same footprints, tile by tile, up to a relabeling of the
  arrays, so every one of its plans costs what one of ``T``'s does; it
  is skipped.

All three prunes are admissible, so ``prune=True`` and ``prune=False``
return identical winners (the cascade-parity property test).  The
phase-refined bound at the stack's total capacity is admissible against
the *simulated* transfers (the ``hierarchy-bound-admissible`` oracle)
and is reported as the result's certified off-chip floor.

Instrumentation: span ``search.hierarchy`` (one ``tiling.footprints``
child per measured tile), counters ``search.hierarchy.{lb_evals,pruned,
evaluated,configs}``, journal stage ``"hierarchy"``, and whole results
cached through :func:`repro.transform.search.cached_search` (record kind
``"hierarchy"``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from repro import obs
from repro.estimation.bounds import transfer_lower_bound
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.memory.hierarchy import MemoryHierarchy
from repro.transform import journal
from repro.transform.elementary import signed_permutation_stack
from repro.transform.legality import legal_matrices, ordering_distances
from repro.transform.search import cached_search
from repro.transform.symmetry import first_of_class
from repro.transform.tiling import is_fully_permutable, tile_footprints


@dataclass(frozen=True)
class HierarchyPlan:
    """One feasible configuration and its modeled cost.

    ``placement`` maps each array to a tier index (0 = fastest);
    ``access_energy_pj`` charges every reference at its tier's energy,
    ``traffic_energy_pj`` charges the whole-execution DMA volume at the
    backing-store energy.
    """

    transformation: IntMatrix | None
    tile: tuple[int, ...]
    placement: tuple[tuple[str, int], ...]
    access_energy_pj: float
    traffic_energy_pj: float
    fetch_words: int
    writeback_words: int

    @property
    def energy_pj(self) -> float:
        return self.access_energy_pj + self.traffic_energy_pj

    @property
    def offchip_words(self) -> int:
        """DMA words moved over the backing bus, both directions."""
        return self.fetch_words + self.writeback_words

    @property
    def placement_map(self) -> dict[str, int]:
        return dict(self.placement)

    def describe(self, hierarchy: MemoryHierarchy) -> str:
        tiers = ", ".join(
            f"{array}->{hierarchy.tiers[k].name}" for array, k in self.placement
        )
        t = "native" if self.transformation is None else str(self.transformation.rows)
        return f"T={t} tile={self.tile} [{tiers}] E={self.energy_pj:.0f}pJ"


@dataclass(frozen=True)
class HierarchySearchResult:
    """Outcome of one joint hierarchy search.

    ``best`` ranges over every placement; ``flat`` restricts placements
    to tier 1 only — the paper's single-buffer tiling evaluated under
    the *same* cost model, so ``best.energy_pj <= flat.energy_pj``
    always (the flat space is a subset of the joint space).
    ``floor_energy_pj`` is the admissible certified floor; when
    ``best.energy_pj`` equals it the plan is provably optimal for the
    model.  ``bound_words`` is the phase-refined transfer bound at the
    stack's total capacity under the winner's order.
    """

    program: str
    hierarchy: str
    best: HierarchyPlan
    flat: HierarchyPlan
    floor_energy_pj: float
    bound_words: int
    configs: int
    evaluated: int
    pruned: int
    method: str

    @property
    def savings_pct(self) -> float:
        """Energy saved by the joint plan relative to the flat plan."""
        if self.flat.energy_pj == 0:
            return 0.0
        return 100.0 * (1.0 - self.best.energy_pj / self.flat.energy_pj)


def _accesses_per_array(program: Program) -> dict[str, int]:
    iterations = math.prod(program.nest.trip_counts)
    counts: dict[str, int] = {}
    for ref in program.references:
        counts[ref.array] = counts.get(ref.array, 0) + 1
    return {array: n * iterations for array, n in counts.items()}


def default_candidates(program: Program) -> list[IntMatrix | None]:
    """Native order plus every legal signed permutation.

    Signed permutations are the Eisenbeis et al. space: cheap to
    enumerate at any depth, and interchanges are where tiling wins come
    from (skews are covered by passing explicit candidates).
    """
    identity = IntMatrix.identity(program.nest.depth)
    legal = legal_matrices(
        signed_permutation_stack(program.nest.depth), ordering_distances(program)
    )
    # The identity is the same order as None.
    return [None] + [t for t in legal if t != identity]


def tile_candidates(
    program: Program,
    transformation: IntMatrix | None = None,
    max_tile: int = 64,
) -> list[tuple[int, ...]]:
    """Tile shapes legal for this (transformed) nest.

    Fully permutable nests admit any rectangular tile: squares in
    doubling sizes (clipped per axis to the trip counts) plus the full
    iteration box (untiled).  Non-permutable nests keep only the two
    tiles that preserve execution order exactly — the unit tile and the
    full box.
    """
    trips = program.nest.trip_counts
    full = tuple(trips)
    if is_fully_permutable(program, transformation):
        sizes: list[int] = []
        s = 1
        while s <= min(max_tile, max(trips)):
            sizes.append(s)
            s *= 2
        candidates = [tuple(min(s, t) for t in trips) for s in sizes]
        candidates.append(full)
    else:
        candidates = [tuple(1 for _ in trips), full]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for tile in candidates:
        if tile not in seen:
            seen.add(tile)
            out.append(tile)
    return out


# ----------------------------------------------------------------------
# persistent-store codec (kind "hierarchy")
# ----------------------------------------------------------------------

def _encode_plan(plan: HierarchyPlan) -> dict:
    return {
        "t": None if plan.transformation is None else plan.transformation.rows,
        "tile": list(plan.tile),
        "placement": [[a, k] for a, k in plan.placement],
        "access_pj": plan.access_energy_pj,
        "traffic_pj": plan.traffic_energy_pj,
        "fetch": plan.fetch_words,
        "writeback": plan.writeback_words,
    }


def _decode_plan(value: dict) -> HierarchyPlan:
    t = value["t"]
    return HierarchyPlan(
        transformation=None if t is None else IntMatrix(
            tuple(tuple(int(v) for v in row) for row in t)
        ),
        tile=tuple(int(v) for v in value["tile"]),
        placement=tuple((str(a), int(k)) for a, k in value["placement"]),
        access_energy_pj=float(value["access_pj"]),
        traffic_energy_pj=float(value["traffic_pj"]),
        fetch_words=int(value["fetch"]),
        writeback_words=int(value["writeback"]),
    )


def _encode_result(result: HierarchySearchResult) -> dict:
    return {
        "hierarchy": result.hierarchy,
        "best": _encode_plan(result.best),
        "flat": _encode_plan(result.flat),
        "floor_pj": result.floor_energy_pj,
        "bound_words": result.bound_words,
        "configs": result.configs,
        "evaluated": result.evaluated,
        "pruned": result.pruned,
        "method": result.method,
    }


def _decode_result(value) -> HierarchySearchResult | None:
    """Stored payload -> result (named by the caller); ``None`` (a
    counted ``store.corrupt`` miss) when it does not decode."""
    try:
        return HierarchySearchResult(
            program="",
            hierarchy=str(value["hierarchy"]),
            best=_decode_plan(value["best"]),
            flat=_decode_plan(value["flat"]),
            floor_energy_pj=float(value["floor_pj"]),
            bound_words=int(value["bound_words"]),
            configs=int(value["configs"]),
            evaluated=int(value["evaluated"]),
            pruned=int(value["pruned"]),
            method=str(value["method"]),
        )
    except (KeyError, TypeError, ValueError, IndexError):
        obs.counter("store.corrupt")
        return None


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------

@obs.profiled("search.hierarchy")
def search_hierarchy(
    program: Program,
    hierarchy: MemoryHierarchy,
    candidates: list[IntMatrix | None] | None = None,
    max_tile: int = 64,
    prune: bool = True,
    store=None,
) -> HierarchySearchResult:
    """Search (transformation, tile, placement) for the cheapest plan.

    ``candidates`` defaults to :func:`default_candidates`; pass
    ``[None]`` to keep the native order.  With
    ``prune=False`` every feasible configuration is evaluated; the
    prunes are admissible, so the winner is identical either way (the
    counts differ, so ``prune`` is part of the cache key).  The whole
    result is cached through
    :func:`repro.transform.search.cached_search` under record kind
    ``"hierarchy"``, persisted when ``store=`` is passed.  The default
    candidates depend only on the program, so they are keyed as
    ``None`` and enumerated only when the search runs.
    """
    if candidates is not None and not candidates:
        raise ValueError("no candidate transformations")
    key = {
        "sig": program.signature(),
        "hier": hierarchy.spec(),
        "cands": None if candidates is None else [
            None if t is None else t.rows for t in candidates
        ],
        "max_tile": max_tile,
        "prune": prune,
    }
    result = cached_search(
        "hierarchy", key, store,
        lambda: _search(program, hierarchy, candidates, max_tile, prune),
        _encode_result, _decode_result,
    )
    # The signature leaves names out, so a hit answers with the caller's.
    return replace(result, program=program.name)


def _search(
    program: Program,
    hierarchy: MemoryHierarchy,
    candidates: list[IntMatrix | None] | None,
    max_tile: int,
    prune: bool,
) -> HierarchySearchResult:
    if candidates is None:
        candidates = default_candidates(program)
    arrays = sorted(program.arrays)
    accesses = _accesses_per_array(program)
    tiers = hierarchy.tiers
    e_back = hierarchy.offchip_energy_pj
    e_min = tiers[0].energy_pj
    total_accesses = sum(accesses.values())
    jr = journal.active()

    # Order-invariant admissible floor: every distinct element crosses
    # the backing bus in at least once, every written element at least
    # once out, and no access can cost less than the fastest tier.
    obs.counter("search.hierarchy.lb_evals")
    floor_words = transfer_lower_bound(program, capacity=1 << 62)
    floor_energy = total_accesses * e_min + floor_words * e_back

    best: HierarchyPlan | None = None
    flat: HierarchyPlan | None = None
    configs = evaluated = pruned = 0
    firsts = first_of_class(program, candidates) if prune else None
    first_tiles: dict[int, list[tuple[int, ...]]] = {}

    def consider(plan: HierarchyPlan, is_flat: bool) -> None:
        nonlocal best, flat
        if best is None or plan.energy_pj < best.energy_pj:
            best = plan
        if is_flat and (flat is None or plan.energy_pj < flat.energy_pj):
            flat = plan

    for idx, t in enumerate(candidates):
        # Floor prune: the incumbent already meets the certified floor,
        # so no remaining configuration can strictly improve on it.  The
        # flat incumbent must meet it too, or a flat-only improvement
        # could still be missed.
        if (
            prune
            and best is not None
            and flat is not None
            and best.energy_pj <= floor_energy
            and flat.energy_pj <= floor_energy
        ):
            obs.counter("search.hierarchy.pruned")
            pruned += 1
            if jr is not None:
                jr.record(
                    "hierarchy",
                    None if t is None else t.rows,
                    "pruned",
                    reason="hierarchy_floor: incumbent at certified floor",
                    estimate=int(floor_energy),
                )
            continue
        tiles = tile_candidates(program, t, max_tile)
        if firsts is not None:
            # Symmetry prune: an earlier candidate of this class, over
            # the same tiles, already offered every plan this one has.
            first = firsts[idx]
            if first != idx and first_tiles.get(first) == tiles:
                obs.counter("search.hierarchy.pruned")
                pruned += 1
                if jr is not None:
                    jr.record(
                        "hierarchy",
                        None if t is None else t.rows,
                        "pruned",
                        reason=(f"hierarchy_symmetry: same plans as "
                                f"candidate {first} (T @ P for a loop "
                                f"symmetry P)"),
                        estimate=int(floor_energy),
                    )
                continue
            first_tiles[idx] = tiles
        best_for_t: HierarchyPlan | None = None
        for tile in tiles:
            fp = tile_footprints(program, tile, t)
            fetch = sum(fp.fetch_words.values())
            writeback = sum(fp.writeback_words.values())
            traffic_energy = (fetch + writeback) * e_back
            # The all-in-tier-1 placement is both the flat baseline and
            # the cheapest-access placement; evaluate it first so the
            # placement prune below can never hide a flat improvement.
            flat_placement = tuple((a, 0) for a in arrays)
            flat_used = sum(fp.per_array[a] for a in arrays)
            configs += 1
            if flat_used <= tiers[0].capacity_words:
                evaluated += 1
                obs.counter("search.hierarchy.evaluated")
                plan = HierarchyPlan(
                    transformation=t,
                    tile=tile,
                    placement=flat_placement,
                    access_energy_pj=total_accesses * e_min,
                    traffic_energy_pj=traffic_energy,
                    fetch_words=fetch,
                    writeback_words=writeback,
                )
                consider(plan, is_flat=True)
                if best_for_t is None or plan.energy_pj < best_for_t.energy_pj:
                    best_for_t = plan
            # Placement prune: DMA energy is fixed for this tile; if the
            # cheapest conceivable access energy cannot beat the
            # incumbent, skip the placement enumeration.
            lb_tile = total_accesses * e_min + traffic_energy
            if prune and best is not None and lb_tile >= best.energy_pj:
                obs.counter("search.hierarchy.pruned")
                pruned += 1
                if jr is not None:
                    jr.record(
                        "hierarchy",
                        (None if t is None else t.rows, tile),
                        "pruned",
                        reason="hierarchy_tile_lb: DMA volume alone loses",
                        estimate=int(lb_tile),
                    )
                continue
            for placement in itertools.product(range(len(tiers)), repeat=len(arrays)):
                if all(k == 0 for k in placement):
                    continue  # already evaluated as the flat baseline
                configs += 1
                feasible = True
                for k, tier in enumerate(tiers):
                    used = sum(
                        fp.per_array[a]
                        for a, tk in zip(arrays, placement)
                        if tk == k
                    )
                    if used > tier.capacity_words:
                        feasible = False
                        break
                if not feasible:
                    continue
                evaluated += 1
                obs.counter("search.hierarchy.evaluated")
                access_energy = sum(
                    accesses[a] * tiers[k].energy_pj
                    for a, k in zip(arrays, placement)
                )
                plan = HierarchyPlan(
                    transformation=t,
                    tile=tile,
                    placement=tuple(zip(arrays, placement)),
                    access_energy_pj=access_energy,
                    traffic_energy_pj=traffic_energy,
                    fetch_words=fetch,
                    writeback_words=writeback,
                )
                consider(plan, is_flat=False)
                if best_for_t is None or plan.energy_pj < best_for_t.energy_pj:
                    best_for_t = plan
        if jr is not None and best_for_t is not None:
            jr.record(
                "hierarchy",
                None if t is None else t.rows,
                "computed",
                estimate=int(floor_energy),
                exact=int(best_for_t.energy_pj),
            )
    obs.counter("search.hierarchy.configs", configs)

    if best is None or flat is None:
        raise ValueError(
            f"{program.name}: no feasible plan — even the unit tile "
            f"overflows the hierarchy {hierarchy.name!r}"
        )
    obs.counter("search.hierarchy.lb_evals")
    bound_words = transfer_lower_bound(
        program, hierarchy.total_capacity, transformation=best.transformation
    )
    return HierarchySearchResult(
        program=program.name,
        hierarchy=hierarchy.name,
        best=best,
        flat=flat,
        floor_energy_pj=floor_energy,
        bound_words=bound_words,
        configs=configs,
        evaluated=evaluated,
        pruned=pruned,
        method="cascade" if prune else "exhaustive",
    )
