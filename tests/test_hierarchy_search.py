"""Joint (transformation, tile, placement) hierarchy search.

The search must equal a from-scratch brute force that re-enumerates the
whole configuration space with its own cost arithmetic; pruned and
exhaustive runs must return the *same plan* (the prunes are admissible);
journal records and obs counters must reconcile with the result's own
numbers; and store round-trips must be exact with corrupt records
degrading to recomputes.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import pytest

from repro import obs
from repro.check.oracles import tile_footprints_reference
from repro.ir import parse_program
from repro.kernels import matmult, sor, two_point
from repro.linalg import IntMatrix
from repro.memory import MemoryHierarchy, MemoryTier, preset
from repro.store import SCHEMA_VERSION, ResultStore
from repro.transform import (
    HierarchyPlan,
    default_candidates,
    journal,
    search_hierarchy,
    tile_candidates,
)
from repro.transform.search import clear_search_cache

ANTIDIAG = parse_program(
    "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = A[i - 1][j + 1] } }",
    name="antidiag",
)


def _stack(*caps: int, e_back: float = 200.0) -> MemoryHierarchy:
    tiers = tuple(
        MemoryTier(f"t{k}", cap, 1.0 + k, 5.0 + 5.0 * k)
        for k, cap in enumerate(caps)
    )
    return MemoryHierarchy(name="test", tiers=tiers, offchip_energy_pj=e_back)


def _brute_force(program, hierarchy, candidates, max_tile=64):
    """Independent re-enumeration of the whole space with its own cost
    arithmetic over the per-point reference footprints; returns
    (best_energy, flat_energy)."""
    arrays = sorted(program.arrays)
    iterations = math.prod(program.nest.trip_counts)
    accesses = {}
    for ref in program.references:
        accesses[ref.array] = accesses.get(ref.array, 0) + iterations
    best = flat = None
    for t in candidates:
        for tile in tile_candidates(program, t, max_tile):
            fp = tile_footprints_reference(program, tile, t)
            traffic = (
                sum(fp.fetch_words.values())
                + sum(fp.writeback_words.values())
            ) * hierarchy.offchip_energy_pj
            for placement in itertools.product(
                range(hierarchy.depth), repeat=len(arrays)
            ):
                used = [0] * hierarchy.depth
                for array, k in zip(arrays, placement):
                    used[k] += fp.per_array[array]
                if any(
                    u > tier.capacity_words
                    for u, tier in zip(used, hierarchy.tiers)
                ):
                    continue
                energy = traffic + sum(
                    accesses[a] * hierarchy.tiers[k].energy_pj
                    for a, k in zip(arrays, placement)
                )
                if best is None or energy < best:
                    best = energy
                if all(k == 0 for k in placement):
                    if flat is None or energy < flat:
                        flat = energy
    return best, flat


class TestTileCandidates:
    def test_permutable_doubling_squares_plus_full_box(self):
        tiles = tile_candidates(matmult(6))
        assert tiles[-1] == (6, 6, 6)
        assert (1, 1, 1) in tiles
        assert (2, 2, 2) in tiles
        assert (4, 4, 4) in tiles
        assert len(tiles) == len(set(tiles))  # deduped

    def test_clipped_per_axis(self):
        program = parse_program(
            "for i = 1 to 16 { for j = 1 to 3 { A[i][j] = A[i][j] } }"
        )
        tiles = tile_candidates(program)
        assert (4, 3) in tiles  # j axis clips at its trip count
        assert all(tile[1] <= 3 for tile in tiles)

    def test_non_permutable_keeps_order_preserving_tiles_only(self):
        assert tile_candidates(ANTIDIAG) == [(1, 1), (6, 6)]

    def test_max_tile_cap(self):
        tiles = tile_candidates(matmult(6), max_tile=2)
        assert max(max(t) for t in tiles[:-1]) <= 2


class TestPlan:
    def test_properties_and_describe(self):
        plan = HierarchyPlan(
            transformation=None,
            tile=(2, 2),
            placement=(("A", 1), ("B", 0)),
            access_energy_pj=100.0,
            traffic_energy_pj=40.0,
            fetch_words=10,
            writeback_words=6,
        )
        assert plan.energy_pj == 140.0
        assert plan.offchip_words == 16
        assert plan.placement_map == {"A": 1, "B": 0}
        text = plan.describe(_stack(4, 8))
        assert "A->t1" in text and "B->t0" in text
        assert "T=native" in text and "tile=(2, 2)" in text


class TestBruteForceParity:
    """The cascade equals an independent exhaustive re-enumeration."""

    @pytest.mark.parametrize(
        "program,caps",
        [
            (matmult(6), (40, 200)),
            (matmult(6), (120,)),
            (two_point(16), (8, 64)),
            (sor(8), (10, 30, 100)),
            (ANTIDIAG, (5, 40)),
        ],
        ids=["matmult-2tier", "matmult-1tier", "2point", "sor-3tier", "antidiag"],
    )
    def test_best_and_flat_match_brute_force(self, program, caps):
        hierarchy = _stack(*caps)
        candidates = default_candidates(program)
        result = search_hierarchy(program, hierarchy, candidates)
        brute_best, brute_flat = _brute_force(program, hierarchy, candidates)
        assert result.best.energy_pj == pytest.approx(brute_best)
        assert result.flat.energy_pj == pytest.approx(brute_flat)

    def test_joint_space_contains_flat_space(self):
        result = search_hierarchy(matmult(6), _stack(40, 200))
        assert result.best.energy_pj <= result.flat.energy_pj
        assert all(k == 0 for _, k in result.flat.placement)

    def test_split_placement_beats_flat_when_tier0_is_tight(self):
        # 8x8 operands are 64 words each; 100 words of tier 0 cannot
        # hold all three at the full box, but tier 1 can absorb two.
        result = search_hierarchy(
            matmult(8), _stack(100, 400), candidates=[None]
        )
        assert result.best.energy_pj < result.flat.energy_pj
        assert any(k != 0 for _, k in result.best.placement)

    def test_floor_is_admissible(self):
        for program in (matmult(6), two_point(16)):
            result = search_hierarchy(program, _stack(40, 200))
            assert result.floor_energy_pj <= result.best.energy_pj + 1e-9

    def test_infeasible_stack_raises(self):
        # Even a unit tile of matmult touches 3 words; 1+1 cannot fit.
        with pytest.raises(ValueError, match="no feasible plan"):
            search_hierarchy(matmult(4), _stack(1, 1), candidates=[None])


class TestCascadeParity:
    """prune=True and prune=False return identical winners."""

    @pytest.mark.parametrize(
        "program,caps",
        [(matmult(6), (40, 200)), (sor(8), (10, 30)), (two_point(16), (8, 64))],
        ids=["matmult", "sor", "2point"],
    )
    def test_same_plan_both_modes(self, program, caps):
        hierarchy = _stack(*caps)
        candidates = default_candidates(program)
        pruned = search_hierarchy(program, hierarchy, candidates, prune=True)
        full = search_hierarchy(program, hierarchy, candidates, prune=False)
        assert pruned.best == full.best
        assert pruned.flat == full.flat
        assert pruned.method == "cascade"
        assert full.method == "exhaustive"
        assert full.pruned == 0
        assert pruned.evaluated <= full.evaluated


class TestJournalAndCounters:
    def test_journal_reconciles_with_result(self):
        program = sor(8)
        observer = obs.enable()
        jr = journal.enable()
        try:
            result = search_hierarchy(program, _stack(10, 30))
        finally:
            journal.disable()
            obs.disable()
        counts = jr.counts()
        records = jr.by_stage("hierarchy")
        assert counts["hierarchy"] == len(records)
        assert counts["hierarchy_pruned"] == result.pruned
        statuses = {r.status for r in records}
        assert statuses <= {"pruned", "computed"}
        counters = observer.summary().get("counters", {})
        assert counters.get("search.hierarchy.pruned", 0) == result.pruned
        assert counters["search.hierarchy.evaluated"] == result.evaluated
        assert counters["search.hierarchy.configs"] == result.configs
        assert counters["search.hierarchy.lb_evals"] == 2

    def test_trace_nests_footprint_spans_in_the_search_span(self):
        trace = io.StringIO()
        observer = obs.enable(trace=trace)
        try:
            search_hierarchy(matmult(4), _stack(40, 200), candidates=[None])
        finally:
            obs.disable()
        spans = observer.summary()["spans"]
        assert spans["search.hierarchy"]["count"] == 1
        measured = spans["search.hierarchy/tiling.footprints"]
        assert measured["count"] == len(tile_candidates(matmult(4)))
        events = [json.loads(line) for line in trace.getvalue().splitlines()]
        tiles = [
            e["attrs"] for e in events
            if e.get("ev") == "span" and e["name"] == "tiling.footprints"
        ]
        assert tiles[0] == {"tile": [1, 1, 1], "points": 64}

    def test_pruned_records_carry_reasons(self):
        jr = journal.enable()
        try:
            search_hierarchy(sor(8), _stack(10, 30))
        finally:
            journal.disable()
        reasons = {
            r.reason for r in jr.by_stage("hierarchy") if r.status == "pruned"
        }
        assert all(
            r.startswith(("hierarchy_floor", "hierarchy_tile_lb"))
            for r in reasons
        )


def _store_hits(observer) -> int:
    counters = observer.summary().get("counters", {})
    return counters.get("store.mem.hits", 0) + counters.get("store.disk.hits", 0)


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        program = matmult(6)
        hierarchy = _stack(40, 200)
        first = search_hierarchy(program, hierarchy, store=store)
        clear_search_cache()
        observer = obs.enable()
        try:
            second = search_hierarchy(program, hierarchy, store=store)
        finally:
            obs.disable()
        assert _store_hits(observer) == 1
        assert "search.hierarchy.configs" not in observer.counters
        assert second == first

    def test_key_discriminates_hierarchy_and_candidates(self, tmp_path):
        store = ResultStore(tmp_path)
        program = matmult(6)
        search_hierarchy(program, _stack(40, 200), store=store)
        for other in (
            {"hierarchy": _stack(60, 200)},
            {"hierarchy": _stack(40, 200), "candidates": [None]},
        ):
            clear_search_cache()
            observer = obs.enable()
            try:
                search_hierarchy(program, store=store, **other)
            finally:
                obs.disable()
            assert _store_hits(observer) == 0
            assert observer.counters["search.hierarchy.configs"] > 0

    def test_warm_default_search_lists_no_candidates(
        self, tmp_path, monkeypatch
    ):
        """The default candidates are keyed as ``None``, so a warm
        default search is one record lookup."""
        import repro.transform.hierarchy_search as hierarchy_search

        store = ResultStore(tmp_path)
        program = matmult(6)
        first = search_hierarchy(program, _stack(40, 200), store=store)
        calls = []
        monkeypatch.setattr(
            hierarchy_search, "default_candidates",
            lambda program: calls.append(program) or [None],
        )
        clear_search_cache()
        store.drop_memory()
        assert search_hierarchy(program, _stack(40, 200), store=store) == first
        assert calls == []

    def test_storeless_answer_is_persisted_by_a_later_stored_call(
        self, tmp_path
    ):
        """A memo hit writes through to a store that lacks the record."""
        program = matmult(6)
        hierarchy = _stack(40, 200)
        first = search_hierarchy(program, hierarchy)
        store = ResultStore(tmp_path)
        assert search_hierarchy(program, hierarchy, store=store) == first
        records = tmp_path / f"v{SCHEMA_VERSION}" / "hierarchy"
        assert len(list(records.glob("*.json"))) == 1
        clear_search_cache()
        store.drop_memory()
        observer = obs.enable()
        try:
            again = search_hierarchy(program, hierarchy, store=store)
        finally:
            obs.disable()
        assert _store_hits(observer) == 1
        assert again == first

    def test_key_discriminates_prune(self, tmp_path):
        """Regression: the key omitted ``prune``, so a ``prune=False``
        search after a pruned one answered with the pruned counts."""
        store = ResultStore(tmp_path)
        program, tcm = sor(), preset("tcm")
        search_hierarchy(program, tcm, store=store)
        clear_search_cache()
        full = search_hierarchy(program, tcm, prune=False, store=store)
        clear_search_cache()
        assert full == search_hierarchy(program, tcm, prune=False)
        assert (full.configs, full.evaluated, full.pruned) == (24, 24, 0)
        assert full.method == "exhaustive"

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "store"])
    def test_hit_answers_with_the_callers_name(self, tmp_path, memo):
        """Regression: a hit reported the storing program's name and
        ``method="store"`` instead of the caller's name and the
        algorithm that ran."""
        store = ResultStore(tmp_path)
        hierarchy = _stack(40, 200)
        source = "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = A[i - 1][j] } }"
        search_hierarchy(parse_program(source, name="first"), hierarchy, store=store)
        if not memo:
            clear_search_cache()
            store.drop_memory()
        observer = obs.enable()
        try:
            second = search_hierarchy(
                parse_program(source, name="second"), hierarchy, store=store
            )
        finally:
            obs.disable()
        counters = observer.summary().get("counters", {})
        hits = counters.get("search.memo.hits", 0) if memo else _store_hits(observer)
        assert hits == 1
        assert second.program == "second"
        assert second.method == "cascade"

    def test_corrupt_record_degrades_to_recompute(self, tmp_path):
        store = ResultStore(tmp_path)
        program = matmult(6)
        hierarchy = _stack(40, 200)
        first = search_hierarchy(
            program, hierarchy, candidates=[None], store=store
        )
        records = tmp_path / f"v{SCHEMA_VERSION}" / "hierarchy"
        (record,) = records.glob("*.json")
        record.write_text(record.read_text()[:40])
        clear_search_cache()
        store.drop_memory()
        observer = obs.enable()
        try:
            result = search_hierarchy(
                program, hierarchy, candidates=[None], store=store
            )
        finally:
            obs.disable()
        counters = observer.summary().get("counters", {})
        assert counters.get("store.corrupt", 0) == 1
        assert counters["search.hierarchy.configs"] == result.configs
        assert result == first
        clear_search_cache()
        store.drop_memory()
        observer = obs.enable()
        try:
            healed = search_hierarchy(
                program, hierarchy, candidates=[None], store=store
            )
        finally:
            obs.disable()
        assert _store_hits(observer) == 1
        assert healed == first

    def test_undecodable_payload_degrades_to_recompute(self, tmp_path):
        store = ResultStore(tmp_path)
        program = matmult(6)
        hierarchy = _stack(40, 200)
        key = {
            "sig": program.signature(),
            "hier": hierarchy.spec(),
            "cands": [None],
            "max_tile": 64,
            "prune": True,
        }
        store.put("hierarchy", key, {"best": "junk"})
        clear_search_cache()
        observer = obs.enable()
        try:
            result = search_hierarchy(
                program, hierarchy, candidates=[None], store=store
            )
        finally:
            obs.disable()
        counters = observer.summary().get("counters", {})
        assert counters.get("store.corrupt", 0) == 1
        assert counters["search.hierarchy.configs"] == result.configs
        clear_search_cache()
        assert result == search_hierarchy(program, hierarchy, candidates=[None])
        assert store.get("hierarchy", key)["best"] != "junk"  # healed

    def test_active_journal_bypasses_store(self, tmp_path):
        store = ResultStore(tmp_path)
        program = matmult(6)
        hierarchy = _stack(40, 200)
        search_hierarchy(program, hierarchy, candidates=[None], store=store)
        jr = journal.enable()
        try:
            replayed = search_hierarchy(
                program, hierarchy, candidates=[None], store=store
            )
        finally:
            journal.disable()
        assert replayed.method == "cascade"  # recomputed, not served
        assert jr.by_stage("hierarchy")  # and journaled
