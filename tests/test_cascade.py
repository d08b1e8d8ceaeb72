"""Evaluation cascade: admissibility, winner identity, accounting.

:func:`repro.transform.search.evaluate_cascade` may only skip a
candidate when a tier-1 certified fact proves it cannot strictly beat
the running incumbent — so its winner, and every exact value it
reports, must be identical to exhaustively simulating with
:func:`evaluate_exact`.  These tests drive randomized differentials
over the cascade, the certified-reuse facts behind tier 1, the
branch-and-bound minimizer's unseeded answer, the lazy 2-D enumeration
against its eager oracle, and the journal/counter reconciliation for
cascade prunes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import obs
from repro.estimation.bounds import certified_reuse
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.transform import journal
from repro.transform.branch_bound import branch_and_bound_mws_2d
from repro.transform.elementary import (
    bounded_unimodular_matrices,
    signed_permutations,
)
from repro.transform.legality import is_legal, ordering_distances
from repro.transform.search import (
    CascadeOutcome,
    clear_exact_cache,
    evaluate_cascade,
    evaluate_exact,
    search_mws_2d,
    search_mws_2d_eager,
)
from repro.window.fast import max_window_size_fast

EXAMPLE_8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""

NO_REUSE = """
for i = 1 to 6 {
  for j = 1 to 5 {
    X[i][j] = 1
  }
}
"""

_CFG = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exact_cache()
    yield
    clear_exact_cache()


def _candidates(program, array):
    dists = ordering_distances(program, array)
    return [t for t in bounded_unimodular_matrices(2, 2) if is_legal(t, dists)]


def _first_min(values):
    best = None
    for idx, value in enumerate(values):
        if best is None or value < values[best]:
            best = idx
    return best


class TestAdmissibility:
    @pytest.mark.parametrize("seed", range(25))
    def test_cascade_never_discards_a_winner(self, seed):
        """Exact outcomes match simulation; prunes never under-run their
        candidate's true MWS; first-wins winner is identical."""
        program = random_program(seed, _CFG)
        array = program.arrays[0]
        candidates = [t for t in signed_permutations(2)
                      if is_legal(t, ordering_distances(program, array))]
        if not candidates:
            pytest.skip("no legal candidate")
        truth = evaluate_exact(program, candidates, array=array)
        clear_exact_cache()
        outcomes = evaluate_cascade(program, candidates, array=array)
        for outcome, exact in zip(outcomes, truth):
            if outcome.exact:
                assert outcome.value == exact
            else:
                assert outcome.value <= exact, (
                    f"inadmissible prune: lb={outcome.value} > exact={exact}"
                )
        winner_truth = _first_min(truth)
        exact_values = [o.value if o.exact else None for o in outcomes]
        best = None
        for idx, value in enumerate(exact_values):
            if value is None:
                continue
            if best is None or value < exact_values[best]:
                best = idx
        assert best == winner_truth
        assert outcomes[best].value == truth[winner_truth]

    def test_first_candidate_is_always_exact(self):
        program = parse_program(EXAMPLE_8)
        outcomes = evaluate_cascade(
            program, _candidates(program, "X"), array="X"
        )
        assert outcomes[0].exact


class TestTier1:
    def test_certified_reuse_on_example8(self):
        program = parse_program(EXAMPLE_8)
        assert certified_reuse(program, "X") is True

    def test_certified_zero_on_single_touch_program(self):
        program = parse_program(NO_REUSE)
        assert certified_reuse(program, "X") is False
        # The certificate claims MWS 0 under ANY ordering — verify.
        for t in signed_permutations(2):
            assert max_window_size_fast(program, "X", t) == 0

    def test_zero_certified_cascade_skips_all_simulation(self):
        program = parse_program(NO_REUSE)
        candidates = list(signed_permutations(2))
        observer = obs.enable()
        try:
            outcomes = evaluate_cascade(program, candidates, array="X")
        finally:
            obs.disable()
        assert all(o.exact and o.value == 0 for o in outcomes)
        assert observer.counters["search.cascade.pruned"] == len(candidates)
        assert "fast.simulate.calls" not in observer.counters
        # The certified zeros are cached as ordinary exact results.
        assert evaluate_exact(program, candidates, array="X") == [0] * len(candidates)

    @pytest.mark.parametrize("seed", range(40))
    def test_certificates_are_sound(self, seed):
        """True => exact >= 1 under every ordering; False => exact 0."""
        program = random_program(seed, _CFG)
        for array in program.arrays:
            verdict = certified_reuse(program, array)
            if verdict is None:
                continue
            for t in [None] + list(signed_permutations(2)):
                exact = max_window_size_fast(program, array, t)
                if verdict:
                    assert exact >= 1
                else:
                    assert exact == 0


class TestAccounting:
    def test_counters_reconcile_with_journal(self):
        program = parse_program("""
for i = 1 to 200 {
  for j = 1 to 200 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
""")
        winner = search_mws_2d(program, "X").transformation
        clear_exact_cache()
        candidates = [winner] + _candidates(program, "X")
        observer = obs.enable()
        jr = journal.enable()
        try:
            outcomes = evaluate_cascade(program, candidates, array="X")
        finally:
            journal.disable()
            obs.disable()
        counters = observer.counters
        counts = jr.counts()
        # Every prune wrote exactly one stage-"cascade" journal record.
        assert counts["cascade_pruned"] == counters["search.cascade.pruned"]
        pruned = sum(1 for o in outcomes if not o.exact)
        simulated = sum(1 for o in outcomes if o.tier == "simulated")
        cached = sum(1 for o in outcomes if o.tier == "cache")
        assert pruned == counters["search.cascade.pruned"]
        assert simulated == counters["search.cascade.simulated"]
        assert pruned + simulated + cached == len(candidates)
        from repro.reporting.journal import render_reconciliation

        _, ok = render_reconciliation(jr, counters)
        assert ok

    def test_floor_prunes_reconcile_with_journal(self):
        """The native order reaches the certified floor of 1, so tier 1
        prunes every later candidate, one journal record each."""
        program = parse_program("""
for i = 1 to 20 {
  for j = 1 to 30 {
    X[i] = X[i]
  }
}
""")
        candidates = [None] + _candidates(program, "X")
        observer = obs.enable()
        jr = journal.enable()
        try:
            outcomes = evaluate_cascade(program, candidates, array="X")
        finally:
            journal.disable()
            obs.disable()
        assert outcomes[0] == CascadeOutcome(1, True, "simulated")
        assert outcomes[1:] == [CascadeOutcome(1, False, "tier1")] * (
            len(candidates) - 1
        )
        assert observer.counters["search.cascade.pruned"] == len(candidates) - 1
        assert jr.counts()["cascade_pruned"] == len(candidates) - 1
        from repro.reporting.journal import render_reconciliation

        _, ok = render_reconciliation(jr, observer.counters)
        assert ok


class TestBranchBoundIncumbent:
    DISTANCES = [(3, -2), (2, 0), (5, -2)]

    def test_unseeded_behavior_unchanged(self):
        result = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTANCES)
        assert result.row == (2, 3)
        assert result.objective == Fraction(22, 1)


class TestLazyEnumeration:
    @pytest.mark.parametrize("seed", range(30))
    def test_lazy_matches_eager(self, seed):
        program = random_program(seed, _CFG)
        array = program.arrays[0]
        try:
            clear_exact_cache()
            eager = search_mws_2d_eager(program, array, bound=5)
        except (ValueError, KeyError):
            return
        clear_exact_cache()
        lazy = search_mws_2d(program, array, bound=5)
        assert lazy.transformation.rows == eager.transformation.rows
        assert lazy.estimated_mws == eager.estimated_mws
        assert lazy.exact_mws == eager.exact_mws
        assert lazy.candidates_examined == eager.candidates_examined

    def test_lazy_skips_completions(self):
        program = parse_program(EXAMPLE_8)
        observer = obs.enable()
        try:
            search_mws_2d(program, "X", bound=8)
        finally:
            obs.disable()
        assert observer.counters["search.lazy.skipped"] > 0
        completed = observer.counters["search.lazy.completed"]
        assert completed < observer.counters["search.candidates.examined"]

    def test_search_memo_roundtrip(self):
        program = parse_program(EXAMPLE_8)
        first = search_mws_2d(program, "X")
        observer = obs.enable()
        try:
            second = search_mws_2d(program, "X")
        finally:
            obs.disable()
        assert second is first
        assert observer.counters["search.memo.hits"] == 1

    def test_journal_bypasses_search_memo(self):
        program = parse_program(EXAMPLE_8)
        search_mws_2d(program, "X")  # populate the memo
        jr = journal.enable()
        try:
            result = search_mws_2d(program, "X")
        finally:
            journal.disable()
        assert result.exact_mws == 21
        counts = jr.counts()
        assert counts["examined"] > 0
        assert counts["rejected"] + len(
            [r for r in jr.by_stage("enumerate") if r.status == "candidate"]
        ) == counts["examined"]
