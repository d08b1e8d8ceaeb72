"""Search-journal tests: recording, ranking, and reconciliation of the
journal's tallies against the observer's counters."""

from __future__ import annotations

import pytest

from repro import obs
from repro.ir import parse_program
from repro.reporting import (
    reconcile,
    render_candidate_table,
    render_reconciliation,
)
from repro.transform import journal
from repro.transform.branch_bound import branch_and_bound_mws_2d
from repro.transform.journal import SearchJournal
from repro.transform.search import (
    clear_exact_cache,
    search_best_transformation,
    search_mws_2d,
)

EX8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    journal.disable()
    clear_exact_cache()
    yield
    obs.disable()
    journal.disable()
    clear_exact_cache()


def _run_2d():
    program = parse_program(EX8)
    observer = obs.enable()
    jr = journal.enable()
    result = search_mws_2d(program, "X")
    journal.disable()
    obs.disable()
    return result, jr, observer.summary().get("counters", {})


class TestJournalLifecycle:
    def test_disabled_by_default(self):
        assert journal.active() is None
        assert not journal.enabled()

    def test_search_runs_without_journal(self):
        program = parse_program(EX8)
        result = search_mws_2d(program, "X")
        assert result.exact_mws is not None
        assert journal.active() is None

    def test_enable_disable_round_trip(self):
        jr = journal.enable()
        assert journal.active() is jr
        assert journal.disable() is jr
        assert journal.active() is None

    def test_enable_replaces_previous_journal(self):
        first = journal.enable()
        second = journal.enable()
        assert first is not second
        assert journal.active() is second


class TestSearchRecording:
    def test_every_examined_candidate_recorded(self):
        result, jr, counters = _run_2d()
        counts = jr.counts()
        assert counts["examined"] == result.candidates_examined
        assert counts["examined"] == counters["search.candidates.examined"]
        # Each examined candidate is exactly one record: either rejected
        # with a reason or admitted with an estimate.
        admitted = [
            r for r in jr.by_stage("enumerate") if r.status == "candidate"
        ]
        assert counts["rejected"] + len(admitted) == counts["examined"]
        assert all(r.reason for r in jr.by_status("rejected"))
        assert all(r.estimate is not None for r in admitted)

    def test_reconciles_with_counters(self):
        _, jr, counters = _run_2d()
        for label, jcount, ccount in reconcile(jr, counters):
            assert jcount == ccount, label

    def test_cache_hits_recorded_on_rerun(self):
        program = parse_program(EX8)
        obs.enable()
        search_mws_2d(program, "X")  # warm the exact cache
        observer = obs.enable()  # fresh counters
        jr = journal.enable()
        search_mws_2d(program, "X")
        journal.disable()
        obs.disable()
        counters = observer.summary()["counters"]
        counts = jr.counts()
        assert counts["cache_hits"] > 0
        assert counts["cache_hits"] == counters["search.cache.hits"]
        assert counts["cache_misses"] == counters.get("search.cache.misses", 0)

    def test_ranked_is_best_first_with_joined_estimates(self):
        result, jr, _ = _run_2d()
        ranked = jr.ranked()
        assert ranked
        assert ranked[0].exact == result.exact_mws
        exacts = [r.exact for r in ranked]
        assert exacts == sorted(exacts)
        # 2-D enumerate records carry estimates; the join must surface them.
        assert all(r.estimate is not None for r in ranked)

    def test_rejection_reasons_tallied(self):
        _, jr, _ = _run_2d()
        reasons = jr.rejection_reasons()
        assert reasons
        assert set(reasons) <= {"tiling", "completion", "legality"}
        assert sum(reasons.values()) == jr.counts()["rejected"]

    def test_dispatcher_records_for_3d(self):
        program = parse_program(
            """
            for i = 1 to 6 {
              for j = 1 to 6 {
                for k = 1 to 6 {
                  B[0] = A[3*i + k][j + k]
                }
              }
            }
            """
        )
        observer = obs.enable()
        jr = journal.enable()
        search_best_transformation(program, "A")
        journal.disable()
        obs.disable()
        counters = observer.summary()["counters"]
        for label, jcount, ccount in reconcile(jr, counters):
            assert jcount == ccount, label
        assert jr.counts()["seeded"] >= 1


class TestBranchBoundRecording:
    DISTS = [(3, -2), (2, 0), (5, -2)]

    def test_prunes_and_leaves_reconcile(self):
        observer = obs.enable()
        jr = journal.enable()
        branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=16)
        journal.disable()
        obs.disable()
        counters = observer.summary()["counters"]
        counts = jr.counts()
        assert counts["pruned"] == counters["search.bb.pruned"]
        assert counts["bb_evaluated"] == counters["search.bb.evaluated"]
        assert counts["pruned"] > 0
        reasons = {r.reason.split(":", 1)[0] for r in jr.by_status("pruned")}
        assert reasons <= {"infeasible", "bound"}

    def test_bb_unaffected_by_journal(self):
        plain = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=16)
        journal.enable()
        journaled = branch_and_bound_mws_2d(2, 5, 25, 10, self.DISTS, bound=16)
        journal.disable()
        assert plain == journaled


class TestRendering:
    def test_candidate_table_lists_ranked_and_rejections(self):
        result, jr, _ = _run_2d()
        table = render_candidate_table(jr)
        assert "rank" in table
        assert str(result.transformation.rows) in table
        assert "rejections:" in table
        assert "tiling" in table

    def test_empty_journal_renders_placeholder(self):
        assert render_candidate_table(SearchJournal()) == "(empty journal)"

    def test_reconciliation_flags_mismatch(self):
        jr = SearchJournal()
        jr.record("enumerate", ((1, 0), (0, 1)), "candidate", estimate=1)
        text, ok = render_reconciliation(jr, {})
        assert not ok
        assert "MISMATCH" in text

    def test_reconciliation_ok_when_counts_agree(self):
        _, jr, counters = _run_2d()
        text, ok = render_reconciliation(jr, counters)
        assert ok
        assert "MISMATCH" not in text


class TestExplainCli:
    def test_explain_kernel_exits_zero_and_reconciles(self, capsys):
        from repro.cli import main

        assert main(["explain", "sor"]) == 0
        out = capsys.readouterr().out
        assert "2d-enumeration" in out
        assert "rejections:" in out
        assert "journal/counter reconciliation:" in out
        assert "MISMATCH" not in out

    def test_explain_file_target(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "ex8.txt"
        source.write_text(EX8)
        assert main(["explain", str(source)]) == 0
        out = capsys.readouterr().out
        assert "search for array X" in out

    def test_explain_unknown_kernel_errors(self, capsys):
        from repro.cli import main

        assert main(["explain", "no_such_kernel"]) == 1
        assert "error:" in capsys.readouterr().err
