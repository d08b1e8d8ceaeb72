"""Shrinker tests: greedy minimization behavior, predicate safety, and a
full rehearsal of the PR-3 d==n offset-dedup bug — reintroduce it,
watch the oracle fail, shrink the failure to <= 2 statements, and check
the corpus replay flips red/green with the bug."""

import pytest

from repro.check import get_oracle, oracle_predicate, shrink, shrink_case
from repro.check.runner import replay_file, write_repro
from repro.dependence.reuse import group_reuse_distances
from repro.estimation.distinct import (
    DistinctAccessEstimate,
    reuse_from_distances,
)
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program


class TestShrinkMechanics:
    def test_shrinks_to_single_statement_and_iteration(self):
        program = parse_program(
            """
            for i = 1 to 6 {
              for j = 1 to 6 {
                S1: A[i][j] = A[i - 1][j] + B[i][j]
                S2: B[i][j] = B[i][j - 1]
                S3: C[i + j] = C[i + j + 3]
              }
            }
            """
        )

        def touches_b(candidate):
            return "B" in candidate.arrays

        result = shrink(program, touches_b)
        assert touches_b(result.program)
        assert result.statements == 1
        assert result.iterations == 1  # trips shrink to one iteration each
        assert result.steps > 0
        assert result.attempts >= result.steps

    def test_offsets_and_coefficients_move_toward_zero(self):
        program = parse_program(
            "for i = 1 to 4 { for j = 1 to 4 { A[3*i + 2*j + 4] = 0 } }"
        )

        def writes_a(candidate):
            return any(stmt.writes for stmt in candidate.statements)

        result = shrink(program, writes_a)
        ref = result.program.statements[0].writes[0]
        # The predicate doesn't constrain the access, so everything
        # minimizes — offset and all coefficients reach zero (a
        # scalar-in-nest write is valid in the model).
        assert ref.offset == (0,)
        assert all(c == 0 for row in ref.access.rows for c in row)

    def test_normalizes_labels_and_name(self):
        program = parse_program(
            "for i = 1 to 3 { Sx: A[i] = A[i + 1] \n Sy: B[i] = B[i + 2] }"
        )
        result = shrink(program, lambda p: True)
        assert result.program.name == "repro"
        assert [s.label for s in result.program.statements] == ["S1"]

    def test_requires_failing_input(self):
        program = parse_program("for i = 1 to 3 { A[i] = A[i + 1] }")
        with pytest.raises(ValueError, match="does not fail"):
            shrink(program, lambda p: False)

    def test_oracle_predicate_swallows_crashes(self):
        oracle = get_oracle("estimate-brackets-exact")
        predicate = oracle_predicate(oracle, 0)
        healthy = random_program(0, GeneratorConfig(depth=2, max_trip=4))
        assert predicate(healthy) is False  # oracle passes -> not failing
        # A program the estimator cannot handle must read as "not
        # failing", not crash the shrink loop.
        weird = parse_program("for i = 1 to 3 { A[0*i] = A[0*i + 1] }")
        assert predicate(weird) in (True, False)


# ----------------------------------------------------------------------
# the PR-3 d==n offset-dedup bug, reintroduced
# ----------------------------------------------------------------------

def _buggy_same_rank(program, array):
    """``distinct_accesses_same_rank`` without the offset dedup — the
    exact shape of the PR-3 bug: duplicate-offset references inflate
    ``r`` while contributing no reuse distance, so ``r * total - reuse``
    double-counts and is still flagged exact for r == 2."""
    refs = list(program.refs_to(array))
    if not refs:
        raise KeyError(array)
    if not program.is_uniformly_generated(array):
        raise ValueError(f"{array}: references are not uniformly generated")
    access = refs[0].access
    if not access.is_square() or access.det() == 0:
        raise ValueError(f"{array}: access matrix is singular or not square")
    trips = program.nest.trip_counts
    total = program.nest.total_iterations
    r = len(refs)
    if r == 1:
        return DistinctAccessEstimate(array, total, total, "d==n single ref", True, 0)
    distances = group_reuse_distances(refs, program.nest.spans)
    reuse = reuse_from_distances(trips, distances)
    value = r * total - reuse
    exact = r == 2
    lower = value if exact else min(total, value)
    return DistinctAccessEstimate(array, lower, value, "d==n multi ref", exact, reuse)


#: A manifest witness: both references share offset (0, 0), so the buggy
#: formula claims A_d = 2*4 - 0 = 8 "exactly" while the truth is 4.
_DEDUP_WITNESS = "for i1 = 1 to 2 { for i2 = 1 to 2 { A0[i1][i2] = A0[i1][i2] } }"


@pytest.fixture
def dedup_bug(monkeypatch):
    import repro.estimation.distinct as distinct_module

    monkeypatch.setattr(
        distinct_module, "distinct_accesses_same_rank", _buggy_same_rank
    )


class TestDedupBugRehearsal:
    def test_oracle_catches_reintroduced_bug(self, dedup_bug):
        oracle = get_oracle("estimate-brackets-exact")
        program = parse_program(_DEDUP_WITNESS)
        violation = oracle.check(program, 0)
        assert violation is not None
        assert "exact" in violation.detail

    def test_fixed_behavior_passes(self):
        oracle = get_oracle("estimate-brackets-exact")
        assert oracle.check(parse_program(_DEDUP_WITNESS), 0) is None

    def test_shrinks_to_at_most_two_statements(self, dedup_bug, tmp_path):
        """The acceptance criterion, end to end: a larger failing program
        shrinks to <= 2 statements, and its corpus file replays red
        under the bug and green without it."""
        oracle = get_oracle("estimate-brackets-exact")
        program = parse_program(
            """
            for i1 = 1 to 4 {
              for i2 = 1 to 4 {
                S1: B[i1 + i2] = B[i1 + i2 + 1]
                S2: A0[i1][i2] = A0[i1][i2] + B[i1 + 2*i2]
                S3: C[i1][i2] = C[i1 - 1][i2]
              }
            }
            """
        )
        assert oracle.check(program, 0) is not None
        result, violation = shrink_case(oracle, program, 0)
        assert result.statements <= 2
        path = write_repro(
            tmp_path, oracle.name, result.program, 0, violation.detail
        )
        assert replay_file(path) is not None  # still red while bug present

    def test_checked_in_corpus_file_flips_red(self, dedup_bug):
        """Replaying the seeded corpus entry fails while the bug is in."""
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        matches = sorted(corpus.glob("estimate-brackets-exact--*.json"))
        assert matches, "expected the seeded d==n dedup repro in tests/corpus"
        assert any(replay_file(p) is not None for p in matches)
