"""Candidate screens: the cached enumeration stacks and the array screen
of ``transform.legality`` against the per-matrix reference of
``repro.check``, down to the journal ``repro explain`` prints."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.check.oracles import (
    per_matrix_screens,
    screen_reference,
    signed_permutations_reference,
    unimodular_matrices_reference,
)
from repro.ir import parse_program
from repro.transform import journal
from repro.transform.elementary import (
    as_matrices,
    bounded_unimodular_matrices,
    signed_permutation_stack,
    signed_permutations,
    unimodular_stack,
)
from repro.transform.legality import (
    ordering_distances,
    reuse_distances,
    screen_stack,
)
from repro.transform.search import clear_exact_cache, search_mws_3d

#: A distance far past any trip count: ``T @ d`` wraps in int64.
HUGE = (
    "for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 { "
    "A[i + 4611686018427387904][j][k] = A[i][j][k] + 1 } } }"
)


@pytest.fixture(autouse=True)
def clean_state():
    journal.disable()
    clear_exact_cache()
    yield
    journal.disable()
    clear_exact_cache()


def _as_lists(verdict):
    return (
        verdict.tileable.tolist(),
        verdict.legal.tolist(),
        verdict.min_level.tolist(),
        verdict.level_sum.tolist(),
    )


class TestStackOrder:
    @pytest.mark.parametrize(
        "n,bound,count",
        [(2, 1, 40), (2, 2, 104), (3, 1, 6960), (3, 2, 135408)],
    )
    def test_unimodular_stack_is_the_reference_enumeration(
        self, n, bound, count
    ):
        stack = unimodular_stack(n, bound)
        reference = unimodular_matrices_reference(n, bound)
        assert stack.shape == reference.shape == (count, n, n)
        assert np.array_equal(stack, reference)
        assert stack.dtype == np.int8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_permutation_stack_is_the_reference_enumeration(self, n):
        stack = signed_permutation_stack(n)
        assert np.array_equal(stack, signed_permutations_reference(n))
        assert len(stack) == 2 ** n * [1, 1, 2, 6, 24][n]

    def test_matrix_views_follow_the_stacks(self):
        assert list(bounded_unimodular_matrices(2, 1)) == as_matrices(
            unimodular_stack(2, 1)
        )
        assert list(signed_permutations(3)) == as_matrices(
            signed_permutation_stack(3)
        )

    def test_built_once_per_process(self):
        assert unimodular_stack(3, 1) is unimodular_stack(3, 1)
        assert signed_permutation_stack(3) is signed_permutation_stack(3)


class TestReadOnly:
    @pytest.mark.parametrize(
        "stack",
        [
            lambda: unimodular_stack(2, 2),
            lambda: unimodular_stack(3, 1),
            lambda: signed_permutation_stack(3),
        ],
        ids=["unimodular-2-2", "unimodular-3-1", "signed-3"],
    )
    def test_stack_is_read_only(self, stack):
        stack = stack()
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 7


class TestMemory:
    def test_bound_two_build_and_screen_stay_small(self):
        """The unchunked 5^9 product alone is ~140 MB of int64."""
        rng = np.random.default_rng(0)
        distances = [tuple(int(v) for v in rng.integers(-3, 4, 3)) for _ in range(13)]
        unimodular_stack.cache_clear()
        tracemalloc.start()
        try:
            screen_stack(unimodular_stack(3, 2), distances, distances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestHugeDistances:
    @pytest.mark.parametrize("bound", [1, 2])
    def test_masks_and_keys_match_the_reference(self, bound):
        """No two iterations of a 4-trip loop are ``2**62`` apart, so the
        nest's exact distance sets are empty; handed that distance, the
        screen runs on exact ints and still matches the reference."""
        program = parse_program(HUGE)
        assert reuse_distances(program, "A") == []
        assert ordering_distances(program, "A") == []
        huge = [(2 ** 62, 0, 0)]
        stack = unimodular_stack(3, bound)
        got = _as_lists(screen_stack(stack, huge, huge))
        assert got == screen_reference(as_matrices(stack), huge, huge)

    def test_int64_would_wrap(self):
        """Why the screen switches to exact ints: 3 * 2**62 wraps."""
        t = np.array([[[3, 0, 0], [0, 1, 0], [0, 0, 1]]])
        verdict = screen_stack(t, [(2 ** 62, 0, 0)], [(2 ** 62, 0, 0)])
        assert verdict.tileable.tolist() == [True]
        assert verdict.legal.tolist() == [True]

    def test_search_still_refuses_to_pack(self):
        program = parse_program(HUGE)
        with pytest.raises(ValueError, match="too large for int64 element packing"):
            search_mws_3d(program, "A")


def _explain(name, monkeypatch, capsys):
    """``repro explain NAME``'s stdout and journal records, cold."""
    from repro.cli import main

    captured = []
    disable = journal.disable

    def keep():
        captured.append(disable())
        return captured[-1]

    clear_exact_cache()
    monkeypatch.setattr(journal, "disable", keep)
    try:
        assert main(["explain", name]) == 0
    finally:
        monkeypatch.setattr(journal, "disable", disable)
    return capsys.readouterr().out, captured[0].records


class TestExplainJournals:
    @pytest.mark.parametrize(
        "kernel", ["sor", "matmult", "rasta_flt", "full_search"]
    )
    def test_production_path_equals_reference_path(
        self, kernel, monkeypatch, capsys
    ):
        """sor runs the 2-D row search, matmult and rasta_flt the 3-D
        level search at bound 2, full_search the 4-D general search."""
        out, records = _explain(kernel, monkeypatch, capsys)
        with per_matrix_screens():
            reference_out, reference_records = _explain(
                kernel, monkeypatch, capsys
            )
        assert records == reference_records
        assert out == reference_out
        assert any(r.stage == "enumerate" for r in records)
