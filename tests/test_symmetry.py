"""Exact loop symmetries and the candidate quotient they give the cascade
and the hierarchy search (:mod:`repro.transform.symmetry`)."""

from pathlib import Path

import pytest

from repro import obs
from repro.core.optimizer import candidate_transformations, optimize_program
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.kernels import kernel_by_name
from repro.linalg import IntMatrix
from repro.memory.hierarchy import preset
from repro.transform import journal
from repro.transform.hierarchy_search import default_candidates, search_hierarchy
from repro.transform.search import evaluate_cascade
from repro.transform.symmetry import (
    clear_symmetry_cache,
    first_of_class,
    symmetries,
)
from repro.window.batched import batched_mws


def _nest(body: str, n: int, name: str):
    loops = "".join(f"for {v} = 1 to {n} {{\n" for v in "ijk")
    return parse_program(f"{loops}S1: {body}\n}}\n}}\n}}\n", name=name)


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

HIERARCHY_BODIES = {
    "gemm": "C[i][j] = C[i][j] + A[i][k] * B[k][j]",
    "correlation": "C[i][j] = C[i][j] + X[k][i] * X[k][j]",
    "attention": "S[i][j] = S[i][j] + Q[i][k] * K[j][k]",
}

#: kernel -> (symmetries, candidates scored by optimize_program, classes)
KERNEL_CLASSES = {
    "2point": (4, 105, 26),
    "3point": (4, 105, 26),
    "3step_log": (8, 386, 49),
    "full_search": (8, 386, 49),
    "matmult": (16, 25, 3),
    "rasta_flt": (4, 27, 14),
    "sor": (8, 27, 13),
}

#: nest -> (symmetries, default hierarchy candidates, classes)
HIERARCHY_CLASSES = {
    "gemm": (16, 24, 3),
    "correlation": (8, 24, 6),
    "attention": (16, 24, 3),
}

#: optimize_program's answer, as when every candidate is scored:
#: (T rows, MWS before, MWS after).
OPTIMIZE_WINNERS = {
    "2point": (((0, 1), (1, 0)), 64, 1),
    "3point": (((0, 1), (1, 0)), 64, 2),
    "3step_log": (
        ((4, 0, 1, 0), (0, 4, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)), 144, 65
    ),
    "full_search": (
        ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)), 288, 65
    ),
    "matmult": (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 273, 273),
    "rasta_flt": (((0, 1, 0), (0, 0, 1), (1, 0, 0)), 1978, 25),
    "sor": (((1, 0), (0, 1)), 64, 64),
}

#: search_hierarchy's plans, as when every candidate is searched (both
#: prune values).
HIERARCHY_PLANS = {
    "gemm10": (
        "T=native tile=(10, 10, 10) [A->tcm, B->tcm, C->l1] E=104000pJ",
        "T=native tile=(4, 4, 4) [A->l1, B->l1, C->l1] E=260000pJ",
    ),
    "correlation10": (
        "T=native tile=(10, 10, 10) [C->l1, X->tcm] E=84000pJ",
        "T=native tile=(8, 8, 8) [C->l1, X->l1] E=160000pJ",
    ),
    "attention10": (
        "T=native tile=(10, 10, 10) [K->tcm, Q->tcm, S->l1] E=104000pJ",
        "T=native tile=(4, 4, 4) [K->l1, Q->l1, S->l1] E=260000pJ",
    ),
    "gemm48": (
        "T=native tile=(48, 48, 48) [A->tcm, B->tcm, C->l1] E=4497408pJ",
        "T=native tile=(32, 32, 32) [A->l1, B->l1, C->l1] E=5898240pJ",
    ),
    "correlation48": (
        "T=native tile=(48, 48, 48) [C->l1, X->tcm] E=4036608pJ",
        "T=native tile=(32, 32, 32) [C->l1, X->l1] E=5437440pJ",
    ),
    "attention48": (
        "T=native tile=(48, 48, 48) [K->tcm, Q->tcm, S->l1] E=4497408pJ",
        "T=native tile=(32, 32, 32) [K->l1, Q->l1, S->l1] E=5898240pJ",
    ),
}


def _scaled_tcm(n: int):
    """The ``tcm`` preset with every capacity scaled by ``(n/48)^2``."""
    hierarchy = preset("tcm")
    for index, tier in enumerate(hierarchy.tiers):
        hierarchy = hierarchy.resized(index, tier.capacity_words * n**2 // 48**2)
    return hierarchy


def _hierarchy_nest(name: str):
    if name.endswith("48"):
        path = EXAMPLES / "hierarchy" / f"{name}.loop"
        return parse_program(path.read_text(), name=name), preset("tcm")
    return _nest(HIERARCHY_BODIES[name[:-2]], 10, name), _scaled_tcm(10)


class TestGroups:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_CLASSES))
    def test_kernel_group_and_classes(self, kernel):
        order, listed, classes = KERNEL_CLASSES[kernel]
        program = kernel_by_name(kernel).build()
        assert len(symmetries(program)) == order
        candidates = [None, *candidate_transformations(program)]
        assert len(candidates) == listed
        assert len(set(first_of_class(program, candidates))) == classes

    @pytest.mark.parametrize("name", sorted(HIERARCHY_CLASSES))
    def test_hierarchy_group_and_classes(self, name):
        order, listed, classes = HIERARCHY_CLASSES[name]
        program = _nest(HIERARCHY_BODIES[name], 10, name)
        assert len(symmetries(program)) == order
        candidates = default_candidates(program)
        assert len(candidates) == listed
        assert len(set(first_of_class(program, candidates))) == classes

    def test_groups_contain_time_reversal(self):
        """-I is in every group here, so -T @ P would add no class."""
        programs = [kernel_by_name(k).build() for k in KERNEL_CLASSES]
        programs += [_nest(b, 10, "h") for b in HIERARCHY_BODIES.values()]
        for program in programs:
            n = program.nest.depth
            minus = IntMatrix([[-int(i == j) for j in range(n)] for i in range(n)])
            assert any(s.matrix == minus for s in symmetries(program))

    def test_identity_comes_first(self):
        program = kernel_by_name("sor").build()
        first = symmetries(program)[0]
        assert first.matrix == IntMatrix.identity(2)
        assert all(a == b for a, b in first.arrays)

    def test_matmult_swap_exchanges_its_operands(self):
        program = kernel_by_name("matmult").build()
        swap = IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        (found,) = [s for s in symmetries(program) if s.matrix == swap]
        assert dict(found.arrays) == {"C": "C", "A": "B", "B": "A"}

    def test_read_write_is_kept(self):
        """Reversing the loop maps X[i] onto X[i + 1] and back: a
        symmetry of two reads, none when one of them is the write."""
        reads = parse_program("for i = 1 to 6 { f(X[i], X[i + 1]) }")
        assert [s.matrix.rows for s in symmetries(reads)] == [((1,),), ((-1,),)]
        write = parse_program("for i = 1 to 6 { X[i] = X[i + 1] }")
        assert [s.matrix.rows for s in symmetries(write)] == [((1,),)]

    def test_unequal_trips_are_never_exchanged(self):
        program = parse_program(
            "for i = 1 to 4 { for j = 1 to 5 { A[i + j] = B[i + j] } }"
        )
        assert all(
            s.matrix.rows[0][0] != 0 for s in symmetries(program)
        )

    def test_memoized_by_signature(self):
        clear_symmetry_cache()
        program = kernel_by_name("2point").build()
        first = symmetries(program)
        assert symmetries(kernel_by_name("2point").build()) is first
        clear_symmetry_cache()
        assert symmetries(program) is not first


class TestFirstOfClass:
    def test_native_order_is_the_identity(self):
        program = kernel_by_name("sor").build()
        assert first_of_class(program, [None, IntMatrix.identity(2)]) == [0, 0]

    def test_array_keeps_only_symmetries_fixing_it(self):
        program = kernel_by_name("matmult").build()
        swap = IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        pair = [IntMatrix.identity(3), swap]
        assert first_of_class(program, pair) == [0, 0]
        assert first_of_class(program, pair, array="C") == [0, 0]
        assert first_of_class(program, pair, array="A") == [0, 1]

    def test_serve_mixed_seed_does_not_raise(self):
        program = random_program(
            1564776918, GeneratorConfig(depth=3, min_trip=4, max_trip=12)
        )
        candidates = [None, *candidate_transformations(program)]
        firsts = first_of_class(program, candidates)
        assert len(firsts) == len(candidates)
        assert all(f <= i for i, f in enumerate(firsts))
        optimize_program(program)

    @pytest.mark.parametrize("big", [(1 << 61) + 3, (1 << 62) + 3, 1 << 80])
    def test_large_entries(self, big):
        """int64 keys below 2**62, exact Python keys above."""
        program = kernel_by_name("2point").build()
        t = IntMatrix([[1, big], [0, 1]])
        flipped = t @ IntMatrix([[-1, 0], [0, -1]])
        other = IntMatrix([[1, big + 1], [0, 1]])
        assert first_of_class(program, [t, other, flipped]) == [0, 1, 0]

    @pytest.mark.parametrize("entries", [None, 100])
    @pytest.mark.parametrize("kernel", ["full_search", "matmult", "sor"])
    def test_array_keys_equal_python_keys(self, kernel, entries, monkeypatch):
        """One block, and blocks of one to a few candidates."""
        import numpy as np

        import repro.transform.symmetry as symmetry
        from repro.transform.symmetry import _array_classes, _python_classes

        if entries is not None:
            monkeypatch.setattr(symmetry, "_IMAGE_ENTRIES", entries)
        program = kernel_by_name(kernel).build()
        rows = [t.rows for t in candidate_transformations(program)]
        group = [s.matrix.rows for s in symmetries(program)]
        assert _array_classes(
            np.array(rows, dtype=np.int64), np.array(group, dtype=np.int64)
        ) == _python_classes(rows, group)

    def test_without_symmetry_a_class_is_one_matrix(self):
        program = parse_program("for i = 1 to 6 { X[i] = X[i + 1] }")
        reverse = IntMatrix([[-1]])
        candidates = [None, reverse, IntMatrix.identity(1), reverse]
        assert first_of_class(program, candidates) == [0, 1, 0, 1]

    def test_misshaped_candidates_are_their_own_class(self):
        program = kernel_by_name("2point").build()
        odd = IntMatrix([[1, 0, 0], [0, 1, 0]])
        assert first_of_class(program, [None, odd, odd]) == [0, 1, 2]

    def test_empty(self):
        assert first_of_class(kernel_by_name("sor").build(), []) == []


class TestOracleIsLive:
    def test_one_unverified_symmetry_fails_the_oracle(self, monkeypatch):
        """A detector that also accepts one signed permutation of
        equal-trip loops without the exact check fails
        ``symmetry-invariance`` at seed 0, whichever one it accepts."""
        import repro.transform.symmetry as symmetry
        from repro.check import get_oracle
        from repro.transform.elementary import signed_permutations

        oracle = get_oracle("symmetry-invariance")
        program = oracle.generate(0)
        found = symmetries(program)
        extras = [
            p for p in signed_permutations(program.nest.depth)
            if all(p != s.matrix for s in found)
        ]
        assert len(set(program.nest.trip_counts)) == 1 and len(extras) == 4
        for extra in extras:
            unverified = symmetry.Symmetry(
                extra, tuple((a, a) for a in program.arrays)
            )
            monkeypatch.setattr(
                symmetry, "symmetries", lambda p, u=unverified: (*found, u)
            )
            assert oracle.check(program, 0) is not None, extra.rows


class TestMisshapedStillRaise:
    """``first_of_class`` never raises, so each scorer still raises its
    own message."""

    def test_cascade(self):
        program = kernel_by_name("2point").build()
        with pytest.raises(ValueError, match="shape does not match"):
            evaluate_cascade(program, [None, IntMatrix([[1, 0, 0], [0, 1, 0]])])

    def test_cascade_non_unimodular(self):
        program = kernel_by_name("2point").build()
        double = IntMatrix([[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="unimodular"):
            evaluate_cascade(
                program, [None, double, double @ IntMatrix([[-1, 0], [0, 1]])]
            )

    @pytest.mark.parametrize("rows,message", [
        ([[1, 0], [0, 1]], "vector length 3 != n_cols 2"),
        ([[1, 0, 0], [0, 1, 0]], "shape does not match"),
        ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], "unimodular"),
    ])
    def test_hierarchy(self, rows, message):
        program = _nest(HIERARCHY_BODIES["gemm"], 3, "gemm3")
        with pytest.raises(ValueError, match=message):
            search_hierarchy(program, preset("tcm"), candidates=[IntMatrix(rows)])


class TestSameAnswers:
    @pytest.mark.parametrize("kernel", sorted(OPTIMIZE_WINNERS))
    def test_optimize_winner(self, kernel):
        result = optimize_program(kernel_by_name(kernel).build())
        assert (
            result.transformation.rows, result.mws_before, result.mws_after
        ) == OPTIMIZE_WINNERS[kernel]

    @pytest.mark.parametrize("name", sorted(HIERARCHY_PLANS))
    def test_hierarchy_plans(self, name):
        program, hierarchy = _hierarchy_nest(name)
        modes = (True, False) if name.endswith("10") else (True,)
        for prune in modes:
            result = search_hierarchy(program, hierarchy, prune=prune)
            got = (result.best.describe(hierarchy), result.flat.describe(hierarchy))
            assert got == HIERARCHY_PLANS[name], prune

    def test_gemm48_counts(self):
        program, hierarchy = _hierarchy_nest("gemm48")
        result = search_hierarchy(program, hierarchy)
        assert (result.configs, result.evaluated, result.pruned) == (42, 30, 39)


class TestCascadeQuotient:
    def test_skipped_outcomes_equal_simulation(self):
        program = kernel_by_name("sor").build(8)
        candidates = [None, *candidate_transformations(program)]
        truths = batched_mws(program, candidates)
        observer = obs.enable()
        try:
            outcomes = evaluate_cascade(program, candidates)
        finally:
            obs.disable()
        skipped = [o for o in outcomes if o.tier == "symmetry"]
        assert skipped
        for outcome, truth in zip(outcomes, truths):
            if outcome.exact:
                assert outcome.value == truth
        counters = observer.counters
        assert counters["search.cascade.symmetric"] == len(skipped)
        assert counters["search.cascade.pruned"] >= len(skipped)

    def test_journal_reconciles_and_tallies_symmetry(self):
        from repro.reporting.journal import render_reconciliation

        program = kernel_by_name("full_search").build(frame=12, block=4)
        candidates = [None, *candidate_transformations(program)]
        observer = obs.enable()
        jr = journal.enable()
        try:
            outcomes = evaluate_cascade(program, candidates)
        finally:
            journal.disable()
            obs.disable()
        skipped = sum(o.tier == "symmetry" for o in outcomes)
        assert skipped
        assert jr.rejection_reasons()["symmetry"] == skipped
        _, ok = render_reconciliation(jr, observer.counters)
        assert ok


class TestHierarchyQuotient:
    def test_skip_records_and_counts(self):
        program, hierarchy = _hierarchy_nest("gemm10")
        jr = journal.enable()
        try:
            result = search_hierarchy(program, hierarchy)
        finally:
            journal.disable()
        reasons = jr.rejection_reasons()
        assert reasons["hierarchy_symmetry"] == 21
        assert (result.configs, result.evaluated, result.pruned) == (43, 28, 32)
        assert result.pruned == sum(reasons.values())

    def test_unpruned_search_is_exhaustive(self):
        program, hierarchy = _hierarchy_nest("gemm10")
        result = search_hierarchy(program, hierarchy, prune=False)
        assert (result.configs, result.evaluated, result.pruned) == (960, 840, 0)
