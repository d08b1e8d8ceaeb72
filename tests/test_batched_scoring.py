"""Batched multi-candidate scoring: differential parity and overflow screens.

``window.batched.batched_mws`` must be value-identical to scoring each
candidate through the pure-Python reference simulator — for random
programs at depths 2-4, multi-reference arrays, ``None`` and overflow
candidates, and loop bounds on either side of every exactness screen of
the key computation — and its counters must reconcile with the serial
path's.
"""

from __future__ import annotations

import random
from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.transform.elementary import (
    bounded_unimodular_matrices,
    signed_permutations,
)
from repro.transform.search import (
    clear_exact_cache,
    evaluate_exact,
    exact_cache_size,
)
from repro.window import batched
from repro.window.fast import clear_iteration_cache
from repro.window.simulator import max_total_window, max_window_size


@pytest.fixture(autouse=True)
def fresh_state():
    obs.disable()
    clear_exact_cache()
    clear_iteration_cache()
    yield
    obs.disable()
    clear_exact_cache()
    clear_iteration_cache()


def _candidate_pool(depth: int, seed: int) -> list[IntMatrix | None]:
    """None + signed permutations + (2-D) skewed unimodular matrices."""
    rng = random.Random(seed)
    pool: list[IntMatrix | None] = list(signed_permutations(depth))
    if depth == 2:
        pool.extend(bounded_unimodular_matrices(2, 1))
    rng.shuffle(pool)
    return [None] + pool[:7]


def _serial_values(program, candidates, array, engine="reference"):
    if array is None:
        return [
            max_total_window(program, t, engine=engine) for t in candidates
        ]
    return [
        max_window_size(program, array, t, engine=engine) for t in candidates
    ]


_CONFIGS = [
    GeneratorConfig(depth=2, min_trip=2, max_trip=8),
    GeneratorConfig(depth=2, min_trip=2, max_trip=8, uniform_only=False),
    GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2),
    GeneratorConfig(depth=4, min_trip=2, max_trip=3, max_coeff=1),
]


class TestDifferentialParity:
    @pytest.mark.parametrize("cfg", _CONFIGS, ids=lambda c: f"depth{c.depth}")
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_matches_serial(self, cfg, seed):
        program = random_program(seed * 31 + cfg.depth, cfg)
        candidates = _candidate_pool(program.nest.depth, seed)
        for array in [None, *program.arrays]:
            got = batched.batched_mws(
                program, candidates, array=array, engine="fast"
            )
            assert got == _serial_values(program, candidates, array), (
                f"array={array}"
            )

    def test_multi_reference_multi_array(self):
        program = parse_program(
            "for i = 1 to 9 { for j = 1 to 7 { "
            "A[i + 2*j] = A[i + 2*j - 3] + B[2*i - j] + B[2*i - j + 1] } }"
        )
        candidates = _candidate_pool(2, 11)
        for array in [None, "A", "B"]:
            got = batched.batched_mws(program, candidates, array=array)
            assert got == _serial_values(program, candidates, array)

    def test_non_fast_engine_scores_per_candidate(self):
        program = random_program(3, GeneratorConfig(depth=2, max_trip=5))
        candidates = _candidate_pool(2, 3)
        array = program.arrays[0]
        got = batched.batched_mws(
            program, candidates, array=array, engine="reference"
        )
        assert got == [
            max_window_size(program, array, t, engine="reference")
            for t in candidates
        ]

    def test_empty_candidates(self):
        program = random_program(1, GeneratorConfig(depth=2))
        assert batched.batched_mws(program, [], array=None) == []


_MISSHAPED_NESTS = {
    2: "for i = 1 to 6 { for j = 1 to 6 { X[2*i + 5*j] = X[2*i + 5*j + 3] } }",
    3: "for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 {"
       " A[i][j] = A[i][j] + B[j][k] } } }",
}


class TestEdgeCases:
    @pytest.mark.parametrize("array_kind", ["array", "total"])
    @pytest.mark.parametrize(
        "entry",
        ["auto", "fast", "reference", "streaming", "batched_mws",
         "evaluate_exact"],
    )
    @pytest.mark.parametrize(
        "depth,rows",
        [
            (2, [[1, 0]]),
            (3, [[1, 0, 0], [0, 1, 0]]),
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
        ],
        ids=["1x2", "2x3", "4x3"],
    )
    def test_misshaped_transformation_raises(
        self, depth, rows, entry, array_kind
    ):
        # Every engine rejects a transformation that is not depth x
        # depth with the same error, and no value reaches the memo.
        program = parse_program(_MISSHAPED_NESTS[depth])
        t = IntMatrix(rows)
        array = program.arrays[0] if array_kind == "array" else None
        with pytest.raises(
            ValueError, match="shape does not match nest depth"
        ):
            if entry == "batched_mws":
                batched.batched_mws(program, [t], array=array)
            elif entry == "evaluate_exact":
                evaluate_exact(program, [None, t], array=array)
            elif array is None:
                max_total_window(program, t, engine=entry)
            else:
                max_window_size(program, array, t, engine=entry)
        assert exact_cache_size() == 0

    def test_non_unimodular_candidate_raises(self):
        program = random_program(2, GeneratorConfig(depth=2))
        singular = IntMatrix([[1, 0], [2, 0]])
        with pytest.raises(ValueError):
            batched.batched_mws(program, [None, singular], array=None)

    def test_unknown_array_raises_keyerror(self):
        program = random_program(2, GeneratorConfig(depth=2))
        with pytest.raises(KeyError):
            batched.batched_mws(program, [None], array="NOPE")

    def test_overflow_candidate_falls_back_per_row(self):
        # A huge skew coefficient makes the candidate's transformed
        # spans overflow the int64 pack even on a tiny nest: that row
        # alone must detour through dense lexsort ranks
        # (fast.pack.fallback) while the rest of the batch stays fused —
        # values unchanged either way.
        program = parse_program(
            "for i = 1 to 8 { for j = 1 to 8 { A[i + j] = A[i + j - 1] } }"
        )
        skew = IntMatrix([[1, 2**58], [0, 1]])
        observer = obs.enable()
        got = batched.batched_mws(program, [None, skew], array="A")
        obs.disable()
        assert observer.summary()["counters"]["fast.pack.fallback"] >= 1
        assert got == _serial_values(program, [None, skew], "A")

    @pytest.mark.parametrize("exponent", [61, 62, 63])
    def test_huge_skew_exact_or_refused(self, exponent):
        # Regression: the pack fallback lexsorted an unscreened int64
        # ``points @ T.T`` that wrapped, so T = [[1, 2**61], [0, 1]]
        # scored 14 on X where the reference gives 7 (21 at 2**62, an
        # OverflowError at 2**63) and evaluate_exact memoized it.  Every
        # entry point must now agree with the reference or refuse.
        program = parse_program(_MISSHAPED_NESTS[2])
        candidates = [None, IntMatrix([[1, 2**exponent], [0, 1]])]
        for array in ("X", None):
            want = _serial_values(program, candidates, array)
            entries = [
                partial(_serial_values, program, candidates, array, engine)
                for engine in ("auto", "fast", "streaming")
            ] + [
                partial(batched.batched_mws, program, candidates, array),
                partial(evaluate_exact, program, candidates, array),
            ]
            for entry in entries:
                try:
                    got = entry()
                except ValueError:
                    continue
                assert got == want
        assert exact_cache_size() == 0

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        program = random_program(7, GeneratorConfig(depth=2, max_trip=8))
        candidates = _candidate_pool(2, 7)
        want = batched.batched_mws(program, candidates, array=None)
        # Force a chunk size of 1 row: every candidate becomes its own
        # internal chunk and the concatenated result must be unchanged.
        monkeypatch.setattr(batched, "_CHUNK_ELEMS", 1)
        assert batched.batched_mws(program, candidates, array=None) == want


class TestCountersAndCache:
    def _counters(self, fn):
        observer = obs.enable()
        fn()
        obs.disable()
        return observer.summary()["counters"]

    def test_batched_counter_parity_with_serial(self):
        program = random_program(9, GeneratorConfig(depth=2, max_trip=8))
        candidates = _candidate_pool(2, 9)
        array = program.arrays[0]
        serial = self._counters(
            lambda: _serial_values(program, candidates, array, engine="fast")
        )
        clear_iteration_cache()
        batch = self._counters(
            lambda: batched.batched_mws(program, candidates, array=array)
        )
        # Per-candidate accounting reconciles: one simulate per candidate
        # whether scored one at a time or as a batch.
        assert batch["fast.simulate.calls"] == serial["fast.simulate.calls"]
        assert batch["fast.simulate.calls"] == len(candidates)
        assert batch["engine.fast.calls"] == len(candidates)
        assert batch["batch.candidates"] == len(candidates)


class TestSweepBodies:
    @pytest.mark.parametrize("seed", range(4))
    def test_event_sort_matches_per_row_scan(self, seed, monkeypatch):
        # The sweep picks its body from the element count; both bodies
        # are exact, so forcing the per-row scan must not move a value.
        cfg = GeneratorConfig(depth=2 + seed % 2, min_trip=2, max_trip=5)
        program = random_program(seed * 13 + 1, cfg)
        candidates = _candidate_pool(program.nest.depth, seed)
        for array in [None, *program.arrays]:
            want = batched.batched_mws(program, candidates, array=array)
            monkeypatch.setattr(batched, "_EVENT_SWEEP_MAX_ELEMS", 0)
            got = batched.batched_mws(program, candidates, array=array)
            monkeypatch.undo()
            assert got == want == _serial_values(program, candidates, array)

    def test_per_candidate_engine_is_the_scorer_at_k1(self):
        program = random_program(8, GeneratorConfig(depth=2, max_trip=6))
        candidates = _candidate_pool(2, 8)
        array = program.arrays[0]
        observer = obs.enable()
        got = [
            max_window_size(program, array, t, engine="fast")
            for t in candidates
        ]
        obs.disable()
        counters = observer.summary()["counters"]
        assert got == batched.batched_mws(program, candidates, array=array)
        assert counters["engine.fast.calls"] == len(candidates)
        assert counters["fast.simulate.calls"] == len(candidates)
        assert "batch.candidates" not in counters


#: Exactness screens of ``_batched_time_keys``: int32 keys below 2**27,
#: the float64 BLAS key matmul below 2**53, the vectorized int64 prep
#: below 2**58 (python-int exact path above).
_SCREENS = (1 << 27, 1 << 53, 1 << 58)

#: 2-D candidates whose screened quantities grow as 1x, 4x and 8x the
#: loop bound, so shifted bounds put each of them on both sides of a
#: screen.
_SCREEN_CANDIDATES = [
    IntMatrix([[0, 1], [1, 0]]),
    IntMatrix([[1, 1], [0, 1]]),
    IntMatrix([[1, 0], [1, 1]]),
    IntMatrix([[-1, 0], [0, 1]]),
    IntMatrix([[0, -1], [1, 1]]),
]


def _offset_nest(lower: int):
    return parse_program(
        f"for i = {lower} to {lower + 3} {{ for j = 0 to 3 {{ "
        "A[i + j] = A[i + j - 1] + B[j] } }"
    )


class TestOverflowScreens:
    def _assert_orders_exact(self, program, candidates):
        from repro.window.fast import _execution_times

        batch = batched._batched_time_keys(program, candidates)
        for k, t in enumerate(candidates):
            ranks = _execution_times(program, t)
            alone = batched._batched_time_keys(program, [t])[0]
            for keys in (batch[k], alone):
                assert len(set(keys.tolist())) == keys.shape[0]
                assert np.array_equal(np.argsort(keys), np.argsort(ranks))

    def test_int32_key_screen_boundary(self):
        # ``for i = L to U`` under the identity: every screened quantity
        # is U, so the keys are int32 exactly while U < 2**27.
        for upper, dtype in (((1 << 27) - 1, np.int32), (1 << 27, np.int64)):
            program = parse_program(
                f"for i = {upper - 7} to {upper} {{ A[i] = A[i - 1] }}"
            )
            keys = batched._batched_time_keys(program, [IntMatrix([[1]])])
            assert keys.dtype == dtype
            self._assert_orders_exact(program, [IntMatrix([[1]]), None])

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_straddling_every_screen(self, seed, monkeypatch):
        from repro.window import fast

        rng = random.Random(seed)
        seen = {"float_mm": 0, "exact": 0}
        points_f64 = fast._IterState.points_f64
        affine_extents = fast._affine_extents

        def spy_points_f64(state):
            seen["float_mm"] += 1
            return points_f64(state)

        def spy_affine_extents(*args):
            seen["exact"] += 1
            return affine_extents(*args)

        monkeypatch.setattr(fast._IterState, "points_f64", spy_points_f64)
        monkeypatch.setattr(fast, "_affine_extents", spy_affine_extents)
        dtypes = set()
        float_mm_sides = set()
        exact_sides = set()
        for screen in _SCREENS:
            for shift in range(4):
                for sign in (-1, 1):
                    lower = (screen >> shift) + sign * rng.randint(1, 8)
                    if rng.random() < 0.5:
                        lower = -lower - 3
                    program = _offset_nest(lower)
                    candidates = [None, *_SCREEN_CANDIDATES]
                    before = dict(seen)
                    self._assert_orders_exact(program, candidates)
                    dtypes.add(
                        batched._batched_time_keys(program, candidates).dtype
                    )
                    float_mm_sides.add(seen["float_mm"] > before["float_mm"])
                    exact_sides.add(seen["exact"] > before["exact"])
                    for array in (None, "A", "B"):
                        assert batched.batched_mws(
                            program, candidates, array=array
                        ) == _serial_values(program, candidates, array)
        # Every screen was met from both sides.
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
        assert float_mm_sides == {True, False}
        assert exact_sides == {True, False}
