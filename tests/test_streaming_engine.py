"""Streaming chunked window engine: parity, dispatch, and budget gating.

The streaming engine (:mod:`repro.window.streaming`) must agree exactly
with the dense fast engine and the reference simulator on every program,
array, transformation and chunk size — it enumerates the same iteration
space in fixed-size blocks and reduces per-chunk first/last touches into
per-array lifetime stores.  These tests drive randomized differentials
(including adversarially tiny chunks that force many store
consolidations), the ``engine=`` dispatch on the public entry points,
and the ``REPRO_DENSE_BUDGET`` gate that flips ``auto`` to streaming.
"""

from __future__ import annotations

import pytest

from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.transform.elementary import (
    bounded_unimodular_matrices,
    signed_permutations,
)
from repro.window import ENGINES, max_total_window, max_window_size, resolve_engine
from repro.window.fast import max_total_window_fast, max_window_size_fast
from repro.window.simulator import max_window_size_reference
from repro.window.streaming import (
    DEFAULT_CHUNK,
    CHUNK_ENV,
    max_total_window_streaming,
    max_window_size_streaming,
    stream_chunk,
)

EXAMPLE_8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""

_CONFIGS = {
    2: GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3),
    3: GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2),
}


def _transformations(program):
    perms = list(signed_permutations(program.nest.depth))
    picks = [None, perms[len(perms) // 2]]
    if program.nest.depth == 2:
        picks.append(IntMatrix([[2, 1], [1, 1]]))
    return picks


class TestParity:
    @pytest.mark.parametrize("depth,seed", [
        (depth, seed) for depth in (2, 3) for seed in range(30)
    ])
    def test_streaming_matches_fast_and_reference(self, depth, seed):
        program = random_program(seed, _CONFIGS[depth])
        for t in _transformations(program):
            for array in program.arrays:
                fast = max_window_size_fast(program, array, t)
                stream = max_window_size_streaming(program, array, t, chunk=13)
                assert stream == fast, (
                    f"seed={seed} array={array} "
                    f"T={None if t is None else t.rows}: "
                    f"streaming={stream} fast={fast}\n{program}"
                )
            total_fast = max_total_window_fast(program, t)
            total_stream = max_total_window_streaming(program, t, chunk=13)
            assert total_stream == total_fast

    @pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK])
    def test_chunk_size_is_invisible(self, chunk):
        program = parse_program(EXAMPLE_8)
        assert max_window_size_streaming(program, "X", chunk=chunk) == 44
        assert max_total_window_streaming(program, chunk=chunk) == 44

    def test_reference_agreement_on_example8_transformed(self):
        program = parse_program(EXAMPLE_8)
        t = IntMatrix([[2, 3], [1, 1]])
        assert max_window_size_streaming(program, "X", t, chunk=17) == \
            max_window_size_reference(program, "X", t) == 21


class TestDispatch:
    def test_engine_names_agree(self):
        program = parse_program(EXAMPLE_8)
        values = {
            engine: max_window_size(program, "X", engine=engine)
            for engine in ENGINES
        }
        assert set(values.values()) == {44}
        totals = {
            engine: max_total_window(program, engine=engine)
            for engine in ENGINES
        }
        assert set(totals.values()) == {44}

    def test_engine_names(self):
        # The def-use comparator is a cross-check called directly, not
        # an engine.
        assert ENGINES == ("auto", "reference", "fast", "streaming")
        with pytest.raises(ValueError, match="unknown window engine"):
            resolve_engine(parse_program(EXAMPLE_8), "zhao_malik")

    def test_unknown_engine_raises(self):
        program = parse_program(EXAMPLE_8)
        with pytest.raises(ValueError, match="unknown window engine"):
            max_window_size(program, "X", engine="bogus")
        with pytest.raises(ValueError, match="unknown window engine"):
            resolve_engine(program, "bogus")

    def test_auto_resolves_fast_below_budget(self):
        program = parse_program(EXAMPLE_8)
        assert resolve_engine(program, "auto") == "fast"

    def test_auto_resolves_streaming_past_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_BUDGET", "100")
        program = parse_program(EXAMPLE_8)  # 250 iterations > 100
        assert resolve_engine(program, "auto") == "streaming"
        # auto must still produce the exact answer through streaming.
        assert max_window_size(program, "X", engine="auto") == 44
        assert max_total_window(program, engine="auto") == 44

    def test_explicit_fast_past_budget_raises(self, monkeypatch):
        from repro.window.fast import clear_iteration_cache

        monkeypatch.setenv("REPRO_DENSE_BUDGET", "100")
        clear_iteration_cache()  # a cached dense matrix would skip the gate
        program = parse_program(EXAMPLE_8)
        with pytest.raises(ValueError, match="iterations"):
            max_window_size(program, "X", engine="fast")


class TestChunkConfig:
    def test_default_chunk(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV, raising=False)
        assert stream_chunk() == DEFAULT_CHUNK

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "4096")
        assert stream_chunk() == 4096

    def test_invalid_chunk_rejected(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "0")
        with pytest.raises(ValueError):
            stream_chunk()

    def test_env_chunk_drives_engine(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "9")
        program = parse_program(EXAMPLE_8)
        assert max_window_size_streaming(program, "X") == 44


class TestObservability:
    def test_chunk_counters(self):
        from repro import obs

        program = parse_program(EXAMPLE_8)  # 250 iterations
        observer = obs.enable()
        try:
            max_window_size_streaming(program, "X", chunk=100)
        finally:
            obs.disable()
        counters = observer.counters
        assert counters["streaming.simulate.calls"] == 1
        assert counters["streaming.chunks"] == 3  # ceil(250 / 100)


class TestChunkLoopInternals:
    """Direct tests of the chunk loop and its per-chunk store folding.

    A 2x2 nest over ``A[i + j]`` has four iterations touching elements
    2, 3, 3, 4 at linear times 0..3 — small enough to hand-compute the
    exact per-element ``(first, last)`` keys any chunking must reduce
    to.  Element keys are box-packed against the touched bounding box
    ``[2, 4]``, so ids are ``value - 2``.
    """

    PROGRAM_SRC = (
        "for i = 1 to 2 { for j = 1 to 2 { A[i + j] = A[i + j] } }"
    )

    def _stores(self, chunk):
        from repro.window.streaming import _stream_lifetimes

        program = parse_program(self.PROGRAM_SRC)
        return _stream_lifetimes(program, ("A",), None, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 16])
    def test_store_contents_invariant_under_chunking(self, chunk):
        """chunk=1, a non-divisor, an exact divisor and chunk >= total
        must all fold to the same per-element lifetime keys."""
        import numpy as np

        store = self._stores(chunk)["A"]
        store._consolidate()
        assert store._ids.tolist() == [0, 1, 2]  # elements 2, 3, 4
        assert store._first.tolist() == [0, 1, 3]
        assert store._last.tolist() == [0, 2, 3]
        first, last = store.live_lifetimes()
        # Only element 3 (id 1) is touched at two distinct times.
        assert first.tolist() == [1]
        assert last.tolist() == [2]
        assert isinstance(first, np.ndarray)

    @pytest.mark.parametrize(
        "chunk,expected",
        [(1, 4), (3, 2), (2, 2), (4, 1), (16, 1)],
        ids=["unit", "non-divisor", "divisor", "exact-total", "oversized"],
    )
    def test_chunk_count_is_ceil_of_total(self, chunk, expected):
        from repro import obs

        observer = obs.enable()
        try:
            self._stores(chunk)
        finally:
            obs.disable()
        assert observer.counters["streaming.chunks"] == expected

    def test_decode_block_matches_native_iteration_order(self):
        from repro.window.streaming import _decode_block

        program = parse_program(
            "for i = 1 to 3 { for j = 2 to 4 { A[i][j] = 0 } }"
        )
        nest = program.nest
        expected = [tuple(p) for p in nest.iterate()]
        got = _decode_block(0, 9, nest.lowers, nest.trip_counts)
        assert [tuple(row) for row in got.tolist()] == expected
        # A mid-stream block is the matching slice of the full order.
        middle = _decode_block(4, 7, nest.lowers, nest.trip_counts)
        assert [tuple(row) for row in middle.tolist()] == expected[4:7]

    def test_lifetime_store_merges_across_blocks(self):
        import numpy as np

        from repro.window.streaming import _LifetimeStore

        store = _LifetimeStore(chunk=2)
        ids = lambda *v: np.array(v, dtype=np.int64)
        store.add(ids(5), ids(10), ids(10))
        store.add(ids(5, 9), ids(2, 4), ids(2, 4))
        store.add(ids(), ids(), ids())  # empty block is a no-op
        first, last = store.live_lifetimes()
        # Element 5 spans blocks: first=min(10, 2), last=max(10, 2).
        assert first.tolist() == [2]
        assert last.tolist() == [10]

    def test_empty_store_yields_empty_lifetimes(self):
        from repro.window.streaming import _LifetimeStore

        store = _LifetimeStore(chunk=4)
        first, last = store.live_lifetimes()
        assert first.size == 0 and last.size == 0

    @pytest.mark.parametrize("chunk", [1, 3, 5, 250])
    def test_env_chunk_edges_keep_answers_exact(self, monkeypatch, chunk):
        monkeypatch.setenv(CHUNK_ENV, str(chunk))
        program = parse_program(EXAMPLE_8)  # 250 iterations
        assert max_window_size_streaming(program, "X") == 44
        assert max_total_window_streaming(program) == 44
