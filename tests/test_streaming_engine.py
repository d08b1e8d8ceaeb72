"""Streaming window engine: parity, block merging, dispatch, budget
gating and memory.

The streaming engine (:mod:`repro.window.streaming`) runs the dense
engine's kernel one block of ``streaming.CHUNK`` native positions at a
time and merges the block results, so it must agree exactly with the
dense fast engine and the reference simulator on every program, array,
transformation and block size.  These tests monkeypatch ``CHUNK`` down
to single points (forcing a merge at nearly every block), pin the
hand-computed per-element lifetimes and the block count, drive the
``engine=`` dispatch and the ``REPRO_DENSE_BUDGET`` gate that flips
``auto`` to streaming, and bound the engine's memory on a nest the
dense engine needs hundreds of MB for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.transform.elementary import signed_permutations
from repro.window import (
    ENGINES,
    fast,
    max_total_window,
    max_window_size,
    resolve_engine,
    streaming,
)
from repro.window.batched import _peak_concurrent
from repro.window.fast import max_total_window_fast, max_window_size_fast
from repro.window.simulator import max_window_size_reference
from repro.window.streaming import (
    max_total_window_streaming,
    max_window_size_streaming,
)

EXAMPLE_8 = """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j + 1] = X[2*i + 5*j + 5]
  }
}
"""

STENCIL_1024 = """
for i = 1 to 1024 {
  for j = 1 to 1024 {
    A[i + j] = A[i + j + 1] + A[i + j + 2]
  }
}
"""

_CONFIGS = {
    2: GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3),
    3: GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2),
}


@pytest.fixture
def block(monkeypatch):
    """Set the streaming block size for one test."""

    def set_block(size: int) -> None:
        monkeypatch.setattr(streaming, "CHUNK", size)

    return set_block


def _chunks(fn, *args) -> int:
    observer = obs.enable()
    try:
        fn(*args)
    finally:
        obs.disable()
    return observer.counters["streaming.chunks"]


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
    def test_streaming_matches_fast_and_reference(self, block, depth, seed):
        block(13)
        program = random_program(seed, _CONFIGS[depth])
        for t in _transformations(program):
            for array in program.arrays:
                fast_value = max_window_size_fast(program, array, t)
                stream = max_window_size_streaming(program, array, t)
                assert stream == fast_value, (
                    f"seed={seed} array={array} "
                    f"T={None if t is None else t.rows}: "
                    f"streaming={stream} fast={fast_value}\n{program}"
                )
            total_fast = max_total_window_fast(program, t)
            total_stream = max_total_window_streaming(program, t)
            assert total_stream == total_fast

    @pytest.mark.parametrize("chunk", [1, 7, 13, 64, streaming.CHUNK])
    def test_chunk_size_is_invisible(self, block, chunk):
        block(chunk)
        program = parse_program(EXAMPLE_8)
        t = IntMatrix([[2, 3], [1, 1]])
        assert max_window_size_streaming(program, "X") == 44
        assert max_total_window_streaming(program) == 44
        assert max_window_size_streaming(program, "X", t) == 21
        assert max_total_window_streaming(program, t) == 21

    def test_reference_agreement_on_example8_transformed(self, block):
        block(17)
        program = parse_program(EXAMPLE_8)
        t = IntMatrix([[2, 3], [1, 1]])
        assert max_window_size_streaming(program, "X", t) == \
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
        monkeypatch.setenv("REPRO_DENSE_BUDGET", "100")
        fast.clear_iteration_cache()  # a cached dense matrix would skip the gate
        program = parse_program(EXAMPLE_8)
        with pytest.raises(ValueError, match="iterations"):
            max_window_size(program, "X", engine="fast")


class TestChunkConfig:
    def test_default_chunk(self, monkeypatch):
        """The block size is a constant: no environment variable moves
        it, so Example 8's 250 points stream as one block."""
        monkeypatch.setenv("REPRO_STREAM_CHUNK", "9")
        assert streaming.CHUNK == 65536
        program = parse_program(EXAMPLE_8)
        assert _chunks(max_window_size_streaming, program, "X") == 1


class TestObservability:
    def test_chunk_counters(self, block):
        block(100)
        program = parse_program(EXAMPLE_8)  # 250 iterations
        observer = obs.enable()
        try:
            max_window_size_streaming(program, "X")
        finally:
            obs.disable()
        counters = observer.counters
        assert counters["streaming.simulate.calls"] == 1
        assert counters["streaming.chunks"] == 3  # ceil(250 / 100)


class TestChunkLoopInternals:
    """Direct tests of the block loop, its reduction and its merge.

    A 2x2 nest over ``A[i + j]`` has four iterations touching elements
    2, 3, 3, 4 at linear times 0..3 — small enough to hand-compute the
    exact per-element ``(first, last)`` keys every block size must
    reduce to.  Element ids are box-packed against the touched bounding
    box ``[2, 4]``, so ids are ``value - 2``.
    """

    PROGRAM_SRC = (
        "for i = 1 to 2 { for j = 1 to 2 { A[i + j] = A[i + j] } }"
    )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 16])
    def test_store_contents_invariant_under_chunking(self, block, chunk):
        """A block of 1, a non-divisor, an exact divisor and a block
        past the total must all reduce and merge to the same
        per-element lifetime keys."""
        block(chunk)
        program = parse_program(self.PROGRAM_SRC)
        ((ids, first, last),) = streaming._stream_lifetimes(
            program, ("A",), None
        )
        assert ids.tolist() == [0, 1, 2]  # elements 2, 3, 4
        assert first.tolist() == [0, 1, 3]
        assert last.tolist() == [0, 2, 3]
        # Only element 3 (id 1) is touched at two distinct times.
        assert _peak_concurrent(first, last) == 1

    @pytest.mark.parametrize(
        "chunk,expected",
        [(1, 4), (3, 2), (2, 2), (4, 1), (16, 1)],
        ids=["unit", "non-divisor", "divisor", "exact-total", "oversized"],
    )
    def test_chunk_count_is_ceil_of_total(self, block, chunk, expected):
        block(chunk)
        program = parse_program(self.PROGRAM_SRC)
        assert _chunks(max_total_window_streaming, program) == expected

    def test_decode_block_matches_native_iteration_order(self):
        """Every block ``[start, stop)`` is the matching slice of the
        native order."""
        for source in (
            "for i = 1 to 3 { for j = 2 to 4 { A[i][j] = 0 } }",
            "for i = -1 to 1 { for j = 0 to 3 { for k = 5 to 6 { "
            "A[i][j][k] = 0 } } }",
        ):
            nest = parse_program(source).nest
            expected = np.array(list(nest.iterate()), dtype=np.int64)
            total = expected.shape[0]
            for start in range(total):
                for stop in range(start + 1, total + 1):
                    got = fast._native_points(
                        nest.lowers, nest.trip_counts, start, stop
                    )
                    assert np.array_equal(got, expected[start:stop])

    def test_lifetime_store_merges_across_blocks(self):
        ids = lambda *v: np.array(v, dtype=np.int64)
        merged_ids, first, last = streaming._merge([
            (ids(5), ids(10), ids(10)),
            (ids(5, 9), ids(2, 4), ids(2, 4)),
        ])
        # Element 5 spans blocks: first=min(10, 2), last=max(10, 2).
        assert merged_ids.tolist() == [5, 9]
        assert first.tolist() == [2, 4]
        assert last.tolist() == [10, 4]


class TestMemory:
    def test_stencil_streams_in_bounded_memory(self):
        """A 1024x1024 stencil (2**20 points) streams under a 32 MB
        traced peak; the dense engine needs 160-235 MB for it."""
        import tracemalloc

        program = parse_program(STENCIL_1024)
        tracemalloc.start()
        try:
            value = max_total_window_streaming(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == 1025
        assert peak < 32 * 2**20


class TestOverflow:
    def test_time_keys_past_int64_raise(self):
        """Streaming has no dense-rank fallback: a transformation whose
        time pack cannot fit int64 raises, where the dense scorer falls
        back to lexsort ranks for that candidate."""
        program = parse_program(
            "for i = 1 to 5 { for j = 1 to 5 { X[i] = X[j] } }"
        )
        t = IntMatrix([[1, 2**59], [0, 1]])
        assert fast._time_pack(t.rows, (1, 1), (5, 5)) is None
        assert max_window_size_fast(program, "X", t) == \
            max_window_size_reference(program, "X", t)
        with pytest.raises(ValueError, match="no dense fallback"):
            max_window_size_streaming(program, "X", t)
