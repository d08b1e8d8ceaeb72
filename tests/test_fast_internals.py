"""Unit tests for the vectorized window engine's building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_program
from repro.ir.generate import GeneratorConfig, random_program
from repro.linalg import IntMatrix
from repro.window.batched import _batched_time_keys, _peak_concurrent
from repro.window.fast import (
    _ITER_STATE,
    _element_state,
    _execution_times,
    _iteration_matrix,
    clear_iteration_cache,
    dense_budget,
    lifetime_table,
)
from repro.window.simulator import element_lifetimes, window_profile


def _time_keys(program, transformation):
    """One candidate's row of the batched scorer's time keys."""
    return _batched_time_keys(program, [transformation])[0]


class TestIterationMatrix:
    def test_matches_nest_iterate(self):
        prog = parse_program(
            "for i = 0 to 3 { for j = -1 to 2 { A[i][j] = 1 } }"
        )
        points = _iteration_matrix(prog)
        expected = np.array(list(prog.nest.iterate()))
        assert np.array_equal(points, expected)

    def test_cached(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        assert _iteration_matrix(prog) is _iteration_matrix(prog)

    def test_cache_keyed_by_content_hash(self):
        """The state is cached per Program.signature(), not per object —
        so a pickled clone (what pool workers deserialize) hits the same
        entry instead of re-enumerating per candidate."""
        import pickle

        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        _iteration_matrix(prog)
        assert "_iter_matrix_cache" not in vars(prog)
        assert prog.signature() in _ITER_STATE
        clone = pickle.loads(pickle.dumps(prog))
        assert _iteration_matrix(clone) is _iteration_matrix(prog)

    def test_cache_is_bounded(self):
        from repro.window.fast import _ITER_STATE_LIMIT

        clear_iteration_cache()
        for k in range(_ITER_STATE_LIMIT + 5):
            prog = parse_program(f"for i = 1 to {k + 2} {{ A[i] = 1 }}")
            _iteration_matrix(prog)
        assert len(_ITER_STATE) == _ITER_STATE_LIMIT

    def test_overflow_guard_rejects_huge_nests(self):
        """math.prod over Python ints detects what int64 np.prod would
        silently wrap: a nest too large to enumerate densely."""
        prog = parse_program(
            "for i = 1 to 3000000000 { for j = 1 to 3000000000 { "
            "for k = 1 to 3000000000 { A[i] = 1 } } }"
        )
        with pytest.raises(ValueError, match="overflow|iterations"):
            _iteration_matrix(prog)

    @given(st.integers(0, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_on_random(self, seed):
        prog = random_program(seed, GeneratorConfig(max_trip=5, depth=3))
        points = _iteration_matrix(prog)
        expected = np.array(list(prog.nest.iterate()))
        assert np.array_equal(points, expected)


class TestExecutionTimes:
    def test_identity_is_arange(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        times = _execution_times(prog, None)
        assert np.array_equal(times, np.arange(12))

    def test_transformed_is_permutation(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        t = IntMatrix([[0, 1], [1, 0]])
        times = _execution_times(prog, t)
        assert sorted(times.tolist()) == list(range(12))

    def test_transformed_order_matches_sort(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        t = IntMatrix([[1, 1], [0, 1]])
        times = _execution_times(prog, t)
        points = list(prog.nest.iterate())
        by_time = sorted(range(len(points)), key=lambda k: times[k])
        ordered = [t.apply(points[k]) for k in by_time]
        assert ordered == sorted(ordered)

    def test_rejects_non_unimodular(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            _execution_times(prog, IntMatrix([[2]]))


class TestElementIds:
    def test_equal_elements_share_ids(self):
        prog = parse_program("for i = 1 to 6 { B[0] = A[i] + A[i-1] }")
        ids = _element_state(prog, "A").ids
        # A[i] at iteration t equals A[i-1] at iteration t+1.
        assert ids[0][0] == ids[1][1]

    def test_distinct_elements_distinct_ids(self):
        prog = parse_program("for i = 1 to 6 { A[i] = 1 }")
        (ids,) = _element_state(prog, "A").ids
        assert len(set(ids.tolist())) == 6

    def test_unknown_array(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(KeyError):
            _element_state(prog, "Z")


#: 2**62: an access coefficient whose element coordinates wrap int64
#: within five iterations.
_BIG = 4611686018427387904


def _element_id_paths(program):
    """Every production path that reads the dense engine's element ids,
    as a zero-argument callable each."""
    from repro.layout import max_line_window
    from repro.memory import CacheConfig, simulate_cache
    from repro.memory.scratchpad import access_stream, simulate_scratchpad
    from repro.transform import allocate_window
    from repro.transform.tiling import tile_footprints
    from repro.window import (
        batched_mws,
        lifetime_stats,
        max_total_window,
        max_window_size,
        window_profile,
    )
    from repro.window.fast import liveness_profile_fast
    from repro.window.streaming import max_window_size_streaming

    depth = program.nest.depth
    return {
        "max_window_size": lambda: max_window_size(program, "X"),
        "max_total_window": lambda: max_total_window(program),
        "batched_mws": lambda: batched_mws(program, [None], "X")[0],
        "batched_mws_total": lambda: batched_mws(program, [None])[0],
        "streaming": lambda: max_window_size_streaming(program, "X"),
        "access_stream": lambda: access_stream(program),
        "simulate_scratchpad": lambda: simulate_scratchpad(program, 1),
        "tile_footprints": lambda: tile_footprints(program, (1,) * depth),
        "liveness_profile": lambda: liveness_profile_fast(program, "X"),
        "window_profile": lambda: window_profile(program, "X"),
        "lifetime_stats": lambda: lifetime_stats(program, "X"),
        "max_line_window": lambda: max_line_window(program, "X"),
        "allocate_window": lambda: allocate_window(program, "X"),
        "simulate_cache": lambda: simulate_cache(program, CacheConfig(4)),
    }


class TestLifetimeTable:
    @staticmethod
    def _as_dict(table):
        return {
            tuple(c + o for c, o in zip(table.corner, row)): (first, last)
            for row, first, last in zip(
                table.offsets.tolist(), table.first.tolist(),
                table.last.tolist(),
            )
        }

    @pytest.mark.parametrize(
        "rows", [None, [[0, 1], [1, 0]], [[1, 1], [0, 1]]]
    )
    def test_matches_the_reference_walk(self, rows):
        prog = parse_program(
            "for i = 1 to 4 { for j = 1 to 3 { "
            "X[i][j + i] = X[i - 1][2*j] + X[j][i] } }"
        )
        t = None if rows is None else IntMatrix(rows)
        table = lifetime_table(prog, "X", t)
        assert self._as_dict(table) == element_lifetimes(prog, "X", t)
        # Dense id order is the packed (row-major over the box) order.
        assert table.offsets.tolist() == sorted(table.offsets.tolist())

    def test_coordinates_past_int64_stay_exact(self):
        """Offsets fold into the box corner, which stays a Python int, so
        coordinates past int64 keep their addresses."""
        from repro.check.oracles import allocate_window_reference
        from repro.layout import RowMajorLayout
        from repro.transform import allocate_window

        prog = parse_program(
            f"for i = 1 to 5 {{ X[i + {2**64}] = X[i + {2**64 - 1}] }}"
        )
        table = lifetime_table(prog, "X")
        assert table.corner == (2**64,)
        assert self._as_dict(table) == element_lifetimes(prog, "X")
        assert table.addresses(RowMajorLayout(), prog.decl("X")).tolist() == [
            0, 1, 2, 3, 4, 5,
        ]
        assert allocate_window(prog, "X") == allocate_window_reference(
            prog, "X"
        )


class TestElementIdsPastInt64:
    """Element ids are packed from exact Python-int extents: coordinates
    past int64 raise ``ValueError`` naming the array instead of packing
    wrapped int64 values into wrong ids (a window of 2 where the
    reference says 1, and 4 ids for 10 distinct elements)."""

    @pytest.mark.parametrize("subscript,reference", [
        (f"[{_BIG}*i]", 1),
        (f"[{_BIG}*i][j]", 0),
    ])
    def test_wrapping_coordinates_raise(self, subscript, reference):
        from repro.window.simulator import max_window_size_reference
        from repro.window.zhao_malik import max_window_size_zhao_malik

        program = parse_program(
            f"for i = 1 to 5 {{ for j = 1 to 2 {{ "
            f"X{subscript} = X{subscript} + 1 }} }}"
        )
        assert max_window_size_reference(program, "X") == reference
        assert max_window_size_zhao_malik(program, "X") == reference
        for name, run in _element_id_paths(program).items():
            with pytest.raises(ValueError, match="array X"):
                run()
                pytest.fail(f"{name} answered from wrapped ids")

    @pytest.mark.parametrize("source", [
        f"for i = 1 to 5 {{ for j = 1 to 2 {{ "
        f"X[i + {_BIG}] = X[i + {_BIG}] + 1 }} }}",
        f"for i = {_BIG} to {_BIG + 3} {{ X[i] = X[i - 1] }}",
    ], ids=["offset", "bounds"])
    def test_coordinates_inside_int64_keep_their_answers(self, source):
        """Near 2**62 but inside int64: every path answers, with the
        reference's window of 1.  (A 2**62 screen on ``|A| * max|bound|``
        would refuse the second nest.)"""
        from repro.window.simulator import max_window_size_reference

        program = parse_program(source)
        assert max_window_size_reference(program, "X") == 1
        paths = _element_id_paths(program)
        for name in ("max_window_size", "max_total_window", "batched_mws",
                     "batched_mws_total", "streaming"):
            assert paths[name]() == 1, name
        elements, _ = paths["access_stream"]()
        assert len(set(elements.tolist())) == 5
        assert paths["liveness_profile"]().peak == 1

    def test_matmul_partial_sums_are_bounded(self):
        """The touched box is one element, but summing the first two
        terms of ``A @ i`` reaches 2**63: refused, not wrapped.  Terms
        of opposite signs that no partial sum can push past int64 are
        kept."""
        kept = parse_program(
            f"for i = 1 to 1 {{ for j = 1 to 1 {{ "
            f"X[{_BIG}*i - {_BIG}*j] = 0 }} }}"
        )
        assert kept.references[0].access.to_lists() == [[_BIG, -_BIG]]
        assert _element_state(kept, "X").ids[0].tolist() == [0]
        refused = parse_program(
            f"for i = 1 to 1 {{ for j = 1 to 1 {{ for k = 1 to 1 {{ "
            f"X[{_BIG}*i + {_BIG}*j - {_BIG}*k] = 0 }} }} }}"
        )
        with pytest.raises(ValueError, match="array X.*past int64"):
            _element_state(refused, "X")


class TestTimeKeys:
    def test_native_order_is_arange(self):
        prog = parse_program("for i = 1 to 4 { for j = 1 to 3 { A[i][j] = 1 } }")
        assert np.array_equal(_time_keys(prog, None), np.arange(12))

    def test_packed_keys_order_isomorphic_to_ranks(self):
        prog = parse_program(
            "for i = 1 to 5 { for j = -2 to 3 { A[i][j] = 1 } }"
        )
        for rows in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, -1], [0, 1]],
                     [[2, 1], [1, 1]]):
            t = IntMatrix(rows)
            keys = _time_keys(prog, t)
            ranks = _execution_times(prog, t)
            assert len(set(keys.tolist())) == keys.shape[0]
            assert np.array_equal(np.argsort(keys), np.argsort(ranks))

    def test_rejects_non_unimodular(self):
        prog = parse_program("for i = 1 to 4 { A[i] = 1 }")
        with pytest.raises(ValueError):
            _time_keys(prog, IntMatrix([[2]]))


class TestPeakConcurrent:
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_sweep(self, raw):
        starts = np.array([s for s, _ in raw], dtype=np.int64)
        ends = np.array([s + d for s, d in raw], dtype=np.int64)
        horizon = int(ends.max()) + 1 if raw else 1
        dense = np.zeros(horizon + 1, dtype=np.int64)
        np.add.at(dense, starts, 1)
        np.add.at(dense, ends, -1)
        expected = int(np.cumsum(dense[:-1]).max(initial=0))
        assert _peak_concurrent(starts, ends) == expected

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert _peak_concurrent(empty, empty) == 0


class TestDenseBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE_BUDGET", raising=False)
        assert dense_budget() == 2**26

    def test_env_override_gates_enumeration(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_BUDGET", "10")
        clear_iteration_cache()
        prog = parse_program("for i = 1 to 20 { A[i] = 1 }")
        with pytest.raises(ValueError, match="iterations"):
            _iteration_matrix(prog)
        monkeypatch.setenv("REPRO_DENSE_BUDGET", "20")
        assert _iteration_matrix(prog).shape == (20, 1)


class TestWindowProfile:
    def test_window_empties_by_the_last_iteration(self):
        prog = parse_program(
            "for i = 1 to 8 { X[2*i + 1] = X[2*i + 5] }"
        )
        assert window_profile(prog, "X").sizes[-1] == 0

    def test_sizes_nonnegative(self):
        prog = parse_program(
            "for i = 1 to 8 { X[2*i + 1] = X[2*i + 5] }"
        )
        assert min(window_profile(prog, "X").sizes) >= 0
