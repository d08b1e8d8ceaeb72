"""Memoized search engine: exact-cache semantics and program signatures.

The content-hash cache must make rebuilt-but-equal programs share exact
simulation results, and keep total-window and per-array keys apart.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.ir import parse_program
from repro.linalg import IntMatrix
from repro.transform.search import (
    clear_exact_cache,
    evaluate_exact,
    exact_cache_size,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    obs.disable()
    clear_exact_cache()
    yield
    obs.disable()
    clear_exact_cache()


class TestExactCache:
    def test_cache_shared_across_equal_programs(self):
        src = "for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i-1][j] } }"
        p1 = parse_program(src, name="first")
        p2 = parse_program(src, name="second")
        assert p1.signature() == p2.signature()
        evaluate_exact(p1, [None], array="A")
        before = exact_cache_size()
        # Same content, different object and name: pure cache hit.
        evaluate_exact(p2, [None], array="A")
        assert exact_cache_size() == before

    def test_different_programs_different_keys(self):
        p1 = parse_program("for i = 1 to 8 { A[i] = A[i-1] }")
        p2 = parse_program("for i = 1 to 9 { A[i] = A[i-1] }")
        assert p1.signature() != p2.signature()
        evaluate_exact(p1, [None], array="A")
        evaluate_exact(p2, [None], array="A")
        assert exact_cache_size() == 2

    def test_cached_values_match_fresh(self):
        program = parse_program(
            "for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j-1] } }"
        )
        t = IntMatrix([[0, 1], [1, 0]])
        first = evaluate_exact(program, [None, t], array="A")
        second = evaluate_exact(program, [None, t], array="A")
        assert first == second

    def test_total_and_per_array_keys_disjoint(self):
        program = parse_program(
            "for i = 1 to 6 { for j = 1 to 6 { A[i][j] = B[j][i] } }"
        )
        evaluate_exact(program, [None], array=None)
        evaluate_exact(program, [None], array="A")
        evaluate_exact(program, [None], array="B")
        assert exact_cache_size() == 3


class TestSignature:
    def test_signature_stable_across_rebuilds(self):
        from repro.kernels.suite import sor

        assert sor().signature() == sor().signature()

    def test_signature_ignores_name(self):
        src = "for i = 1 to 4 { A[i] = 1 }"
        assert (
            parse_program(src, name="x").signature()
            == parse_program(src, name="y").signature()
        )

    def test_signature_sees_decls(self):
        from repro.ir import NestBuilder

        plain = NestBuilder().loop("i", 1, 4).use("S1", ("A", [[1]], [0])).build()
        declared = (
            NestBuilder()
            .loop("i", 1, 4)
            .declare("A", 99)
            .use("S1", ("A", [[1]], [0]))
            .build()
        )
        assert plain.signature() != declared.signature()
