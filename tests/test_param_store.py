"""Persistence of the parametric record kind.

The guarantees under test: a derived expression round-trips through the
store's JSON layer bit-for-bit (``srepr`` in, ``sympify`` out), corrupt
or alien payloads decode as misses (counted, never a crash), failed
derivations are persisted so warm runs skip re-deriving them, and — the
headline — a warm process answers *N* different problem sizes from one
stored record without a single simulator call.
"""

from __future__ import annotations

import json

import pytest
import sympy

from repro import obs
from repro.estimation.parametric import (
    ParametricExpr,
    clear_param_cache,
    decode_parametric,
    encode_parametric,
    parametric_signature,
    parametric_value,
    resolve_parametric,
    with_trip_counts,
)
from repro.estimation.symbolic import trip_symbols
from repro.ir import parse_program
from repro.kernels.suite import threestep_log
from repro.store import ResultStore
from repro.transform.search import clear_exact_cache
from repro.window import max_window_size

EXAMPLE8 = parse_program(
    """
for i = 1 to 25 {
  for j = 1 to 10 {
    X[2*i + 5*j] = X[2*i + 5*j]
  }
}
""",
    name="example8",
)

#: Engine counters that must stay silent on the warm path.
SIMULATOR_COUNTERS = (
    "fast.simulate.calls",
    "simulator.reference.calls",
    "streaming.simulate.calls",
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_param_cache()
    clear_exact_cache()
    yield
    clear_param_cache()
    clear_exact_cache()


@pytest.fixture
def observer():
    observer = obs.enable()
    try:
        yield observer
    finally:
        obs.disable()


def _example8_expr() -> ParametricExpr:
    n1, n2 = trip_symbols(2)
    return ParametricExpr(
        "mws", "X", 5 * n2 - 10, (n1, n2), (12, 6), "interpolated-deg1", 8
    )


class TestCodec:
    def test_roundtrip_preserves_everything(self):
        pe = _example8_expr()
        decoded = decode_parametric(encode_parametric(pe))
        assert decoded == pe
        assert decoded.substitute((25, 10)) == 40

    def test_payload_is_json_safe_and_schema_stamped(self):
        payload = encode_parametric(_example8_expr())
        assert payload["schema"] == 1
        assert json.loads(json.dumps(payload)) == payload
        assert payload["expr"] == sympy.srepr(5 * trip_symbols(2)[1] - 10)

    def test_rational_interpolant_roundtrips_exactly(self):
        n1, n2 = trip_symbols(2)
        expr = (n1 * n2 - n1) / sympy.Integer(2) + sympy.Rational(3, 2)
        pe = ParametricExpr(
            "distinct", "A", expr, (n1, n2), (3, 3), "interpolated-deg2", 7
        )
        decoded = decode_parametric(encode_parametric(pe))
        assert sympy.expand(decoded.expr - expr) == 0

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: None,
            lambda p: "garbage",
            lambda p: {**p, "schema": 2},
            lambda p: {**p, "expr": "not sympy ]]]"},
            lambda p: {**p, "expr": "Symbol('rogue')"},
            lambda p: {**p, "domain": [3]},
            lambda p: {**p, "symbols": ["N1", "bogus"]},
            lambda p: {k: v for k, v in p.items() if k != "expr"},
        ],
        ids=[
            "none", "string", "wrong-schema", "unparsable-expr",
            "stray-symbol", "domain-arity", "alien-symbol-names",
            "missing-expr",
        ],
    )
    def test_corrupt_payloads_decode_as_counted_miss(self, mangle, observer):
        payload = mangle(encode_parametric(_example8_expr()))
        assert decode_parametric(payload) is None
        assert observer.counters["store.corrupt"] == 1

    def test_decode_never_executes_expression_payloads(self):
        """sympify of a hostile-looking srepr must fail closed (the
        validation rejects anything with symbols outside N1..Nn)."""
        payload = encode_parametric(_example8_expr())
        payload["expr"] = "Symbol('N1') + Symbol('__import__')"
        assert decode_parametric(payload) is None


class TestResolutionThroughStore:
    def test_record_keyed_by_family_not_bounds(self, tmp_path):
        store = ResultStore(tmp_path)
        pe = resolve_parametric(EXAMPLE8, "mws", array="X", store=store)
        assert pe is not None
        psig = parametric_signature(EXAMPLE8)
        key = {"psig": psig, "kind": "mws", "array": "X", "t": None}
        assert store.get("parametric", key) == encode_parametric(pe)
        # A resized family member hits the same record.
        resized = with_trip_counts(EXAMPLE8, (60, 31))
        assert parametric_signature(resized) == psig

    def test_failed_derivation_marker_persists(self, tmp_path, observer):
        program = threestep_log(16, 4, 4)
        store = ResultStore(tmp_path)
        assert resolve_parametric(program, "mws", array="R", store=store) is None
        assert observer.counters["param.derive_failed"] == 1
        key = {
            "psig": parametric_signature(program),
            "kind": "mws",
            "array": "R",
            "t": None,
        }
        assert store.get("parametric", key) == {"schema": 1, "failed": True}
        # Warm process: the marker answers without re-deriving.
        clear_param_cache()
        warm = ResultStore(tmp_path)
        before = observer.counters["param.derive_failed"]
        assert resolve_parametric(program, "mws", array="R", store=warm) is None
        assert observer.counters["param.derive_failed"] == before

    def test_corrupt_record_heals_by_rederivation(self, tmp_path):
        store = ResultStore(tmp_path)
        pe = resolve_parametric(EXAMPLE8, "mws", array="X", store=store)
        key = {
            "psig": parametric_signature(EXAMPLE8),
            "kind": "mws",
            "array": "X",
            "t": None,
        }
        path = store.record_path("parametric", key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        clear_param_cache()
        warm = ResultStore(tmp_path)
        again = resolve_parametric(EXAMPLE8, "mws", array="X", store=warm)
        assert again == pe
        assert warm.get("parametric", key) == encode_parametric(pe)

    def test_garbled_payload_inside_valid_record_is_a_miss(self, tmp_path):
        """Outer store record intact, inner parametric payload corrupt:
        decode_parametric turns it into a recompute, not a crash."""
        store = ResultStore(tmp_path)
        resolve_parametric(EXAMPLE8, "mws", array="X", store=store)
        key = {
            "psig": parametric_signature(EXAMPLE8),
            "kind": "mws",
            "array": "X",
            "t": None,
        }
        store.put("parametric", key, {"schema": 1, "expr": "]]]"})
        clear_param_cache()
        store.drop_memory()
        pe = resolve_parametric(EXAMPLE8, "mws", array="X", store=store)
        assert pe is not None and pe.substitute((25, 10)) == 40


class TestWarmPath:
    def test_many_sizes_from_one_record_without_simulation(self, tmp_path):
        sizes = [(25, 10), (40, 20), (64, 32), (100, 7), (31, 57)]
        expected = {
            trips: max_window_size(with_trip_counts(EXAMPLE8, trips), "X")
            for trips in sizes
        }
        cold = ResultStore(tmp_path)
        assert (
            parametric_value(EXAMPLE8, "mws", array="X", store=cold)
            == expected[(25, 10)]
        )
        # Warm process: fresh in-memory state, same directory.
        clear_param_cache()
        warm = ResultStore(tmp_path)
        observer = obs.enable()
        try:
            for trips in sizes:
                member = with_trip_counts(EXAMPLE8, trips)
                assert (
                    parametric_value(member, "mws", array="X", store=warm)
                    == expected[trips]
                )
            assert observer.counters["param.subs_hits"] == len(sizes)
            assert "param.derived" not in observer.counters
            for name in SIMULATOR_COUNTERS:
                assert name not in observer.counters, name
        finally:
            obs.disable()
