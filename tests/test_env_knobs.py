"""Validation of the numeric environment knobs and the workers count.

``dense_budget()`` reads its env var through the shared
:func:`repro.envutil.env_int` helper, so a typo'd value fails fast with
the variable's name in the message, and zero/negative budgets — which
used to silently disable dense mode — are rejected.
Negative ``workers`` counts are rejected when an
:class:`repro.api.AnalysisService` is built, instead of surfacing as an
opaque pool error on the first request.
"""

from __future__ import annotations

import pytest

from repro.envutil import env_int
from repro.window.fast import DEFAULT_DENSE_BUDGET, DENSE_BUDGET_ENV, dense_budget

KNOBS = [
    (DENSE_BUDGET_ENV, dense_budget, DEFAULT_DENSE_BUDGET),
]


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 42) == 42

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "17")
        assert env_int("REPRO_TEST_KNOB", 42) == 17

    def test_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "lots")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB.*'lots'"):
            env_int("REPRO_TEST_KNOB", 42)

    def test_below_minimum_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "3")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB must be >= 8"):
            env_int("REPRO_TEST_KNOB", 42, minimum=8)

    def test_minimum_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "8")
        assert env_int("REPRO_TEST_KNOB", 42, minimum=8) == 8


@pytest.mark.parametrize(
    "env_name,knob,default", KNOBS, ids=[k[0] for k in KNOBS]
)
class TestBudgetKnobs:
    def test_default_when_unset(self, monkeypatch, env_name, knob, default):
        monkeypatch.delenv(env_name, raising=False)
        assert knob() == default

    def test_override(self, monkeypatch, env_name, knob, default):
        monkeypatch.setenv(env_name, "1234")
        assert knob() == 1234

    def test_garbage_raises_with_name(self, monkeypatch, env_name, knob, default):
        monkeypatch.setenv(env_name, "not-a-number")
        with pytest.raises(ValueError, match=env_name):
            knob()

    @pytest.mark.parametrize("bad", ["0", "-1", "-4096"])
    def test_zero_and_negative_rejected(
        self, monkeypatch, env_name, knob, default, bad
    ):
        monkeypatch.setenv(env_name, bad)
        with pytest.raises(ValueError, match=f"{env_name} must be >= 1"):
            knob()


class TestNegativeWorkers:
    def test_resolve_workers_rejects_negative(self):
        from repro.api import _resolve_workers

        with pytest.raises(ValueError, match="workers must be >= 0.*-2"):
            _resolve_workers(-2)

    def test_resolve_workers_accepts_zero_and_none(self):
        from repro.api import _resolve_workers

        assert _resolve_workers(0) == 0
        assert _resolve_workers(3) == 3
        assert _resolve_workers(None) >= 1

    def test_service_rejects_negative_workers(self):
        from repro.api import AnalysisService

        with pytest.raises(ValueError, match="workers must be >= 0"):
            AnalysisService(workers=-1)

    def test_batch_rejects_negative_workers(self):
        from repro.store import run_batch

        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_batch([{"kind": "mws", "kernel": "2point"}], workers=-4)
