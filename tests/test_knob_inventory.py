"""Settable-option inventory of the window layer.

Every exact window engine gives the same answer, so the engine is picked
from the input inside :mod:`repro.window` (dense while the nest fits
``REPRO_DENSE_BUDGET``, streaming beyond it).  Only the window entry
points keep ``engine=``, for the oracles and tests that select the
reference implementations; nothing above them, and no CLI flag, request
field or environment variable, re-exposes the choice.  The streaming
engine's block size is a constant too: no ``chunk`` parameter, no
``REPRO_STREAM_CHUNK`` and no ``repro bench`` command to sweep it.  The
modulo allocation scans to a valid modulus with no ``search_limit``.
The evaluation cascade has one pruning tier, certified reuse facts, so
no clipping budget, lower-bound stage or branch-and-bound incumbent
seed is settable.  The store keeps whole api answers, so no search,
cascade or window scorer below the api takes ``store``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.cli import build_parser

#: The only callables allowed an ``engine`` parameter.
ENGINE_ENTRY_POINTS = {
    "repro.window.simulator.max_window_size",
    "repro.window.simulator.max_total_window",
    "repro.window.simulator.resolve_engine",
    "repro.window.batched.batched_mws",
}


def _parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def _callables():
    """``(qualified name, callable)`` for every function, class and
    method defined in a ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


@pytest.fixture(scope="module")
def callables() -> dict:
    return dict(_callables())


def test_engine_parameter_only_on_window_entry_points(callables):
    with_engine = {
        name for name, obj in callables.items()
        if "engine" in _parameters(obj)
    }
    assert with_engine == ENGINE_ENTRY_POINTS


def test_no_window_entry_point_takes_profile(callables):
    window_fns = {
        name: obj for name, obj in callables.items()
        if name.rsplit(".", 1)[-1].startswith("max_")
        and "window" in name.rsplit(".", 1)[-1]
    }
    assert "repro.window.simulator.max_window_size" in window_fns
    assert not {
        name for name, obj in window_fns.items()
        if "profile" in _parameters(obj)
    }


def test_batch_size_is_a_constant():
    from repro.window import batched

    assert batched.BATCH_SIZE == 16
    assert not hasattr(batched, "batch_size")
    assert not hasattr(batched, "BATCH_SIZE_ENV")


def test_transfer_bound_builds_its_own_trace():
    """The bound reads the one production trace; callers pass no trace
    of their own."""
    from repro.estimation.bounds import transfer_lower_bound

    assert list(inspect.signature(transfer_lower_bound).parameters) == [
        "program", "capacity", "array", "transformation",
    ]


def test_cli_rejects_engine_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--engine", "fast", "analyze", "f.loop"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith("usage: repro")


def test_streaming_entry_points_take_no_chunk():
    """The streaming block size is the constant ``streaming.CHUNK``."""
    from repro.window import streaming

    for fn in (
        streaming.max_window_size_streaming,
        streaming.max_total_window_streaming,
    ):
        assert "chunk" not in _parameters(fn)


def test_cli_rejects_bench_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["bench", "--chunk-sweep"])
    assert excinfo.value.code == 2
    assert "'bench'" in capsys.readouterr().err


def _modules_naming(text: str) -> list[str]:
    from pathlib import Path

    src = Path(repro.__file__).parent
    return [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if text in path.read_text(encoding="utf-8")
    ]


def test_no_module_reads_the_stream_chunk_variable():
    assert _modules_naming("REPRO_STREAM_CHUNK") == []


def test_no_module_reads_the_clip_budget_variable():
    assert _modules_naming("REPRO_CLIP_BUDGET") == []


@pytest.mark.parametrize("parameter", ["clip_budget", "incumbent"])
def test_no_callable_takes_a_removed_pruning_knob(callables, parameter):
    """The cascade's clipped sub-box bound (413 clipped simulations for
    10 prunes on the Figure-2 table) and the branch-and-bound incumbent
    seed (no caller passed one) are gone."""
    assert {
        name for name, obj in callables.items()
        if parameter in _parameters(obj)
    } == set()


def test_evaluate_exact_takes_no_stage():
    from repro.transform.search import evaluate_exact

    assert list(inspect.signature(evaluate_exact).parameters) == [
        "program", "candidates", "array",
    ]


#: Callables below the api that once took ``store=``: each persisted a
#: part of an answer (a candidate's window, one array's search, the
#: program's optimization) that the api's ``answer`` record now holds.
STORELESS = (
    "repro.transform.search.evaluate_exact",
    "repro.transform.search.evaluate_cascade",
    "repro.transform.search.cascade_winner",
    "repro.transform.search.search_mws_2d",
    "repro.transform.search.search_mws_3d",
    "repro.transform.search.search_general",
    "repro.transform.search.search_best_transformation",
    "repro.transform.search.exhaustive_search",
    "repro.core.optimizer.candidate_transformations",
    "repro.core.optimizer.optimize_program",
    "repro.core.pipeline.analyze_program",
)


def test_no_callable_below_the_api_takes_store(callables):
    assert {
        name for name in STORELESS if "store" in _parameters(callables[name])
    } == set()


def test_allocate_window_takes_no_search_limit():
    """Regression: ``search_limit`` below the true modulus returned an
    unchecked one (Example 8 at 10: modulus 10 for an MWS of 44).  The
    scan now always ends at a valid modulus, the declared size at the
    latest."""
    from repro.transform.window_allocation import allocate_window

    assert list(inspect.signature(allocate_window).parameters) == [
        "program", "array", "transformation", "layout",
    ]


def test_no_search_callable_takes_parametric(callables):
    """Closed-form candidate scoring is gone from the searches: it gave
    the same answers as simulation at many times the cold cost.  The
    parametric engine itself (``repro param``) stays."""
    with_parametric = {
        name for name, obj in callables.items()
        if name.startswith(("repro.transform.search.", "repro.core.optimizer."))
        and "parametric" in _parameters(obj)
    }
    assert with_parametric == set()


def test_cli_rejects_parametric_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["optimize", "f.loop", "--parametric"])
    assert excinfo.value.code == 2
    assert "--parametric" in capsys.readouterr().err
