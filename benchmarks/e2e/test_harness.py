"""Self-tests of the benchmark harness (none of them time anything).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import compare
import inputs
import oracle
import stats
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule ------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(1000)), 99) == 989
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile([], 50) is None


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0)


# -- self time ----------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["evaluate", "api", 0.0, 10.0, -1],
        ["get", "store", 1.0, 3.0, 0],
        ["estimate", "estimation", 4.0, 8.0, 0],
        ["get", "store", 5.0, 6.0, 2],
        ["signature", "ir", 11.0, 11.5, -1],
    ]
    assert self_times(spans) == {
        "api": 4.0, "store": 3.0, "estimation": 3.0, "ir": 0.5,
    }
    assert sum(self_times(spans).values()) == 10.5


def test_same_layer_nesting_is_not_counted_twice():
    spans = [["outer", "window", 0.0, 4.0, -1],
             ["inner", "window", 1.0, 3.0, 0]]
    assert self_times(spans) == {"window": 4.0}


def test_tracer_rebinds_every_import_and_restores_them():
    import repro.core.optimizer as optimizer
    import repro.transform.legality as legality
    from repro.kernels import kernel_by_name

    original = legality.ordering_distances
    assert optimizer.ordering_distances is original
    tracer = Tracer()
    tracer.install()
    try:
        assert optimizer.ordering_distances is not original
        assert legality.ordering_distances is optimizer.ordering_distances
        optimizer.optimize_program(kernel_by_name("2point").build())
    finally:
        tracer.uninstall()
    assert optimizer.ordering_distances is original
    assert legality.ordering_distances is original
    assert tracer.missing == []
    layers = {span[1] for span in tracer.spans}
    assert {"dependence", "search", "cascade"} <= layers
    metrics = tracer.layer_metrics(wall_s=1.0, ops=1)
    assert metrics["search.calls"] >= 1
    assert metrics["cascade.candidates"] >= 1


# -- oracles ------------------------------------------------------------

def test_oracle_catches_an_injected_wrong_answer():
    expected = oracle.load_expected()["figure2"]["sor"]
    check = oracle.Oracle()
    assert check.check("sor", dict(expected), expected)
    tampered = dict(expected, mws_opt=expected["mws_opt"] + 1)
    assert not check.check("sor", tampered, expected)
    assert check.wrong == 1
    assert "sor" in check.messages[0]


def test_repeat_oracle_pins_the_first_answer():
    check = oracle.Oracle()
    assert check.check_repeat(7, "first", {"t": ((1, 0), (0, 1))})
    assert check.check_repeat(7, "again", {"t": [[1, 0], [0, 1]]})
    assert not check.check_repeat(7, "changed", {"t": [[0, 1], [1, 0]]})
    assert check.wrong == 1


def test_serve_oracle_ignores_tie_breaks_and_method_names():
    want = oracle.load_expected()["serve_warm"]["search:2point"]
    got = dict(want, t=[[0, 1], [1, 0]], method="another-search")
    assert oracle.checked_fields(got) == want
    assert oracle.checked_fields(dict(got, exact=want["exact"] + 1)) != want


def test_reference_engine_checks_the_returned_transformation():
    expected = oracle.load_expected()
    want = expected["serve_warm"]["search:2point"]
    listed = [[0, 1], [1, 0]]
    assert expected["serve_warm_t"]["search:2point"] == [listed]
    assert oracle.transform_window("search:2point", listed, want) == (
        "exact", want["exact"])
    identity = [[1, 0], [0, 1]]
    assert oracle.transform_window("search:2point", identity, want)[1] != (
        want["exact"])


def test_expected_figure2_is_the_golden_fixture():
    golden = json.loads(
        (ROOT / "tests" / "fixtures" / "figure2_golden.json").read_text()
    )
    assert oracle.load_expected()["figure2"] == golden


def test_expected_answers_match_the_exhaustive_search():
    # compute_expected runs search_hierarchy(..., prune=False) and every
    # serve-warm request without a store.
    assert oracle.compute_expected() == oracle.load_expected()


# -- inputs -------------------------------------------------------------

def test_primitive_screen():
    assert inputs.is_primitive([[2, -3]])
    assert inputs.is_primitive([[1, 0, 0], [0, 1, 1]])
    assert not inputs.is_primitive([[2, 0, 4]])
    assert not inputs.is_primitive([[1, 0, 0], [0, 2, 0]])
    assert not inputs.is_primitive([[1, 1, 0], [2, 2, 0]])


def test_mixed_inputs_follow_the_seed():
    assert inputs.mixed_programs(3, 4) == inputs.mixed_programs(3, 4)
    assert inputs.mixed_programs(3, 4) != inputs.mixed_programs(4, 4)
    order = inputs.mixed_order(3, 50)
    assert [novel for _, novel in order] == [True, True, False] * 25
    sent = 0
    for index, novel in order:
        assert index == sent if novel else index < sent
        sent += novel


# -- compare.py ---------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change, better, bound, want", [
    ([v + 0.2 for v in BASE], "lower", 0.1, "no-worse"),
    ([v * 0.8 for v in BASE], "lower", 0.1, "better"),
    ([v * 1.3 for v in BASE], "lower", 0.1, "worse"),
    ([v * 1.3 for v in BASE], "higher", 0.1, "better"),
    ([v * (0.6 if i % 2 else 1.4) for i, v in enumerate(BASE)],
     "lower", 0.1, "unresolved"),
])
def test_verdicts(change, better, bound, want):
    assert stats.verdict(BASE, change, better, bound)["verdict"] == want


def test_median_only_verdict_ignores_the_spread():
    wide = [v * (0.6 if i % 2 else 1.4) for i, v in enumerate(BASE)]
    assert stats.verdict(BASE, wide, "lower", 0.1,
                         judge_spread=False)["verdict"] == "no-worse"
    slower = [v * 1.5 for v in wide]
    assert stats.verdict(BASE, slower, "lower", 0.1,
                         judge_spread=False)["verdict"] == "worse"


def test_better_needs_nine_wins_in_ten():
    change = [v * 0.8 for v in BASE]
    change[0] = change[1] = 200.0
    assert stats.verdict(BASE, change, "lower", 0.1)["verdict"] != "better"


def _record(tmp_path, name, cpu, latency, seconds=15, trace=False):
    record = {
        "stamp": {"nproc": 2, "cpu": cpu, "python": "3", "numpy": "2",
                  "cffi": True, "git_sha": name, "seed": 0},
        "seconds": seconds, "trace": trace,
        "workloads": {"serve-warm": {
            "attempted": 10, "failed": 0, "wrong_answers": 0,
            "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"}},
        }},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_refuses_different_hosts(tmp_path, capsys):
    a = _record(tmp_path, "a", "cpu-1", 3.0)
    b = _record(tmp_path, "b", "cpu-2", 3.0)
    assert compare.main([a, "--", b]) == 2
    assert "host stamps differ" in capsys.readouterr().err


@pytest.mark.parametrize("knobs", [{"seconds": 30}, {"trace": True}])
def test_compare_refuses_different_run_kinds(tmp_path, capsys, knobs):
    a = _record(tmp_path, "a", "cpu", 3.0)
    b = _record(tmp_path, "b", "cpu", 3.0, **knobs)
    assert compare.main([a, "--", b]) == 2
    assert "run length or tracing" in capsys.readouterr().err


def test_compare_reports_each_metric_and_workload(tmp_path, capsys):
    a = [_record(tmp_path, f"a{i}", "cpu", v) for i, v in enumerate(BASE[:5])]
    b = [_record(tmp_path, f"b{i}", "cpu", v) for i, v in enumerate(BASE[5:])]
    assert compare.main(a + ["--"] + b) == 0
    out = capsys.readouterr().out
    assert "latency_p50_ms" in out and "no-worse" in out
    assert "failed_share" in out and "wrong_answers" in out
