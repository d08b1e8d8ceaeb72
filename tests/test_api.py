"""The :mod:`repro.api` facade (ISSUE 10 tentpole, layer 1).

One entry path for the CLI, the batch runner, and the HTTP service:
request validation, the six-kind dispatch, inline and pooled
evaluation, the shared timeout path (worker reclaimed, slot stays
usable), and warm-request detection against the persistent store.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.api import (
    AnalysisRequest,
    AnalysisService,
    KINDS,
    build_request,
    evaluate_kind,
)
from repro.estimation.parametric import clear_param_cache
from repro.kernels import kernel_by_name
from repro.store import ResultStore
from repro.transform.search import clear_exact_cache


@pytest.fixture
def observer():
    observer = obs.enable()
    try:
        yield observer
    finally:
        obs.disable()


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exact_cache()
    clear_param_cache()
    yield
    clear_exact_cache()
    clear_param_cache()


LOOP = (
    "for i = 1 to 8 { for j = 1 to 8 { "
    "A[i + j] = A[i + j - 1] + 1 } }"
)


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------

class TestBuildRequest:
    def test_minimal_kernel_request(self):
        request = build_request({"kind": "mws", "kernel": "sor"})
        assert request.kind == "mws"
        assert request.kernel == "sor"
        assert request.target == "sor"
        assert request.timeout is None

    def test_kind_defaults_to_analyze(self):
        assert build_request({"kernel": "sor"}).kind == "analyze"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind 'frobnicate'"):
            build_request({"kind": "frobnicate", "kernel": "sor"})

    def test_exactly_one_target_required(self):
        with pytest.raises(ValueError, match="exactly one of"):
            build_request({"kind": "mws"})
        with pytest.raises(ValueError, match="exactly one of"):
            build_request({"kind": "mws", "kernel": "sor", "source": LOOP})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            build_request("sor")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            build_request({"kernel": "sor", "timeout": 0})
        with pytest.raises(ValueError):
            build_request({"kernel": "sor", "timeout": "soon"})

    @pytest.mark.parametrize("value", [[1], {}, True, False])
    def test_non_numeric_timeout_rejected(self, value):
        # A list or object raised TypeError (an HTTP 500); true was 1 s.
        with pytest.raises(ValueError, match="number of seconds"):
            build_request({"kernel": "sor", "timeout": value})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_non_finite_timeout_rejected(self, token):
        # Python's json parses all three (1e999 overflows to inf).
        payload = json.loads(f'{{"kernel": "sor", "timeout": {token}}}')
        with pytest.raises(ValueError, match="finite"):
            build_request(payload)

    def test_engine_key_ignored_like_any_unknown_key(self):
        request = build_request({"kernel": "sor", "engine": "warp"})
        assert request == build_request({"kernel": "sor"})

    def test_knobs_pass_through(self):
        request = build_request({
            "kind": "hierarchy", "source": LOOP, "name": "nest",
            "array": "A", "preset": "cache", "timeout": 2.5,
        })
        assert request.preset == "cache"
        assert request.array == "A"
        assert request.timeout == 2.5
        assert request.target == "nest"


# ----------------------------------------------------------------------
# the six-kind dispatch
# ----------------------------------------------------------------------

class TestEvaluateKind:
    @pytest.fixture(scope="class")
    def program(self):
        return kernel_by_name("2point").build()

    def test_optimize(self, program):
        result = evaluate_kind("optimize", program)
        assert result["mws_after"] <= result["mws_before"]
        assert result["t"]

    def test_search(self, program):
        result = evaluate_kind("search", program)
        assert result["array"] == program.arrays[0]
        assert result["exact"] is not None

    def test_mws(self, program):
        result = evaluate_kind("mws", program, array=program.arrays[0])
        assert result["mws"] is not None

    def test_analyze_covers_every_array(self, program):
        result = evaluate_kind("analyze", program)
        assert set(result["mws"]) == set(program.arrays)
        assert result["mws_total"] is not None
        assert result["footprint"] > 0

    def test_hierarchy_roundtrips_store(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        program = kernel_by_name("2point").build()
        cold = evaluate_kind("hierarchy", program, store=store)
        assert cold["preset"] == "tcm"
        assert cold["tiers_needed"] >= 1
        clear_exact_cache()  # only the store can answer now
        warm = evaluate_kind("hierarchy", program, store=store)
        assert list(warm.items()) == list(cold.items())
        assert observer.counters["store.mem.hits"] >= 1

    def test_param(self, program):
        result = evaluate_kind("param", program)
        assert result["array"] == program.arrays[0]
        assert "mws_expr" in result and "distinct_expr" in result

    def test_unknown_kind_raises(self, program):
        with pytest.raises(ValueError, match="unknown kind"):
            evaluate_kind("nope", program)

    def test_kinds_tuple_matches_dispatch(self):
        assert KINDS == (
            "optimize", "search", "mws", "analyze", "hierarchy", "param"
        )


# ----------------------------------------------------------------------
# the service: inline evaluation + warm detection
# ----------------------------------------------------------------------

class TestServiceInline:
    def test_evaluate_kernel_request(self, observer):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok
        assert response.status == "ok"
        assert response.result["mws"] is not None
        assert response.wall_s > 0
        assert observer.counters["batch.items.ok"] == 1

    def test_evaluate_source_request(self):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "analyze", "source": LOOP, "name": "nest"}
            ))
        assert response.ok
        assert response.target == "nest"
        assert response.result["mws"]["A"] is not None

    def test_evaluate_file_request(self, tmp_path):
        path = tmp_path / "nest.loop"
        path.write_text(LOOP, encoding="utf-8")
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "file": str(path), "array": "A"}
            ))
        assert response.ok

    def test_evaluate_error_is_a_response_not_a_raise(self, observer):
        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "no_such_kernel"}
            ))
        assert response.status == "error"
        assert "KeyError" in response.error
        assert observer.counters["batch.items.error"] == 1

    def test_evaluate_runs_an_injected_evaluator(self, observer):
        with AnalysisService() as svc:
            response = svc.evaluate(
                build_request({"kind": "mws", "kernel": "2point"}),
                evaluator=_explode_evaluator,
            )
        assert response.status == "error"
        assert "RuntimeError: kaboom" in response.error
        assert observer.counters["batch.items.error"] == 1

    def test_inline_and_pooled_heartbeat_lifecycles_match(self, tmp_path):
        from repro.obs import flight, runctx

        def lifecycle(workers, evaluator=None):
            ctx = runctx.begin_run("serve", live_dir=tmp_path / str(workers))
            try:
                with AnalysisService(workers=workers) as svc:
                    svc.submit(
                        build_request({"kind": "mws", "kernel": "2point"}),
                        evaluator=evaluator,
                    )
            finally:
                runctx.end_run()
            return [
                (e["ev"], e["item"])
                for e in flight.read_heartbeats(ctx.live_path)
                if e["ev"].startswith("item_")
            ]

        assert lifecycle(0) == lifecycle(1) == [
            ("item_start", "mws 2point"), ("item_done", "mws 2point"),
        ]
        assert lifecycle(0, _explode_evaluator)[-1] == \
            lifecycle(1, _explode_evaluator)[-1] == ("item_error", "mws 2point")

    def test_response_is_json_ready(self):
        import json

        with AnalysisService() as svc:
            response = svc.evaluate(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        json.dumps(response.as_dict())

    def test_warm_request_does_zero_engine_work(self, tmp_path, observer):
        # The acceptance property behind the whole service: compute
        # once, then serve every identical request from the store.
        with AnalysisService(store=tmp_path) as svc:
            request = build_request({"kind": "optimize", "kernel": "2point"})
            cold = svc.evaluate(request)
            assert cold.ok and not cold.warm
            clear_exact_cache()
            engine_calls_after_cold = sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            )
            warm = svc.evaluate(request)
            assert warm.ok and warm.warm
            assert warm.result == cold.result
            engine_calls_after_warm = sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            )
            assert engine_calls_after_warm == engine_calls_after_cold

    def test_store_accepts_path_or_instance(self, tmp_path):
        svc = AnalysisService(store=str(tmp_path))
        assert isinstance(svc.store, ResultStore)
        svc.close()
        store = ResultStore(tmp_path)
        svc = AnalysisService(store=store)
        assert svc.store is store
        svc.close()


class TestWarmFlag:
    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pooled"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_second_request_is_warm(self, kind, workers, tmp_path, observer):
        # A repeat is answered by the store or by the in-process memos
        # (exact values, whole searches, parametric forms) without any
        # window-engine work, whichever of them serves it.
        request = build_request({"kind": kind, "source": LOOP})
        with AnalysisService(store=tmp_path, workers=workers) as svc:
            cold = svc.submit(request)
            warm = svc.submit(request)
        assert cold.ok and not cold.warm
        assert warm.ok and warm.warm
        assert warm.result == cold.result

    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pooled"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_repeat_is_warm_without_an_observer(self, kind, workers, tmp_path):
        """Regression: ``warm`` was inferred from counter deltas, which
        are empty with no observer installed, so a repeat read False.
        It now means the answer record was read.  Every answer, from a
        cold store, a warm one or none, is the same text, field order
        included."""
        assert obs.get_observer() is None
        request = build_request({"kind": kind, "source": LOOP})
        with AnalysisService(store=tmp_path, workers=workers) as svc:
            cold = svc.submit(request)
            warm = svc.submit(request)
        clear_exact_cache()
        clear_param_cache()
        with AnalysisService(workers=workers) as svc:
            storeless = svc.submit(request)
        assert (cold.warm, warm.warm, storeless.warm) == (False, True, False)
        assert json.dumps(cold.result) == json.dumps(warm.result) \
            == json.dumps(storeless.result)


    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pooled"])
    def test_cold_item_reads_its_record_once(self, workers, tmp_path, observer):
        """The service's read before the item is the only read of a cold
        request's answer record: the item computes and writes it."""
        sources = (LOOP, LOOP.replace("A[i + j - 1]", "A[i + j - 2]"))
        with AnalysisService(store=tmp_path, workers=workers) as svc:
            for count, source in enumerate(sources, start=1):
                request = build_request({"kind": "optimize", "source": source})
                response = svc.submit(request)
                assert response.ok and not response.warm
                assert observer.counters["store.misses"] == count
                assert observer.counters["store.writes"] == count


# ----------------------------------------------------------------------
# the service: pooled evaluation + the shared timeout path
# ----------------------------------------------------------------------

class TestServicePooled:
    def test_submit_runs_on_pool(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok
        assert response.result["mws"] is not None
        assert observer.counters["batch.items.ok"] == 1

    def test_submit_timeout_reclaims_worker_and_slot_survives(
        self, observer
    ):
        # The ISSUE 10 acceptance bullet: a hanging request times out
        # without consuming a pool slot for subsequent requests.
        with AnalysisService(workers=1) as svc:
            hung = svc.submit(
                build_request({"kind": "mws", "kernel": "2point"}),
                timeout=0.5,
                evaluator=_hang_evaluator,
            )
            assert hung.status == "timeout"
            assert "timed out after 0.5s" in hung.error
            assert observer.counters["batch.worker.reclaimed"] == 1
            assert observer.counters["batch.item.timeout"] == 1
            # The single slot was killed and respawned: the next
            # request on the same one-worker pool must succeed.
            after = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
            assert after.ok

    def test_submit_error_degrades(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(
                build_request({"kind": "mws", "kernel": "2point"}),
                evaluator=_explode_evaluator,
            )
        assert response.status == "error"
        assert "RuntimeError: kaboom" in response.error
        assert observer.counters["batch.items.error"] == 1

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0])
    def test_bad_service_timeout_rejected(self, timeout):
        # `repro serve --timeout` and `repro batch --timeout` land here.
        with pytest.raises(ValueError, match="timeout must be > 0"):
            AnalysisService(workers=1, timeout=timeout)

    def test_inline_timeout_rejected(self):
        # An inline evaluation cannot be preempted, so a deadline on a
        # workerless service would silently never fire.
        with pytest.raises(ValueError, match="needs workers >= 1"):
            AnalysisService(workers=0, timeout=1.0)
        AnalysisService(workers=None, timeout=1.0).close()

    def test_workers_zero_degrades_to_inline(self):
        with AnalysisService(workers=0) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "2point"}
            ))
        assert response.ok

    def test_bad_request_fails_before_pool_spawn(self, observer):
        with AnalysisService(workers=1) as svc:
            response = svc.submit(build_request(
                {"kind": "mws", "kernel": "no_such_kernel"}
            ))
            assert response.status == "error"
            assert svc._pool is None  # nothing hit the pool

    def test_closed_service_rejects_pooled_work(self):
        svc = AnalysisService(workers=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(build_request({"kind": "mws", "kernel": "2point"}))


# ----------------------------------------------------------------------
# observability read side
# ----------------------------------------------------------------------

class TestServiceReadSide:
    def test_metrics_text(self, observer):
        with AnalysisService() as svc:
            svc.evaluate(build_request({"kind": "mws", "kernel": "2point"}))
            text = svc.metrics_text()
        assert "repro_batch_items_ok_total 1" in text

    def test_metrics_text_empty_without_observer(self):
        with AnalysisService() as svc:
            assert svc.metrics_text() == ""

    def test_compact_and_runs_storeless_are_inert(self):
        with AnalysisService() as svc:
            assert svc.compact() is None
            assert svc.run_record("last") is None
            assert svc.run_ids() == []

    def test_compact_sweeps_the_service_store(self, tmp_path):
        with AnalysisService(store=tmp_path) as svc:
            svc.evaluate(build_request({"kind": "mws", "kernel": "2point"}))
            report = svc.compact()
        assert report.scanned >= 1
        assert report.corrupt_deleted == 0


# Module-level so the service can pickle them to pool workers.
def _hang_evaluator(kind, program, array, store):
    time.sleep(30)


def _explode_evaluator(kind, program, array, store):
    raise RuntimeError("kaboom")
