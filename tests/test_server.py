"""The asyncio HTTP front end (ISSUE 10 tentpole, layer 2).

Wire-format units (:mod:`repro.server.http`), token buckets
(:mod:`repro.server.quota`), and in-process integration against a real
listening socket: routing, warm store-served answers, per-tenant 429s,
admission 429s, the 504 timeout path that reclaims the worker slot, and
graceful shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.api import AnalysisService, evaluate_kind
from repro.obs import ledger as obs_ledger
from repro.obs import runctx
from repro.server import (
    BadRequest,
    ReproServer,
    TenantQuotas,
    TokenBucket,
    read_request,
    render_response,
)
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
    yield
    clear_exact_cache()


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------

def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHTTPParsing:
    def test_get_roundtrip(self):
        request = _parse(
            b"GET /healthz?probe=1 HTTP/1.1\r\n"
            b"Host: x\r\nX-Repro-Tenant: alice\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/healthz"  # query stripped
        assert request.headers["x-repro-tenant"] == "alice"
        assert request.body == b""

    def test_post_body(self):
        body = json.dumps({"kind": "mws", "kernel": "sor"}).encode()
        request = _parse(
            b"POST /analyze HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.json() == {"kind": "mws", "kernel": "sor"}

    def test_closed_peer_is_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(BadRequest, match="malformed request line"):
            _parse(b"NONSENSE\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(BadRequest, match="bad Content-Length"):
            _parse(b"POST /analyze HTTP/1.1\r\nContent-Length: pi\r\n\r\n")

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header-line", "request-target"],
    )
    def test_overlong_line_rejected(self, head):
        # One line past the stream's 64 KiB buffer limit gets the same
        # 413 as many short header lines of that total size.
        with pytest.raises(BadRequest, match="request head too large") as info:
            _parse(head)
        assert info.value.status == 413

    def test_oversized_body_rejected(self):
        with pytest.raises(BadRequest) as info:
            _parse(
                b"POST /analyze HTTP/1.1\r\n"
                b"Content-Length: 999999999\r\n\r\n"
            )
        assert info.value.status == 413

    def test_body_json_errors(self):
        request = _parse(
            b"POST /analyze HTTP/1.1\r\nContent-Length: 4\r\n\r\n{not"
        )
        with pytest.raises(BadRequest, match="not valid JSON"):
            request.json()

    def test_render_response_shapes(self):
        raw = render_response(200, {"a": 1})
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in raw
        assert b"Connection: close" in raw
        assert raw.endswith(b'{"a": 1}\n')
        text = render_response(429, "slow down")
        assert b"429 Too Many Requests" in text
        assert b"text/plain" in text


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert bucket.try_take(1.5)  # 1.5 tokens refilled
        assert not bucket.try_take(1.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(0, 1)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(1, 0)


class TestTenantQuotas:
    def test_tenants_are_isolated(self):
        clock = [0.0]
        quotas = TenantQuotas(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert quotas.admit("alice")
        assert not quotas.admit("alice")
        assert quotas.admit("bob")  # alice's exhaustion is not bob's
        assert quotas.tenants() == 2

    def test_rate_none_admits_everything(self):
        quotas = TenantQuotas(rate=None)
        assert all(quotas.admit("t") for _ in range(1000))
        assert quotas.tenants() == 0

    def test_default_burst_is_twice_rate(self):
        quotas = TenantQuotas(rate=5.0)
        assert quotas.burst == 10.0


# ----------------------------------------------------------------------
# integration: a real listening server
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _serve(tmp_path=None, **server_kwargs):
    service_kwargs = server_kwargs.pop("service_kwargs", {})
    service_kwargs.setdefault("workers", 1)
    if tmp_path is not None:
        service_kwargs.setdefault("store", tmp_path)
    service = AnalysisService(**service_kwargs)
    server = ReproServer(service, port=0, **server_kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "server did not start"
    try:
        yield f"http://127.0.0.1:{server.bound_port}", server, service
    finally:
        server.stop()
        thread.join(timeout=10.0)
        service.close()
        assert not thread.is_alive()


def _call(url, method="GET", payload=None, tenant=None, timeout=30.0):
    headers = {}
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    if tenant is not None:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            body = reply.read()
            code = reply.status
    except urllib.error.HTTPError as exc:
        body = exc.read()
        code = exc.code
    try:
        return code, json.loads(body)
    except ValueError:
        return code, body.decode("utf-8", "replace")


class TestRouting:
    def test_healthz(self):
        with _serve() as (url, server, _):
            code, body = _call(f"{url}/healthz")
        assert code == 200
        assert body["status"] == "ok"
        assert body["capacity"] == server.max_pending
        assert body["inflight"] == 0

    def test_unknown_route_404(self):
        with _serve() as (url, _, _):
            code, body = _call(f"{url}/nope")
        assert code == 404
        assert "no route" in body["error"]

    def test_wrong_method_405(self):
        with _serve() as (url, _, _):
            code, _ = _call(f"{url}/healthz", method="POST", payload={})
            assert code == 405
            code, _ = _call(f"{url}/analyze")
            assert code == 405

    def test_malformed_body_400(self):
        with _serve() as (url, _, _):
            code, body = _call(f"{url}/analyze", method="POST", payload={})
        assert code == 400
        assert "exactly one of" in body["error"]

    def test_non_finite_timeout_400(self):
        # json.dumps writes float("inf") as the bare token Infinity,
        # which the server's json.loads accepts.
        with _serve() as (url, _, _):
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "2point",
                         "timeout": float("inf")},
            )
        assert code == 400
        assert "finite" in body["error"]

    @pytest.mark.parametrize("timeout", [[1], {}, True])
    def test_non_numeric_timeout_400(self, observer, timeout):
        # A list or object used to escape as TypeError: a 500 that
        # bumped server.errors.
        with _serve() as (url, _, _):
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "sor", "timeout": timeout},
            )
        assert code == 400
        assert "number of seconds" in body["error"]
        assert observer.counters.get("server.errors", 0) == 0

    def test_metrics_exposition(self, observer):
        with _serve() as (url, _, _):
            _call(f"{url}/analyze", method="POST",
                  payload={"kind": "mws", "kernel": "2point"})
            code, text = _call(f"{url}/metrics")
        assert code == 200
        assert isinstance(text, str)
        assert "repro_server_requests_total" in text
        assert "repro_batch_items_ok_total 1" in text

    def test_runs_endpoints(self, tmp_path):
        store = ResultStore(tmp_path)
        ctx = runctx.RunContext(
            run_id="20250101-000000-aaaaaa", command="optimize",
            env={}, git=None,
        )
        obs_ledger.seal_run(ctx, {"counters": {"store.misses": 1}}, store)
        with _serve(tmp_path) as (url, _, _):
            code, body = _call(f"{url}/runs")
            assert code == 200
            assert body["runs"] == ["20250101-000000-aaaaaa"]
            code, record = _call(f"{url}/runs/last")
            assert code == 200
            assert record["run"] == "20250101-000000-aaaaaa"
            code, body = _call(f"{url}/runs/20990101-000000-ffffff")
            assert code == 404

    def test_shutdown_route_stops_server(self):
        service = AnalysisService(workers=1)
        server = ReproServer(service, port=0)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.ready.wait(10.0)
        url = f"http://127.0.0.1:{server.bound_port}"
        code, body = _call(f"{url}/shutdown", method="POST", payload={})
        assert code == 202
        assert body["status"] == "shutting down"
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        service.close()


class TestAnalyze:
    def test_analysis_request_roundtrip(self, observer):
        with _serve() as (url, _, _):
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "2point"},
            )
        assert code == 200
        assert body["status"] == "ok"
        assert body["result"]["mws"] is not None
        assert observer.counters["server.requests"] >= 1

    def test_warm_request_is_store_served(self, tmp_path, observer):
        # The acceptance bullet: warm requests do zero engine
        # simulations — the counters prove it end to end over HTTP.
        payload = {"kind": "optimize", "kernel": "2point"}
        with _serve(tmp_path) as (url, _, _):
            code, cold = _call(f"{url}/analyze", method="POST",
                               payload=payload)
            assert code == 200 and not cold["warm"]
            clear_exact_cache()
            engine_calls = sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            )
            code, warm = _call(f"{url}/analyze", method="POST",
                               payload=payload)
            assert code == 200 and warm["warm"]
            assert warm["result"] == cold["result"]
            assert sum(
                value for name, value in observer.counters.items()
                if name.startswith("engine.") and name.endswith(".calls")
            ) == engine_calls

    def test_evaluation_error_is_422(self, observer):
        with _serve() as (url, _, _):
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "no_such_kernel"},
            )
        assert code == 422
        assert body["status"] == "error"
        assert observer.counters["server.request.error"] == 1


class TestQuota:
    def test_over_quota_tenant_gets_429_others_unaffected(self, observer):
        with _serve(quota_rate=0.001, quota_burst=2.0) as (url, _, _):
            payload = {"kind": "mws", "kernel": "2point"}
            for _ in range(2):
                code, _body = _call(f"{url}/analyze", method="POST",
                                    payload=payload, tenant="heavy")
                assert code == 200
            code, body = _call(f"{url}/analyze", method="POST",
                               payload=payload, tenant="heavy")
            assert code == 429
            assert body["reason"] == "quota"
            # A polite tenant is untouched by the heavy one's bucket.
            code, _body = _call(f"{url}/analyze", method="POST",
                                payload=payload, tenant="polite")
            assert code == 200
        assert observer.counters["server.quota.rejected"] == 1


class TestTimeoutAndAdmission:
    def test_hanging_request_times_out_and_slot_survives(self, observer):
        # The acceptance bullet: a hanging request gets 504, its worker
        # is killed and respawned, and the next request on the same
        # single-slot pool succeeds.
        with _serve(
            evaluator=_hang_on_sor_evaluator,
            service_kwargs={"workers": 1, "timeout": 1.0},
        ) as (url, _, _):
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "sor"},
            )
            assert code == 504
            assert body["status"] == "timeout"
            assert observer.counters["batch.worker.reclaimed"] == 1
            assert observer.counters["server.request.timeout"] == 1
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "2point"},
            )
            assert code == 200 and body["status"] == "ok"

    def test_admission_control_429_when_full(self, observer):
        # workers=1, queue_limit=0 -> capacity 1: while one request is
        # in flight the next is rejected immediately, not queued.
        with _serve(
            queue_limit=0,
            evaluator=_hang_on_sor_evaluator,
            service_kwargs={"workers": 1, "timeout": 3.0},
        ) as (url, server, _):
            results = {}

            def fire_slow():
                results["slow"] = _call(
                    f"{url}/analyze", method="POST",
                    payload={"kind": "mws", "kernel": "sor"},
                )

            slow = threading.Thread(target=fire_slow)
            slow.start()
            deadline = time.time() + 5.0
            while server._inflight == 0 and time.time() < deadline:
                time.sleep(0.02)
            assert server._inflight == 1
            code, body = _call(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "2point"},
            )
            assert code == 429
            assert body["reason"] == "admission"
            assert observer.counters["server.admission.rejected"] == 1
            slow.join(timeout=15.0)
            assert results["slow"][0] == 504


# Module-level so the service can pickle them to pool workers.
def _hang_on_sor_evaluator(kind, program, array, store):
    if program.name == "sor":
        time.sleep(30)
    return evaluate_kind(kind, program, array, store)
