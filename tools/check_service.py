#!/usr/bin/env python
"""CI gate: the always-on analysis service end to end.

Launches ``repro serve`` as a subprocess against a fresh store on an
ephemeral port, then drives the acceptance scenarios over real HTTP:

1. **Warm beats cold.**  The same request twice: the second answer is
   marked ``warm``, returns the identical result, runs faster, and the
   ``/metrics`` engine-call counters prove zero engine simulations.
2. **Concurrent burst.**  N parallel requests from distinct tenants all
   answer 200 (admission capacity is honoured, nothing deadlocks).
3. **Over-quota tenant.**  One tenant burning through its token bucket
   is answered 429 (``reason: quota``) while others stay admitted.
4. **Hanging request.**  A per-request timeout too small for the work
   answers 504, the worker slot is reclaimed (counter-verified), and
   the next request on the same pool succeeds.
5. **Clean shutdown.**  ``POST /shutdown`` stops the process with exit
   code 0 and the run ledger holds a sealed ``serve`` record.

Usage::

    python tools/check_service.py [--burst 12]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.store import SCHEMA_VERSION


def call(url, method="GET", payload=None, tenant=None, timeout=60.0):
    headers = {}
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    if tenant is not None:
        headers["X-Repro-Tenant"] = tenant
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def call_json(url, **kwargs):
    status, body = call(url, **kwargs)
    return status, json.loads(body)


def engine_calls(url) -> int:
    """Total engine simulations so far, per the Prometheus exposition."""
    _status, body = call(f"{url}/metrics")
    total = 0
    for line in body.decode().splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("repro_engine_") and name.endswith("_calls_total"):
            total += int(float(value))
    return total


def metric(url, name) -> float:
    _status, body = call(f"{url}/metrics")
    for line in body.decode().splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    return 0.0


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--burst", type=int, default=12,
                        help="concurrent requests in the burst phase")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as store_dir:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--store", store_dir,
             "serve", "--port", "0", "--queue-limit", str(args.burst + 8),
             # Glacial refill + burst 3: every tenant gets exactly three
             # requests, which makes the quota phase deterministic.
             "--quota-rate", "0.001", "--quota-burst", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # Own process group: on failure the whole tree (server AND
            # its forked pool workers) is killed, or the workers would
            # hold the stderr pipe open and the read below would block.
            start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            check("listening on http://" in line,
                  f"server announced its port ({line.strip()!r})")
            url = line.strip().rsplit(" ", 1)[-1]

            status, health = call_json(f"{url}/healthz")
            check(status == 200 and health["status"] == "ok",
                  "healthz answers ok")

            # -- 1. warm beats cold --------------------------------------
            payload = {"kind": "optimize", "kernel": "matmult"}
            t0 = time.perf_counter()
            status, cold = call_json(f"{url}/analyze", method="POST",
                                     payload=payload, tenant="warmth")
            cold_s = time.perf_counter() - t0
            check(status == 200 and not cold["warm"], "cold request computes")
            calls_before = engine_calls(url)
            t0 = time.perf_counter()
            status, warm = call_json(f"{url}/analyze", method="POST",
                                     payload=payload, tenant="warmth")
            warm_s = time.perf_counter() - t0
            check(status == 200 and warm["warm"], "warm request store-served")
            check(warm["result"] == cold["result"],
                  "warm result identical to cold")
            check(engine_calls(url) == calls_before,
                  "warm request ran zero engine simulations")
            check(warm_s < cold_s,
                  f"warm faster than cold ({warm_s:.3f}s < {cold_s:.3f}s)")

            # -- 2. concurrent burst, one tenant each --------------------
            def one(i):
                return call_json(
                    f"{url}/analyze", method="POST",
                    payload={"kind": "mws", "kernel": "2point"},
                    tenant=f"burst-{i}")

            with concurrent.futures.ThreadPoolExecutor(args.burst) as pool:
                replies = list(pool.map(one, range(args.burst)))
            check(all(s == 200 and b["status"] == "ok" for s, b in replies),
                  f"{args.burst} concurrent requests all answered 200")

            # -- 3. over-quota tenant ------------------------------------
            codes = [call_json(f"{url}/analyze", method="POST",
                               payload={"kind": "mws", "kernel": "2point"},
                               tenant="greedy")[0] for _ in range(4)]
            check(codes[:3] == [200, 200, 200] and codes[3] == 429,
                  f"4th request of over-quota tenant rejected ({codes})")
            status, body = call_json(f"{url}/analyze", method="POST",
                                     payload={"kind": "mws",
                                              "kernel": "2point"},
                                     tenant="polite")
            check(status == 200, "other tenants unaffected by the greedy one")

            # -- 4. hanging request times out, slot survives -------------
            reclaimed_before = metric(
                url, "repro_batch_worker_reclaimed_total")
            status, body = call_json(
                f"{url}/analyze", method="POST",
                payload={"kind": "search", "kernel": "matmult",
                         "timeout": 0.01},
                tenant="hang")
            check(status == 504 and body["status"] == "timeout",
                  "undersized per-request timeout answers 504")
            check(metric(url, "repro_batch_worker_reclaimed_total")
                  > reclaimed_before,
                  "timed-out worker was reclaimed (counter bumped)")
            status, body = call_json(
                f"{url}/analyze", method="POST",
                payload={"kind": "mws", "kernel": "2point"},
                tenant="after-hang")
            check(status == 200 and body["status"] == "ok",
                  "request after the timeout succeeds on the same pool")

            # -- 5. clean shutdown seals the ledger ----------------------
            status, body = call_json(f"{url}/shutdown", method="POST",
                                     payload={})
            check(status == 202, "shutdown accepted")
            check(proc.wait(timeout=60) == 0, "server exited 0")
            records = sorted(
                Path(store_dir).glob(f"v{SCHEMA_VERSION}/ledger/*.json"))
            commands = [json.loads(p.read_text())["value"].get("command")
                        for p in records]
            check("serve" in commands,
                  f"run ledger sealed a 'serve' record ({commands})")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                sys.stderr.write(proc.stderr.read())
                raise SystemExit("FAIL: server had to be killed")
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
