"""One benchmark workload in its own interpreter; run.py starts these.

    python benchmarks/e2e/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR [--setup-only]

The child imports ``repro`` from ``PYTHONPATH``, builds its inputs from
the seed, prints ``READY`` once it could issue its first timed operation,
then measures for ``--seconds`` and writes ``DIR/result.json``: the
operation latencies, the attempted, failed and wrong answers, the peak
RSS of its process tree and, when traced, the per-layer metrics (with
the raw spans in ``DIR/spans.json``).  ``--setup-only`` stops after
``READY``; run.py uses it to time set-up several times.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import inputs
import oracle
from tracer import Tracer

#: Concurrent clients and server workers of the serve workloads (nproc).
CLIENTS = 2

#: Highest rates the request sequences are sized for; a run that
#: exhausts its sequence stops early rather than repeat it.
WARM_MAX_RPS = 1500
MIXED_MAX_NOVEL_PER_S = 15

#: serve-mixed: share of the new programs recomputed with the reference
#: engine after the run, and the cap on their number.
REFERENCE_SHARE, REFERENCE_CAP = 0.10, 12

#: Traced serve runs replay one request prefix three ways (HTTP, pool,
#: inline with every other request traced); the HTTP replay gets this
#: share of the time.
REPLAY_SHARE = 0.3


def clear_caches() -> None:
    """Empty every public ``clear_*_cache`` of the loaded repro modules
    (found by name, so that caches added later are emptied too)."""
    seen: set[int] = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("clear_") and attr.endswith("_cache")
                    and callable(fn) and id(fn) not in seen):
                seen.add(id(fn))
                fn()


class Tally:
    """What a run attempted, which attempts failed, which answers were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.oracle = oracle.Oracle()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < oracle.KEEP_MESSAGES:
            self.errors.append(message)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "wrong_answers": self.oracle.wrong,
            "wrong": self.oracle.messages,
        }


def peak_rss_kb() -> int:
    """Largest resident set of this process and its waited-for children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def traced_layers(tracer: Tracer, traced: list[float],
                  plain: list[float]) -> dict:
    """Per-layer metrics of the traced operations, and the tracing
    overhead as the change in median operation time."""
    if not traced or not plain:
        raise RuntimeError("a traced run needs traced and untraced operations")
    layers = tracer.layer_metrics(sum(traced), len(traced))
    plain_p50 = statistics.median(plain)
    layers["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) - plain_p50) / plain_p50
    )
    layers.update({"pool.dispatch_pct": 0.0, "server.http_pct": 0.0,
                   "server.engine_sims": 0.0})
    return layers


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

class InProcess:
    """Cold operations back to back in this process.  Traced runs
    alternate traced and untraced operations, so one run also measures
    the tracing overhead."""

    #: Failed operations after which a run stops past its deadline even
    #: without the samples it needs.
    MAX_FAILED = 3

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        self.rng = random.Random(f"{type(self).__name__}/{seed}")
        self.tally = Tally()
        self.expected = oracle.load_expected()

    def operation(self) -> float:
        """Empty the caches, run one timed operation and check its
        answers; returns its wall time."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def measure(self, seconds: float, tracer: Tracer | None) -> dict:
        plain: list[float] = []
        traced: list[float] = []
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline or (
            (not plain or (tracer is not None and not traced))
            and self.tally.failed < self.MAX_FAILED
        ):
            trace_this = tracer is not None and len(traced) <= len(plain)
            self.tally.attempted += 1
            if trace_this:
                tracer.install()
            try:
                elapsed = self.operation()
            except Exception:
                self.tally.fail(traceback.format_exc(limit=4))
                continue
            finally:
                if trace_this:
                    tracer.uninstall()
            (traced if trace_this else plain).append(elapsed)
        result = {"samples_s": plain, "wall_s": time.perf_counter() - started}
        if tracer is not None:
            result["layers"] = traced_layers(tracer, traced, plain)
        return result

    def after(self, result: dict) -> None:
        pass  # every answer was checked as it came

    def close(self) -> None:
        pass


class Figure2Cold(InProcess):
    """The paper's table: ``optimize_program`` on the seven kernels in a
    seeded order; one untimed pass first."""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        super().__init__(seed, work, seconds)
        import repro.core.optimizer
        from repro.kernels import kernel_by_name

        self.optimizer = repro.core.optimizer
        self.programs = [
            (name, kernel_by_name(name).build()) for name in inputs.KERNELS
        ]

    def warm_up(self) -> None:
        self.tally.attempted += 1
        self.operation()

    def operation(self) -> float:
        order = self.rng.sample(self.programs, len(self.programs))
        clear_caches()
        started = time.perf_counter()
        results = [(name, program, self.optimizer.optimize_program(program))
                   for name, program in order]
        elapsed = time.perf_counter() - started
        for name, program, result in results:
            self.tally.oracle.check(
                f"figure2 {name}", oracle.figure2_answer(program, result),
                self.expected["figure2"][name],
            )
        return elapsed


class HierarchyCold(InProcess):
    """Joint transformation x tile x placement search with the default
    candidates, one operation per pass over the three nests in a seeded
    order.  (Per-query samples would mix three nests of different cost,
    and their median would jump between them from run to run.)"""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        super().__init__(seed, work, seconds)
        import repro.transform

        # Looked up per call, so that a traced run sees the wrapper.
        self.transform = repro.transform
        self.hierarchy = inputs.scaled_hierarchy()
        self.programs = list(inputs.hierarchy_programs().items())

    def operation(self) -> float:
        order = self.rng.sample(self.programs, len(self.programs))
        elapsed = 0.0
        for name, program in order:
            clear_caches()
            started = time.perf_counter()
            result = self.transform.search_hierarchy(program, self.hierarchy)
            elapsed += time.perf_counter() - started
            self.tally.oracle.check(
                f"hierarchy {name}", oracle.hierarchy_answer(result),
                self.expected["hierarchy"][name],
            )
        return elapsed


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------

def http_call(port: int, method: str, path: str,
              body: bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the server closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """``python -m repro serve`` on an ephemeral port.  It stays in this
    process's group, so that run.py can stop the whole tree."""

    def __init__(self, store: Path, log: Path) -> None:
        self.port: int | None = None
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--store", str(store),
                 "--workers", str(CLIENTS), "serve", "--port", "0",
                 "--no-quota"],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r} (see {log})")
        self.port = int(line.strip().rsplit(":", 1)[1])
        status, _ = http_call(self.port, "GET", "/healthz")
        if status != 200:
            self.close()
            raise RuntimeError(f"/healthz answered {status}")

    def analyze(self, body: bytes) -> tuple[int, bytes]:
        return http_call(self.port, "POST", "/analyze", body)

    def engine_calls(self) -> int:
        """Engine simulations so far, from the Prometheus exposition."""
        _status, body = http_call(self.port, "GET", "/metrics")
        total = 0
        for line in body.decode().splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("repro_engine_") and name.endswith("_calls_total"):
                total += int(float(value))
        return total

    def close(self) -> None:
        """Shut down through ``POST /shutdown``; kill after 30 s."""
        if self.proc.returncode is not None:
            return
        if self.port is None or self.proc.poll() is not None:
            self.proc.kill()
        else:
            try:
                http_call(self.port, "POST", "/shutdown", b"{}")
            except OSError:
                self.proc.kill()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Serve:
    """A closed loop of :data:`CLIENTS` threads against ``repro serve``.

    Request sequences are lists of ``(key, payload)``; answers under one
    key must agree.  Subclasses build their inputs before calling this
    constructor, which starts the server last.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.rng = random.Random(f"{type(self).__name__}/{seed}")
        self.work = work
        self.tally = Tally()
        self.expected = oracle.load_expected()
        self.server = Server(self.store_dir("server"), work / "server.log")
        try:
            status, raw = self.server.analyze(
                json.dumps(inputs.FIRST_REQUEST).encode()
            )
        except OSError:
            self.server.close()
            raise
        if status != 200:
            self.server.close()
            raise RuntimeError(f"first request answered {status}: {raw[:200]!r}")

    def store_dir(self, name: str) -> Path:
        path = self.work / f"store-{name}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def sequence(self) -> list:
        raise NotImplementedError

    def check(self, key, label: str, result) -> None:
        raise NotImplementedError

    def replay_store(self, name: str) -> Path:
        """Store of one in-process replay."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def warm_up_service(self, call, build_request) -> None:
        """Untimed requests that pay a new service's first-call costs."""
        raise NotImplementedError

    def after(self, result: dict) -> None:
        """Checks that run once the timed requests are done and the peak
        RSS is read, so that the oracle's memory is not counted."""

    def record(self, key, status: int | None, raw: bytes, elapsed: float,
               samples: list[float]) -> None:
        """Tally one HTTP reply."""
        self.tally.attempted += 1
        try:
            reply = json.loads(raw) if status is not None else None
        except ValueError:
            reply = None
        if (status != 200 or not isinstance(reply, dict)
                or reply.get("status") != "ok"):
            self.tally.fail(f"{key}: HTTP {status}: {raw[:300]!r}")
            return
        samples.append(elapsed)
        self.check(key, f"{key} (http)", reply["result"])

    def closed_loop(self, items, seconds: float, clients: int,
                    samples: list[float]) -> tuple[int, float]:
        """Send ``items`` in order from ``clients`` threads, each waiting
        for its reply, until ``seconds`` pass; (requests sent, wall)."""
        lock = threading.Lock()
        queue = iter(items)
        sent = 0
        crashed: list[Exception] = []
        started = time.perf_counter()
        deadline = started + seconds

        def send_until_deadline() -> None:
            nonlocal sent
            while time.perf_counter() < deadline:
                with lock:
                    item = next(queue, None)
                    if item is None:
                        return
                    sent += 1
                key, payload = item
                body = json.dumps(payload).encode()
                begin = time.perf_counter()
                try:
                    status, raw = self.server.analyze(body)
                except OSError as exc:
                    status, raw = None, repr(exc).encode()
                elapsed = time.perf_counter() - begin
                with lock:
                    self.record(key, status, raw, elapsed, samples)

        def client() -> None:
            try:
                send_until_deadline()
            except Exception as exc:  # re-raised on the main thread
                crashed.append(exc)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashed:
            raise crashed[0]
        return sent, time.perf_counter() - started

    def measure(self, seconds: float, tracer: Tracer | None) -> dict:
        if tracer is not None:
            return self.measure_traced(seconds, tracer)
        samples: list[float] = []
        _sent, wall = self.closed_loop(self.sequence(), seconds, CLIENTS, samples)
        return {"samples_s": samples, "wall_s": wall}

    def measure_traced(self, seconds: float, tracer: Tracer) -> dict:
        """Replay one request prefix with one client over HTTP, through
        the service's pool, and inline with every other request traced;
        the differences of the mean latencies split a request between
        the server, the pool and everything below the api.  (Means,
        because serve-mixed latencies are bimodal and medians of such
        mixtures do not add.)"""
        items = self.sequence()
        http_s: list[float] = []
        calls = self.server.engine_calls()
        sent, _wall = self.closed_loop(items, seconds * REPLAY_SHARE, 1, http_s)
        sims = (self.server.engine_calls() - calls) / sent
        self.server.close()
        items = items[:sent]
        submit_s, _ = self.replay(items, "pool", workers=CLIENTS)
        plain_s, traced_s = self.replay(items, "inline", workers=0,
                                        tracer=tracer)
        layers = traced_layers(tracer, traced_s, plain_s)
        http_mean = statistics.fmean(http_s)
        submit_mean = statistics.fmean(submit_s)
        layers["pool.dispatch_pct"] = (
            100.0 * (submit_mean - statistics.fmean(plain_s)) / http_mean
        )
        layers["server.http_pct"] = 100.0 * (http_mean - submit_mean) / http_mean
        layers["server.engine_sims"] = sims
        return {"samples_s": http_s, "layers": layers}

    def replay(self, items, name: str, workers: int,
               tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
        """Latencies of ``items`` through a warmed-up in-process
        AnalysisService: (untraced, traced).  With a ``tracer``, every
        other request is traced."""
        from repro.api import AnalysisService, build_request

        plain: list[float] = []
        traced: list[float] = []
        with AnalysisService(store=self.replay_store(name),
                             workers=workers) as service:
            self.warm_up_service(
                service.submit if workers else service.evaluate, build_request
            )
            for key, payload in items:
                trace_this = tracer is not None and len(traced) <= len(plain)
                if trace_this:
                    tracer.install()
                # Looked up per request, so that a traced one gets the
                # wrapped method.
                call = service.submit if workers else service.evaluate
                self.tally.attempted += 1
                try:
                    started = time.perf_counter()
                    response = call(build_request(payload))
                    elapsed = time.perf_counter() - started
                finally:
                    if trace_this:
                        tracer.uninstall()
                if response.status != "ok":
                    self.tally.fail(f"{key} ({name}): {response.error}")
                    continue
                (traced if trace_this else plain).append(elapsed)
                self.check(key, f"{key} ({name})", response.result)
        return plain, traced

    def close(self) -> None:
        self.server.close()


class ServeWarm(Serve):
    """Every answer already in the store: HTTP, dispatch, the pool round
    trip and store reads, with almost no engine work."""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        self.requests = [
            (oracle.warm_key(request), request)
            for request in inputs.WARM_REQUESTS
        ]
        self.length = math.ceil(seconds * WARM_MAX_RPS)
        self.transforms: set[tuple[str, tuple]] = set()
        super().__init__(seed, work)

    def sequence(self) -> list:
        return [self.rng.choice(self.requests) for _ in range(self.length)]

    def check(self, key, label: str, result) -> None:
        self.tally.oracle.check(label, oracle.checked_fields(result),
                                self.expected["serve_warm"][key])
        if "t" in result:
            self.transforms.add((key, tuple(map(tuple, result["t"]))))

    def after(self, result: dict) -> None:
        """Recompute with the reference engine the window of every
        distinct transformation returned that ``expected.json`` does not
        list as checked."""
        known = self.expected["serve_warm_t"]
        unknown = [(key, t) for key, t in sorted(self.transforms)
                   if oracle.normalize(t) not in known.get(key, [])]
        for key, t in unknown:
            want = self.expected["serve_warm"][key]
            field, got = oracle.transform_window(key, t, want)
            self.tally.oracle.check(f"{key} t={t} (reference engine)",
                                    {field: got}, {field: want[field]})
        result["reference_checked"] = len(unknown)

    def warm_up(self) -> None:
        self.closed_loop(self.requests, math.inf, CLIENTS, [])

    def warm_up_service(self, call, build_request) -> None:
        for _key, payload in self.requests:
            call(build_request(payload))

    def replay_store(self, name: str) -> Path:
        return self.work / "store-server"


class ServeMixed(Serve):
    """``optimize`` on new programs beside repeats of earlier ones: cold
    compute in the pool and store writes next to store reads."""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        n_novel = math.ceil(seconds * MIXED_MAX_NOVEL_PER_S)
        self.programs = inputs.mixed_programs(seed, n_novel)
        self.order = inputs.mixed_order(seed, n_novel)
        self.answered: dict[int, dict] = {}  # first answer per program
        super().__init__(seed, work)

    def sequence(self) -> list:
        return [
            (self.programs[index][0],
             {"kind": "optimize", "source": self.programs[index][1]})
            for index, _novel in self.order
        ]

    def check(self, key, label: str, result) -> None:
        self.answered.setdefault(key, result)
        self.tally.oracle.check_repeat(key, label,
                                       oracle.checked_fields(result))

    def replay_store(self, name: str) -> Path:
        clear_caches()
        return self.store_dir(name)

    def warm_up_service(self, call, build_request) -> None:
        call(build_request(inputs.MIXED_WARM_UP))

    def after(self, result: dict) -> None:
        """Recompute a seeded sample of the answers with the reference
        engine."""
        from repro.ir import parse_program

        sources = dict(self.programs)
        answered = sorted(self.answered)
        count = min(REFERENCE_CAP, math.ceil(REFERENCE_SHARE * len(answered)))
        for key in self.rng.sample(answered, count):
            answer = self.answered[key]
            program = parse_program(sources[key], name="inline")
            self.tally.oracle.check(
                f"{key} (reference engine)",
                {"mws_before": answer["mws_before"],
                 "mws_after": answer["mws_after"]},
                {"mws_before": oracle.reference_mws(program, None),
                 "mws_after": oracle.reference_mws(program, answer["t"])},
            )
        result["reference_checked"] = count


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

WORKLOADS = {
    "figure2-cold": Figure2Cold,
    "hierarchy-cold": HierarchyCold,
    "serve-warm": ServeWarm,
    "serve-mixed": ServeMixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work, args.seconds)
    tracer = Tracer() if args.trace else None
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        workload.warm_up()
        result = workload.measure(args.seconds, tracer)
    finally:
        workload.close()
    result["peak_rss_kb"] = peak_rss_kb()
    workload.after(result)
    result.update(workload.tally.as_dict())
    if tracer is not None:
        result["untraced_targets"] = tracer.missing
        (args.work / "spans.json").write_text(json.dumps(tracer.spans))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
