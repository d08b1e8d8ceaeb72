"""Stable library facade: the one item path behind ``repro batch`` and
``repro serve``.

:class:`AnalysisService` owns the shared machinery — the
content-addressed result store (with its in-memory LRU front), the
reclaimable worker pool (the package's only process pool), the
per-request timeout path (a hung request frees its worker slot), and
the run-ledger read side — and exposes every analysis the engines
support behind one request/response surface::

    from repro.api import AnalysisService, build_request

    with AnalysisService(store="~/.repro-store", workers=4) as svc:
        response = svc.submit(build_request(
            {"kind": "optimize", "kernel": "sor"}
        ))
        print(response.result["mws_after"], response.warm)

Request ``kind`` is one of :data:`KINDS`: ``optimize``, ``search``,
``mws``, ``analyze``, ``hierarchy``, ``param``.  The work target is
exactly one of ``kernel`` (a Figure-2 kernel name), ``file`` (a
loop-nest source path), or ``source`` (inline loop-nest text).  All
results are JSON-ready dicts, pure functions of the program signature
and knobs.  With a store attached each whole answer is one record of
kind ``answer`` (:func:`answer_key`), and the service reads it in the
calling process before an item runs inline or crosses the pool, so a
warm request is one record read: no engine work and nothing pickled.
The item itself (:func:`compute_answer`) only computes and writes the
record, so a cold request reads it once.

Two front ends run their items through the service: the HTTP server
(:mod:`repro.server`, a thin asyncio shell) and ``repro batch``
(:func:`repro.store.batch.run_batch`, a loop over one service).  The
single-program CLI subcommands that keep answers in the store
(``analyze``, ``optimize``, ``size --optimized``, ``figure2``) answer
through :func:`evaluate_kind`, and every subcommand loads its program
with the same :func:`load_program`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.obs import flight, runctx
from repro.obs import metrics as obs_metrics
from repro.ir.program import Program
from repro.store.pool import ReclaimablePool

#: Request kinds (also the ``kind`` of a batch manifest entry).
KINDS = ("optimize", "search", "mws", "analyze", "hierarchy", "param")

#: Second-scale latency buckets (the metrics default is integer-scaled).
LATENCY_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


# ----------------------------------------------------------------------
# kind dispatch — the one place "what does this analysis return" lives
# ----------------------------------------------------------------------

def answer_key(
    kind: str, program: Program, array: str | None = None, preset: str = "tcm"
) -> dict[str, Any]:
    """Store key of one answer: the kind, the program signature, and only
    the knobs that kind reads (``array`` for ``search``, ``mws`` and
    ``param``; ``preset`` for ``hierarchy``)."""
    key: dict[str, Any] = {"kind": kind, "sig": program.signature()}
    if kind in ("search", "mws", "param"):
        key["array"] = array
    elif kind == "hierarchy":
        key["preset"] = preset
    return key


def _decode_answer(value: Any) -> dict[str, Any] | None:
    """An answer record's value — the answer as JSON text, so that its
    field order survives the store's sorted-key records — parsed, or
    ``None`` (a counted ``store.corrupt`` miss) when it is not one."""
    try:
        answer = json.loads(value)
    except (TypeError, ValueError):
        answer = None
    if isinstance(answer, dict):
        return answer
    obs.counter("store.corrupt")
    return None


def _named(answer: dict[str, Any], program: Program) -> dict[str, Any]:
    """``answer`` for ``program``: the signature leaves names out, so an
    ``analyze`` answer takes the caller's."""
    if "program" in answer:
        answer["program"] = program.name
    return answer


def evaluate_kind(
    kind: str,
    program: Program,
    array: str | None = None,
    store=None,
    preset: str = "tcm",
) -> dict[str, Any]:
    """Run one analysis ``kind`` on ``program``; JSON-ready result dict.

    Every result is a pure function of the :func:`answer_key`, so the
    whole answer is one ``answer`` record of ``store``: read first, and
    on a miss computed by :func:`compute_answer`, which writes it.  A
    cold answer comes back in its stored JSON form (``t`` as lists), so
    cold and warm answers are equal.  The single-program CLI subcommands
    answer through here; an :class:`AnalysisService` item reads the
    record before the item runs and then runs :func:`compute_answer`
    (the default evaluator of ``repro batch`` and ``repro serve``), so a
    cold request reads its record once.
    """
    answer = _stored_answer(store, kind, program, array, preset)
    if answer is not None:
        return answer
    return compute_answer(kind, program, array, store, preset)


def _stored_answer(
    store, kind: str, program: Program, array: str | None, preset: str
) -> dict[str, Any] | None:
    """``store``'s answer record for the request, decoded and named for
    ``program``, or ``None`` (no store, no record, or a corrupt one)."""
    if store is None:
        return None
    value = store.get("answer", answer_key(kind, program, array, preset))
    answer = None if value is None else _decode_answer(value)
    return None if answer is None else _named(answer, program)


def compute_answer(
    kind: str,
    program: Program,
    array: str | None = None,
    store=None,
    preset: str = "tcm",
) -> dict[str, Any]:
    """``kind``'s answer through the in-process memo
    (:func:`repro.transform.search.cached_search`), written to ``store``
    as its ``answer`` record; the caller has read ``store`` already.
    Nothing below passes a store on (``param`` excepted: its
    ``parametric`` records answer every resize of the program family).
    Its positional arguments are the ones the item task passes.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    from repro.transform.search import cached_search

    key = answer_key(kind, program, array, preset)
    text = cached_search(
        "answer", key, None,
        lambda: json.dumps(_compute(kind, program, array, store, preset)),
    )
    if store is not None:
        store.put("answer", key, text)
    return _named(json.loads(text), program)


def _compute(
    kind: str, program: Program, array: str | None, store, preset: str
) -> dict[str, Any]:
    """One kind's answer, computed (the cache is :func:`compute_answer`'s)."""
    if kind == "optimize":
        from repro.core.optimizer import optimize_program

        result = optimize_program(program)
        return {
            "mws_before": result.mws_before,
            "mws_after": result.mws_after,
            "t": result.transformation.rows,
        }
    if kind == "search":
        from repro.transform.search import search_best_transformation

        name = array or program.arrays[0]
        result = search_best_transformation(program, name)
        return {
            "array": name,
            "exact": result.exact_mws,
            "t": result.transformation.rows,
            "method": result.method,
        }
    if kind == "mws":
        from repro.transform.search import evaluate_exact

        value = evaluate_exact(program, [None], array=array)[0]
        return {"array": array, "mws": value}
    if kind == "analyze":
        from repro.core.pipeline import analyze_program

        report = analyze_program(program)
        return {
            "program": report.program,
            "default_memory": report.default_memory,
            "footprint": report.footprint.footprint_total,
            "mws": report.mws_per_array,
            "mws_total": report.mws_total,
        }
    if kind == "hierarchy":
        from repro.memory.hierarchy import preset as hierarchy_preset
        from repro.memory.sizing import tiers_needed
        from repro.transform.search import evaluate_exact

        stack = hierarchy_preset(preset)
        mws = evaluate_exact(program, [None])[0]
        return {
            "preset": preset,
            "mws_words": mws,
            "tiers_needed": tiers_needed(stack, mws),
        }
    from repro.estimation.parametric import resolve_parametric

    name = array or program.arrays[0]
    out: dict[str, Any] = {"array": name}
    for param_kind in ("mws", "distinct"):
        pe = resolve_parametric(program, param_kind, array=name, store=store)
        out[f"{param_kind}_expr"] = None if pe is None else str(pe.expr)
    return out


# ----------------------------------------------------------------------
# item execution — inline or on a pool worker, one lifecycle either way
# ----------------------------------------------------------------------

def _run_item(payload, drain: bool) -> tuple[dict[str, Any], dict[str, int]]:
    """Run one item between its ``item_start`` and ``item_done`` /
    ``item_error`` heartbeats; return the result and the item's counter
    delta.

    ``drain=True`` is the pool-worker mode (:func:`_batch_task`): a
    :class:`repro.obs.flight.HeartbeatThread` periodically snapshots the
    worker's counters to the run's live file while the item runs, and
    the worker observer is drained afterwards, so the delta is this
    item's alone.  Those snapshots double as the *partial-telemetry
    flush*: if the parent abandons the item on timeout, it recovers the
    last snapshot (:func:`record_item_timeout`) instead of silently
    dropping the worker's counters.  ``drain=False`` (inline) diffs the
    caller's observer instead.
    """
    evaluator, label, sig, kind, program, array, store = payload
    observer = obs.get_observer()
    before = {} if observer is None or drain else dict(observer.counters)
    # The context manager stops the heartbeat thread on *any* exit — a
    # raising evaluator must not leave a daemon thread appending
    # heartbeats for an item that is already dead.
    beating = (
        flight.HeartbeatThread(label, sig=sig) if drain
        else contextlib.nullcontext()
    )
    flight.heartbeat("item_start", item=label, sig=sig)
    started = time.perf_counter()
    try:
        with beating:
            result = evaluator(kind, program, array, store)
    except BaseException:
        flight.heartbeat("item_error", item=label, sig=sig)
        raise
    delta: dict[str, int] = {}
    if observer is not None and drain:
        delta = dict(observer.counters)
        observer.counters.clear()
    elif observer is not None:
        delta = {
            name: value - before.get(name, 0)
            for name, value in observer.counters.items()
            if value != before.get(name, 0)
        }
    flight.heartbeat(
        "item_done", item=label, sig=sig,
        elapsed_s=round(time.perf_counter() - started, 3),
        counters=delta,
    )
    return result, delta


def _batch_task(payload) -> tuple[dict[str, Any], dict[str, int]]:
    """Pool-worker entry point (module-level for pickling)."""
    return _run_item(payload, drain=True)


def _recover_timeout_delta(item_label: str) -> dict[str, int]:
    """Last heartbeat counter snapshot for a timed-out item, if any.

    The timed-out worker's per-item counter delta never comes back over
    the future, but its :class:`~repro.obs.flight.HeartbeatThread` was
    flushing snapshots to the live file — return the freshest one so the
    telemetry survives the cancel.
    """
    path = flight.live_path()
    if path is None:
        return {}
    recovered: dict[str, int] = {}
    for event in flight.read_heartbeats(path):
        if event.get("ev") == "progress" and event.get("item") == item_label:
            counters = event.get("counters")
            if isinstance(counters, dict):
                recovered = {
                    str(name): int(value)
                    for name, value in counters.items()
                    if isinstance(value, (int, float))
                }
    return recovered


def _observe_latency(wall_s: float, warm: bool) -> None:
    """File the item's wall time under the warm histogram (its answer
    record was read) or the cold one."""
    name = "batch.latency.warm_s" if warm else "batch.latency.cold_s"
    obs_metrics.observe(name, wall_s, buckets=LATENCY_BUCKETS)


def record_item_timeout(
    label: str, sig: str | None, timeout_s: float | None
) -> dict[str, int]:
    """Account for one abandoned item.

    Recovers the doomed worker's last heartbeat counter snapshot, bumps
    ``batch.item.timeout``, attributes the timeout on the run context,
    and emits the ``item_timeout`` heartbeat.  The worker itself is
    reclaimed by :class:`repro.store.pool.ReclaimablePool` — by the time
    this runs the slot is already being respawned.
    """
    recovered = _recover_timeout_delta(label)
    for name, amount in recovered.items():
        obs.counter(name, amount)
    obs.counter("batch.item.timeout")
    runctx.annotate("timeouts", {
        "item": label,
        "sig": sig,
        "timeout_s": timeout_s,
        "recovered_counters": recovered,
    })
    flight.heartbeat("item_timeout", item=label, sig=sig)
    return recovered


def _resolve_workers(workers: int | None) -> int:
    """``None`` means "pick for me": one worker per CPU, capped at 8.

    Negative counts are rejected here, when the service is built, rather
    than surfacing as an opaque pool error on the first request.
    """
    if workers is None:
        return min(8, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = inline, None = auto-size), "
            f"got {workers}"
        )
    return workers


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------

def load_program(
    kernel: str | None = None,
    file: str | Path | None = None,
    source: str | None = None,
    name: str | None = None,
) -> Program:
    """Build a program from a Figure-2 kernel name, a loop-nest source
    file, or inline loop-nest text (the first one given), and note its
    signature in the active run's ledger provenance.

    The one program loader: service requests and the CLI subcommands
    both resolve through it.
    """
    if kernel is not None:
        from repro.kernels import kernel_by_name

        program = kernel_by_name(kernel).build()
    else:
        from repro.ir import parse_program

        if file is not None:
            path = Path(file)
            source = path.read_text(encoding="utf-8")
            name = name or path.stem
        program = parse_program(source, name=name or "inline")
    runctx.note_input(program.name, program.signature())
    return program


# ----------------------------------------------------------------------
# request / response surface
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisRequest:
    """One validated analysis request (see :func:`build_request`)."""

    kind: str
    kernel: str | None = None
    file: str | None = None
    source: str | None = None
    name: str | None = None
    array: str | None = None
    preset: str = "tcm"
    timeout: float | None = None  # None -> the service default

    @property
    def target(self) -> str:
        return self.kernel or self.file or self.name or "inline"


@dataclass
class AnalysisResponse:
    """Outcome of one request: result, provenance, and cache state."""

    kind: str
    target: str
    array: str | None
    status: str  # "ok" | "error" | "timeout"
    result: dict[str, Any] | None = None
    error: str | None = None
    wall_s: float = 0.0
    warm: bool | None = None
    run: str | None = field(default_factory=runctx.current_run_id)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _checked_timeout(value: Any) -> float:
    """``value`` as seconds, or ``ValueError`` unless finite and > 0.

    JSON bodies and ``float()`` both admit NaN and Infinity, which no
    deadline arithmetic survives.  A bool, list or object is refused
    with ``ValueError`` too (``float`` would take ``true`` as 1 s and
    raise ``TypeError`` on the others).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"timeout must be a number of seconds, got {value!r}")
    timeout = float(value)
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be > 0 and finite, got {timeout}")
    return timeout


def build_request(payload: Mapping[str, Any]) -> AnalysisRequest:
    """Validate a raw payload (manifest entry, HTTP body) into a request.

    Raises ``ValueError`` on an unknown kind, a missing/ambiguous
    target, or a malformed knob — the caller maps that to its own error
    surface (batch ``error`` outcome, HTTP 400).  Unknown keys are
    ignored.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"request must be an object, got {payload!r}")
    kind = payload.get("kind", "analyze")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (expected one of {KINDS})")
    targets = [key for key in ("kernel", "file", "source")
               if payload.get(key) is not None]
    if len(targets) != 1:
        raise ValueError(
            "exactly one of 'kernel', 'file' or 'source' is required"
        )
    timeout = payload.get("timeout")
    if timeout is not None:
        timeout = _checked_timeout(timeout)
    array = payload.get("array")
    return AnalysisRequest(
        kind=kind,
        kernel=payload.get("kernel"),
        file=payload.get("file"),
        source=payload.get("source"),
        name=payload.get("name"),
        array=None if array is None else str(array),
        preset=str(payload.get("preset", "tcm")),
        timeout=timeout,
    )


def _failed(
    request: AnalysisRequest, exc: BaseException, wall_s: float = 0.0
) -> AnalysisResponse:
    return AnalysisResponse(
        request.kind, request.target, request.array, "error",
        error=f"{type(exc).__name__}: {exc}", wall_s=wall_s,
    )


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class AnalysisService:
    """Long-lived facade owning store, LRU, worker pool, and timeouts.

    ``store`` is a :class:`repro.store.ResultStore`, a directory path,
    or ``None`` (compute-only).  ``workers=0`` evaluates inline;
    ``workers >= 1`` evaluates on a :class:`ReclaimablePool`, where a
    request that outlives ``timeout`` seconds is abandoned *and its
    worker is killed and respawned*, so a hung request never eats a
    slot.  An inline evaluation cannot be preempted, so a ``timeout``
    with ``workers=0`` is rejected.  The pool is spawned lazily on the
    first pooled request (so it inherits the active run context) and is
    shared by every caller; its long-lived workers keep their caches
    between items.  Admission control (how many requests may wait for a
    slot) belongs to the front end.
    """

    def __init__(
        self,
        store=None,
        workers: int | None = 0,
        timeout: float | None = None,
    ) -> None:
        from repro.store import ResultStore

        self.workers = _resolve_workers(workers)
        if timeout is not None:
            timeout = _checked_timeout(timeout)
        if timeout is not None and self.workers < 1:
            raise ValueError(
                f"timeout={timeout:g}s needs workers >= 1: an inline "
                f"evaluation cannot be preempted"
            )
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.timeout = timeout
        self._pool: ReclaimablePool | None = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def resolve_program(self, request: AnalysisRequest) -> Program:
        """Build the request's program (kernel, file, or inline source)."""
        return load_program(
            request.kernel, request.file, request.source, request.name
        )

    def _prepare(
        self,
        request: AnalysisRequest,
        evaluator,
        program: Program | None,
        started: float,
    ) -> tuple[tuple | None, AnalysisResponse | None]:
        """Resolve the request (unless its ``program`` is given), then
        read its answer record: ``(None, warm response)`` on a hit, else
        ``(the item task's payload, None)``.  An injected ``evaluator``
        skips the read."""
        if program is None:
            program = self.resolve_program(request)
        if evaluator is None:
            served = self._stored(request, program, started)
            if served is not None:
                return None, served
            # functools.partial of a module-level callable pickles to
            # pool workers; the default path ships the bare function.
            evaluator = compute_answer
            if request.preset != "tcm":
                evaluator = functools.partial(
                    compute_answer, preset=request.preset
                )
        return (
            evaluator, f"{request.kind} {request.target}",
            program.signature(), request.kind, program, request.array,
            self.store,
        ), None

    def _stored(
        self, request: AnalysisRequest, program: Program, started: float
    ) -> AnalysisResponse | None:
        """The warm response of a request whose answer record the store
        holds, or ``None``.  The item's heartbeats are emitted as for a
        computed one."""
        result = _stored_answer(
            self.store, request.kind, program, request.array, request.preset
        )
        if result is None:
            return None
        label, sig = f"{request.kind} {request.target}", program.signature()
        flight.heartbeat("item_start", item=label, sig=sig)
        wall = time.perf_counter() - started
        flight.heartbeat(
            "item_done", item=label, sig=sig, elapsed_s=round(wall, 3),
            counters={},
        )
        with self._lock:
            obs.counter("batch.items.ok")
            _observe_latency(wall, warm=True)
        return AnalysisResponse(
            request.kind, request.target, request.array, "ok",
            result=result, wall_s=wall, warm=True,
        )

    def evaluate(
        self,
        request: AnalysisRequest,
        evaluator=None,
        program: Program | None = None,
    ) -> AnalysisResponse:
        """Evaluate inline (no pool, no preemption); never raises on the
        *item's* behalf — failures come back as ``status="error"``.

        A stored answer is the response (``warm=True``).  ``evaluator``
        (tests only) replaces :func:`compute_answer` and skips that read;
        ``program`` is the request's program when the caller has already
        resolved it (``repro batch`` does, to deduplicate).
        """
        started = time.perf_counter()
        try:
            payload, served = self._prepare(
                request, evaluator, program, started
            )
            if served is not None:
                return served
            result, _ = _run_item(payload, drain=False)
        except Exception as exc:
            obs.counter("batch.items.error")
            return _failed(request, exc, time.perf_counter() - started)
        wall = time.perf_counter() - started
        obs.counter("batch.items.ok")
        _observe_latency(wall, warm=False)
        return AnalysisResponse(
            request.kind, request.target, request.array, "ok",
            result=result, wall_s=wall, warm=False,
        )

    def submit(
        self,
        request: AnalysisRequest,
        timeout: float | None = None,
        evaluator=None,
        program: Program | None = None,
    ) -> AnalysisResponse:
        """Evaluate on the worker pool with the item timeout path.

        A stored answer is read first, in this process, and is the
        response: it never crosses the pool.  ``timeout`` (falling back
        to the request's, then the service's) bounds the request's
        execution; on expiry the worker is killed and respawned
        (``batch.worker.reclaimed``) and the response is
        ``status="timeout"``.  With ``workers=0`` this degrades to
        :meth:`evaluate`.  ``evaluator`` (tests only; module-level so it
        pickles) replaces :func:`compute_answer`; ``program`` is as in
        :meth:`evaluate`.  Thread-safe.
        """
        if timeout is None:
            timeout = request.timeout
        if timeout is None:
            timeout = self.timeout
        if self.workers < 1:
            return self.evaluate(request, evaluator, program)
        try:
            payload, served = self._prepare(
                request, evaluator, program, time.perf_counter()
            )
        except Exception as exc:
            obs.counter("batch.items.error")
            return _failed(request, exc)
        if served is not None:
            return served
        slot = self._ensure_pool().run_one(_batch_task, payload, timeout)
        if slot.status == "timeout":
            label, sig = payload[1:3]
            with self._lock:
                record_item_timeout(label, sig, timeout)
            return AnalysisResponse(
                request.kind, request.target, request.array, "timeout",
                error=f"timed out after {timeout:g}s", wall_s=slot.wall_s,
            )
        if slot.status == "error":
            with self._lock:
                obs.counter("batch.items.error")
            return _failed(request, slot.value, slot.wall_s)
        result, delta = slot.value
        # Counter merging is not atomic; concurrent front-end threads
        # serialize here so worker deltas are never lost.
        with self._lock:
            for name, amount in delta.items():
                obs.counter(name, amount)
            obs.counter("batch.items.ok")
            _observe_latency(slot.wall_s, warm=False)
        return AnalysisResponse(
            request.kind, request.target, request.array, "ok",
            result=result, wall_s=slot.wall_s, warm=False,
        )

    # ------------------------------------------------------------------
    # store maintenance / observability read side
    # ------------------------------------------------------------------
    def compact(self):
        """One sweep of the store's compaction job (no-op storeless)."""
        from repro.store.maintenance import compact_store

        if self.store is None:
            return None
        return compact_store(self.store)

    def run_record(self, run: str):
        """One run-ledger record by ID/prefix/'last' (None storeless)."""
        from repro.obs import ledger as obs_ledger

        if self.store is None:
            return None
        return obs_ledger.load_run(self.store, run)

    def run_ids(self) -> list[str]:
        from repro.obs import ledger as obs_ledger

        if self.store is None:
            return []
        return [
            str(record.get("run"))
            for record in obs_ledger.list_runs(self.store)
        ]

    def metrics_text(self) -> str:
        """Prometheus exposition of the live observer ('' when off)."""
        observer = obs.get_observer()
        if observer is None:
            return ""
        return obs.prometheus_text(observer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ReclaimablePool:
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._pool is None:
                self._pool = ReclaimablePool(
                    self.workers,
                    initializer=obs.core._init_worker,
                    initargs=(obs.enabled(), runctx.worker_state()),
                )
            return self._pool

    def close(self) -> None:
        """Kill in-flight workers and shut the pool down (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(kill=True)

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
