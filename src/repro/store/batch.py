"""Batch evaluation service over a manifest of kernels/searches.

``repro batch manifest.json`` reads a JSON manifest of work items, dedups
identical work by ``(kind, program signature, array)``, fans the unique
items out across the existing process-pool machinery with per-item
timeouts, and emits a deterministic summary table plus obs metrics.
Failures degrade gracefully: an item that raises or times out is
reported in the table with its error, never fatal to the batch.

Manifest format — a JSON list (or ``{"items": [...]}``) of objects::

    {"kind": "optimize", "kernel": "sor"}
    {"kind": "search",   "file": "examples/ex8.loop", "array": "A"}
    {"kind": "mws",      "kernel": "matmult"}

``kind`` is one of:

* ``optimize``  — full program-level optimization (a Figure-2 row),
* ``search``    — per-array best-transformation search,
* ``mws``       — exact MWS of the native order (``array`` optional; the
  program total when omitted),
* ``analyze``   — footprints plus exact windows for every array,
* ``hierarchy`` — tier-stack sizing against a preset (default ``tcm``),
* ``param``     — closed-form MWS/distinct expressions in the bounds.

The target is either ``kernel`` (a Figure-2 kernel name) or ``file`` (a
loop-nest source file).  With a :class:`repro.store.ResultStore`
attached, every item's results are persisted, so a warm re-run of the
same manifest is served from the store; item latencies are recorded in
the ``batch.latency.warm_s`` / ``batch.latency.cold_s`` histograms, and
the summary table is byte-identical between cold and warm runs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro import obs
from repro.obs import flight, runctx
from repro.obs import metrics as obs_metrics
from repro.ir.program import Program
from repro.store.pool import ReclaimablePool

#: Recognized work-item kinds (dispatched by :func:`repro.api.evaluate_kind`).
KINDS = ("optimize", "search", "mws", "analyze", "hierarchy", "param")

#: Second-scale latency buckets (the metrics default is integer-scaled).
LATENCY_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


@dataclass(frozen=True)
class BatchItem:
    """One validated manifest entry."""

    index: int
    kind: str
    target: str
    array: str | None
    program: Program

    @property
    def label(self) -> str:
        return f"#{self.index} {self.kind} {self.target}"


@dataclass
class BatchOutcome:
    """Result (or failure) of one manifest item."""

    item: BatchItem
    status: str  # "ok" | "error" | "timeout"
    result: Mapping[str, Any] | None = None
    error: str | None = None
    wall_s: float = 0.0
    duplicate_of: int | None = None


@dataclass
class BatchReport:
    """Everything ``repro batch`` renders and gates on."""

    outcomes: list[BatchOutcome]
    unique_items: int
    deduped_items: int

    @property
    def ok(self) -> bool:
        return all(o.status == "ok" for o in self.outcomes)


def load_manifest(path: str | Path) -> list[dict]:
    """Parse a manifest file into raw item dicts (validated later)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = data.get("items")
    if not isinstance(data, list):
        raise ValueError(
            f"{path}: manifest must be a JSON list of items or "
            f'{{"items": [...]}}'
        )
    return data


def _build_item(index: int, entry: Any) -> BatchItem:
    if not isinstance(entry, dict):
        raise ValueError(f"item #{index}: expected an object, got {entry!r}")
    kind = entry.get("kind", "optimize")
    if kind not in KINDS:
        raise ValueError(
            f"item #{index}: unknown kind {kind!r} (expected one of {KINDS})"
        )
    array = entry.get("array")
    kernel = entry.get("kernel")
    file = entry.get("file")
    if (kernel is None) == (file is None):
        raise ValueError(
            f"item #{index}: exactly one of 'kernel' or 'file' is required"
        )
    if kernel is not None:
        from repro.kernels import kernel_by_name

        program = kernel_by_name(kernel).build()
        target = kernel
    else:
        from repro.ir import parse_program

        program = parse_program(
            Path(file).read_text(encoding="utf-8"), name=Path(file).stem
        )
        target = file
    return BatchItem(index, kind, target, array, program)


def _default_evaluator(
    kind: str,
    program: Program,
    array: str | None,
    engine: str,
    store,
) -> dict[str, Any]:
    """Run one work item; returns a JSON-ready result dict.

    Delegates to the :mod:`repro.api` facade so the batch runner, the
    CLI, and the HTTP service all execute work through one entry path.
    (Lazy import: ``repro.api`` imports this module.)
    """
    from repro.api import evaluate_kind

    return evaluate_kind(kind, program, array=array, engine=engine,
                         store=store)


def _batch_task(payload) -> tuple[dict[str, Any], dict[str, int]]:
    """Worker-process entry point (module-level for pickling).

    Like ``transform.search._eval_batch_task``: returns the result
    together with the worker-side counter delta, drained per task so
    serial and parallel counter totals match.

    While the item runs, a :class:`repro.obs.flight.HeartbeatThread`
    periodically snapshots the worker's counters to the run's live file.
    Those snapshots double as the *partial-telemetry flush*: if the
    parent abandons this item on timeout, it recovers the last snapshot
    instead of silently dropping the worker's counters.
    """
    evaluator, label, sig, kind, program, array, engine, store = payload
    flight.heartbeat("item_start", item=label, sig=sig)
    started = time.perf_counter()
    try:
        # The context manager stops the heartbeat thread on *any* exit —
        # a raising evaluator must not leave a daemon thread appending
        # heartbeats for an item that is already dead.
        with flight.HeartbeatThread(label, sig=sig):
            result = evaluator(kind, program, array, engine, store)
    except BaseException:
        flight.heartbeat("item_error", item=label, sig=sig)
        raise
    worker_obs = obs.get_observer()
    delta: dict[str, int] = {}
    if worker_obs is not None:
        delta = dict(worker_obs.counters)
        worker_obs.counters.clear()
    flight.heartbeat(
        "item_done", item=label, sig=sig,
        elapsed_s=round(time.perf_counter() - started, 3),
        counters=delta,
    )
    return result, delta


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


def _observe_latency(wall_s: float, delta: Mapping[str, int]) -> bool:
    """File the item's wall time under the warm or cold histogram, and
    return whether the item was warm.

    *Warm* means cached answers served the whole item: no ``store.misses``,
    no window-engine work (every ``engine.*.calls`` and
    ``batch.candidates`` zero), and at least one hit in the store or in
    the in-process memos (``search.cache``, ``search.memo``,
    ``param.cache``), which answer repeats without touching the store.
    Anything else is cold.
    """
    hits = sum(
        delta.get(f"{cache}.hits", 0)
        for cache in (
            "store.mem", "store.disk", "search.cache", "search.memo",
            "param.cache",
        )
    )
    engine_work = delta.get("batch.candidates", 0) + sum(
        value for name, value in delta.items()
        if name.startswith("engine.") and name.endswith(".calls")
    )
    warm = hits > 0 and engine_work == 0 and delta.get("store.misses", 0) == 0
    name = "batch.latency.warm_s" if warm else "batch.latency.cold_s"
    obs_metrics.observe(name, wall_s, buckets=LATENCY_BUCKETS)
    return warm


def record_item_timeout(
    label: str, sig: str | None, timeout_s: float | None
) -> dict[str, int]:
    """Account for one abandoned item (shared batch/service timeout path).

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


def run_batch(
    entries: Sequence[Any],
    store=None,
    workers: int | None = 0,
    engine: str = "auto",
    timeout: float | None = None,
    evaluator: Callable[..., dict] | None = None,
) -> BatchReport:
    """Evaluate manifest ``entries``; never raises on a bad *item*.

    Malformed entries (unknown kind, missing target) become ``error``
    outcomes.  Identical work — same ``(kind, signature, array)`` — is
    evaluated once and aliased (``duplicate_of``).  ``workers > 1`` fans
    unique items out on a :class:`repro.store.pool.ReclaimablePool` with
    a per-item ``timeout`` (seconds); a timed-out item is reported as
    ``timeout``, its worker is killed and respawned (counted under
    ``batch.worker.reclaimed``), and the rest of the batch completes on
    a full-strength pool.  Serial mode cannot preempt a running item,
    so ``timeout`` needs ``workers >= 1``.  ``evaluator`` is injectable
    for tests (module-level callable when pickled to workers).
    """
    from repro.transform.search import _resolve_workers

    workers = _resolve_workers(workers)
    evaluator = evaluator or _default_evaluator

    items: list[BatchItem | BatchOutcome] = []
    for index, entry in enumerate(entries):
        try:
            items.append(_build_item(index, entry))
        except (ValueError, KeyError, OSError) as exc:
            placeholder = BatchItem(index, "?", "?", None, None)
            items.append(BatchOutcome(placeholder, "error", error=str(exc)))

    # Dedup identical work by content signature.
    primaries: dict[tuple, BatchItem] = {}
    aliases: dict[int, int] = {}
    for item in items:
        if isinstance(item, BatchOutcome):
            continue
        key = (item.kind, item.program.signature(), item.array)
        primary = primaries.get(key)
        if primary is None:
            primaries[key] = item
        else:
            aliases[item.index] = primary.index
    unique = [
        item for item in items
        if isinstance(item, BatchItem) and item.index not in aliases
    ]

    results: dict[int, BatchOutcome] = {}
    parallel = workers > 1 and len(unique) > 1
    batch_t0 = time.perf_counter()
    done = 0

    def _progress() -> None:
        nonlocal done
        done += 1
        elapsed = time.perf_counter() - batch_t0
        remaining = len(unique) - done
        eta = round(elapsed / done * remaining, 1) if done else None
        flight.heartbeat("batch_progress", done=done, total=len(unique),
                         eta_s=eta)

    with obs.span("batch", items=len(items), unique=len(unique),
                  workers=workers if parallel else 0):
        if parallel:
            # One reclaimable slot per worker: a timed-out item's worker
            # is killed and respawned, so a hung item can never occupy a
            # pool slot for the rest of the batch (or, in the always-on
            # service, forever).  One driver thread per slot blocks on
            # the process future; completions are handled here in
            # submission-thread order of completion.
            pool = ReclaimablePool(
                workers,
                initializer=obs.core._init_worker,
                initargs=(obs.enabled(), runctx.worker_state()),
            )
            try:
                with ThreadPoolExecutor(max_workers=workers) as threads:
                    dispatch = {}
                    for item in unique:
                        sig = (item.program.signature()
                               if item.program is not None else None)
                        payload = (
                            evaluator, item.label, sig, item.kind,
                            item.program, item.array, engine, store,
                        )
                        future = threads.submit(
                            pool.run_one, _batch_task, payload, timeout
                        )
                        dispatch[future] = (item, sig)
                    for future in as_completed(dispatch):
                        item, sig = dispatch[future]
                        slot = future.result()
                        if slot.status == "timeout":
                            # The worker's per-item counter delta would
                            # be dropped with the item: recover its last
                            # heartbeat snapshot so telemetry survives.
                            record_item_timeout(item.label, sig, timeout)
                            results[item.index] = BatchOutcome(
                                item, "timeout",
                                error=f"timed out after {timeout:g}s",
                                wall_s=slot.wall_s,
                            )
                        elif slot.status == "error":  # degrade, don't abort
                            exc = slot.value
                            obs.counter("batch.items.error")
                            results[item.index] = BatchOutcome(
                                item, "error",
                                error=f"{type(exc).__name__}: {exc}",
                                wall_s=slot.wall_s,
                            )
                        else:
                            result, delta = slot.value
                            for name, amount in delta.items():
                                obs.counter(name, amount)
                            obs.counter("batch.items.ok")
                            _observe_latency(slot.wall_s, delta)
                            results[item.index] = BatchOutcome(
                                item, "ok", result=result, wall_s=slot.wall_s
                            )
                        _progress()
            finally:
                pool.shutdown(kill=True)
        else:
            observer = obs.get_observer()
            for item in unique:
                sig = (item.program.signature()
                       if item.program is not None else None)
                before = dict(observer.counters) if observer else {}
                started = time.perf_counter()
                flight.heartbeat("item_start", item=item.label, sig=sig)
                try:
                    result = evaluator(
                        item.kind, item.program, item.array, engine, store
                    )
                except Exception as exc:  # degrade, don't abort
                    obs.counter("batch.items.error")
                    flight.heartbeat("item_error", item=item.label, sig=sig)
                    results[item.index] = BatchOutcome(
                        item, "error", error=f"{type(exc).__name__}: {exc}",
                        wall_s=time.perf_counter() - started,
                    )
                    _progress()
                    continue
                wall = time.perf_counter() - started
                delta = {}
                if observer is not None:
                    delta = {
                        name: value - before.get(name, 0)
                        for name, value in observer.counters.items()
                    }
                obs.counter("batch.items.ok")
                _observe_latency(wall, delta)
                flight.heartbeat("item_done", item=item.label, sig=sig,
                                 elapsed_s=round(wall, 3))
                results[item.index] = BatchOutcome(
                    item, "ok", result=result, wall_s=wall
                )
                _progress()

    outcomes: list[BatchOutcome] = []
    for item in items:
        if isinstance(item, BatchOutcome):
            obs.counter("batch.items.error")
            outcomes.append(item)
            continue
        if item.index in aliases:
            primary = results[aliases[item.index]]
            obs.counter("batch.items.deduped")
            outcomes.append(BatchOutcome(
                item, primary.status, result=primary.result,
                error=primary.error, wall_s=0.0,
                duplicate_of=aliases[item.index],
            ))
        else:
            outcomes.append(results[item.index])
    return BatchReport(outcomes, len(unique), len(aliases))


def _fmt_result(outcome: BatchOutcome) -> str:
    if outcome.status != "ok":
        return outcome.error or outcome.status
    result = dict(outcome.result or {})
    result.pop("t", None)
    parts = [f"{k}={v}" for k, v in result.items() if v is not None]
    return " ".join(parts) if parts else "ok"


def render_batch_table(report: BatchReport) -> str:
    """Deterministic summary table (no wall times — byte-identical
    between cold and warm runs of the same manifest)."""
    header = (
        f"{'item':>4} {'kind':<9} {'target':<24} {'array':<8} "
        f"{'status':<8} result"
    )
    lines = [header, "-" * len(header)]
    for outcome in report.outcomes:
        item = outcome.item
        note = (
            f" (= item {outcome.duplicate_of})"
            if outcome.duplicate_of is not None else ""
        )
        lines.append(
            f"{item.index:>4} {item.kind:<9} {str(item.target):<24} "
            f"{str(item.array or '-'):<8} {outcome.status:<8} "
            f"{_fmt_result(outcome)}{note}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{len(report.outcomes)} item(s): {report.unique_items} unique, "
        f"{report.deduped_items} deduped, "
        f"{sum(1 for o in report.outcomes if o.status != 'ok')} failed"
    )
    return "\n".join(lines)
