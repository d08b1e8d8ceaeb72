"""``repro batch``: a manifest of work items run through one
:class:`repro.api.AnalysisService`.

``repro batch manifest.json`` reads a JSON manifest of work items, turns
each into a service request, dedups identical work, runs the unique
items through the service — inline, or on its reclaimable worker pool
with per-item timeouts — and emits a deterministic summary table plus
obs metrics.  Failures degrade gracefully: an item that is malformed,
raises, or times out is reported in the table with its error, never
fatal to the batch.

Manifest format — a JSON list (or ``{"items": [...]}``) of objects in
the request format of :func:`repro.api.build_request`, whose ``kind``
defaults to ``optimize`` here::

    {"kind": "optimize", "kernel": "sor"}
    {"kind": "search",   "file": "examples/ex8.loop", "array": "A"}
    {"kind": "mws",      "kernel": "matmult"}

``kind`` is one of:

* ``optimize``  — full program-level optimization (a Figure-2 row),
* ``search``    — per-array best-transformation search,
* ``mws``       — exact MWS of the native order (``array`` optional; the
  program total when omitted),
* ``analyze``   — footprints plus exact windows for every array,
* ``hierarchy`` — tier-stack sizing against a ``preset`` (default ``tcm``),
* ``param``     — closed-form MWS/distinct expressions in the bounds.

The target is exactly one of ``kernel`` (a Figure-2 kernel name),
``file`` (a loop-nest source file) or ``source`` (inline loop-nest
text).  With a :class:`repro.store.ResultStore` attached, every item's
whole answer is one record, so a warm re-run of the same manifest is a
few record reads; item latencies are recorded in the
``batch.latency.warm_s`` / ``batch.latency.cold_s`` histograms, and the
summary table is byte-identical between cold and warm runs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import obs
from repro.obs import flight
from repro.ir.program import Program

if TYPE_CHECKING:
    from repro.api import AnalysisRequest, AnalysisResponse


@dataclass(frozen=True)
class BatchItem:
    """One manifest entry: its request and resolved program (``None``
    where the entry did not validate or its program did not resolve)."""

    index: int
    request: AnalysisRequest | None = None
    program: Program | None = None

    @property
    def kind(self) -> str:
        return "?" if self.request is None else self.request.kind

    @property
    def target(self) -> str:
        return "?" if self.request is None else self.request.target

    @property
    def array(self) -> str | None:
        return None if self.request is None else self.request.array


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


def run_batch(
    entries: Sequence[Any],
    store=None,
    workers: int | None = 0,
    timeout: float | None = None,
    evaluator: Callable[..., dict] | None = None,
) -> BatchReport:
    """Evaluate manifest ``entries`` on one service; never raises on a
    bad *item*.

    Malformed entries (unknown kind, missing target, unknown kernel)
    become ``error`` outcomes.  Identical work — the same
    :func:`repro.api.answer_key`: kind, program signature and the knobs
    that kind reads — is evaluated once and aliased (``duplicate_of``).
    ``workers=0`` runs the unique items inline
    through :meth:`~repro.api.AnalysisService.evaluate`; ``workers >= 1``
    submits them from ``workers`` driver threads to the service's
    reclaimable pool, where an item outliving ``timeout`` seconds is
    reported as ``timeout`` and its worker is killed and respawned
    (``batch.worker.reclaimed``), so the rest of the batch completes on
    a full-strength pool.  An inline item cannot be preempted, so a
    ``timeout`` with ``workers=0`` raises ``ValueError``.
    ``evaluator`` (tests only) replaces
    :func:`repro.api.compute_answer` and must be module-level to pickle.
    """
    # Lazy: repro.api imports the worker pool from this package, whose
    # __init__ imports this module.
    from repro.api import AnalysisService, answer_key, build_request

    with AnalysisService(
        store=store, workers=workers, timeout=timeout
    ) as service:
        items: list[BatchItem] = []
        results: dict[int, BatchOutcome] = {}
        for index, entry in enumerate(entries):
            request = None
            try:
                request = build_request(
                    {"kind": "optimize", **entry}
                    if isinstance(entry, Mapping) else entry
                )
                program = service.resolve_program(request)
            except Exception as exc:  # degrade, don't abort
                item = BatchItem(index, request)
                obs.counter("batch.items.error")
                results[index] = BatchOutcome(
                    item, "error", error=f"{type(exc).__name__}: {exc}"
                )
            else:
                item = BatchItem(index, request, program)
            items.append(item)
        failed = len(results)

        # Dedup on the answer's own key: every field that changes it.
        primaries: dict[tuple, int] = {}
        aliases: dict[int, int] = {}
        unique: list[BatchItem] = []
        for item in items:
            if item.program is None:
                continue
            request = item.request
            key = tuple(answer_key(
                request.kind, item.program, request.array, request.preset
            ).items())
            if key in primaries:
                aliases[item.index] = primaries[key]
            else:
                primaries[key] = item.index
                unique.append(item)

        batch_t0 = time.perf_counter()

        def finish(item: BatchItem, response: AnalysisResponse) -> None:
            results[item.index] = BatchOutcome(
                item, response.status, result=response.result,
                error=response.error, wall_s=response.wall_s,
            )
            done = len(results) - failed
            elapsed = time.perf_counter() - batch_t0
            flight.heartbeat(
                "batch_progress", done=done, total=len(unique),
                eta_s=round(elapsed / done * (len(unique) - done), 1),
            )

        with obs.span("batch", items=len(items), unique=len(unique),
                      workers=service.workers):
            if service.workers == 0:
                for item in unique:
                    finish(item, service.evaluate(
                        item.request, evaluator, item.program
                    ))
            else:
                # One driver thread per pool slot, as the HTTP server
                # drives the service; completions are handled here.
                with ThreadPoolExecutor(max_workers=service.workers) as threads:
                    futures = {
                        threads.submit(
                            service.submit, item.request,
                            evaluator=evaluator, program=item.program,
                        ): item
                        for item in unique
                    }
                    for future in as_completed(futures):
                        finish(futures[future], future.result())

    outcomes: list[BatchOutcome] = []
    for item in items:
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
