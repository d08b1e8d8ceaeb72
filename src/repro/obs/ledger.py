"""Run ledger: one sealed, content-addressed record per analysis run.

Every CLI run that has a persistence target (the ``--store`` directory,
or ``$REPRO_LEDGER_DIR`` when running storeless) seals exactly one
ledger record at exit — the correlated summary the per-process telemetry
never gave us:

* **identity** — run ID, subcommand + argv, git SHA, every ``REPRO_*``
  env knob, the effective config (workers/store/trace);
* **inputs** — content signatures of every program the run touched;
* **work** — engines used, cascade tier counts, parametric
  derive/fallback counts, batch item outcomes (with timeout
  attributions), full counter and span totals;
* **efficiency** — cache/store hit rates
  (:func:`repro.reporting.metrics.cache_stats`), recorded
  *unconditionally* — the stderr rendering stays behind ``--trace`` /
  ``batch``, but the ledger always carries the numbers;
* **outcome** — exit status, wall/CPU seconds, and a SHA-256 digest of
  everything the run printed to stdout, so two runs can be proven to
  have produced the same answer without keeping their output.

Records reuse the content-addressed result store (kind ``"ledger"``,
keyed by run ID), so `repro runs list/show/diff` reads them through the
same atomic, corruption-tolerant layer as every other artifact.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Mapping

from repro.obs.runctx import RunContext

#: Ledger record schema; bump on any incompatible change.
LEDGER_SCHEMA = 1

#: Store kind under which run records live.
LEDGER_KIND = "ledger"

#: Fallback sink for storeless runs: a result store rooted here.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"


def resolve_sink(store=None):
    """The store ledger records go to: ``store``, else ``$REPRO_LEDGER_DIR``.

    Returns ``None`` when the run has nowhere durable to write — the
    run then simply produces no ledger record (and no heartbeats).
    """
    if store is not None:
        return store
    root = os.environ.get(LEDGER_DIR_ENV)
    if not root:
        return None
    from repro.store import ResultStore

    return ResultStore(root)


def live_dir_for(sink) -> Path | None:
    """Heartbeat directory colocated with the sink's store root."""
    if sink is None:
        return None
    return Path(sink.root) / "live"


# ----------------------------------------------------------------------
# record assembly
# ----------------------------------------------------------------------

#: Counter prefixes folded into named record sections (the rest stay in
#: the full ``counters`` map, which is always recorded verbatim).
_SECTION_PREFIXES = {
    "cascade": "search.cascade.",
    "parametric": "param.",
    "store_io": "store.",
    "batch": "batch.",
}

#: Retired counter spellings -> their canonical names.  PR 7 briefly
#: double-emitted ``batch.items.timeout`` alongside the canonical
#: ``batch.item.timeout``; only the canonical name is emitted now, and
#: old ledger records are normalized on read (and rewritten on disk by
#: ``repro store-compact``) so cross-boundary ``runs diff`` never
#: reports a phantom delta on the dead spelling.
LEGACY_COUNTERS = {
    "batch.items.timeout": "batch.item.timeout",
}


def canonical_counters(counters: Mapping[str, Any]) -> dict[str, int]:
    """Counters with retired spellings folded into canonical names.

    Legacy records bumped *both* spellings for the same event, so a
    collision collapses with ``max`` — summing would double-count every
    timeout recorded across the rename boundary.
    """
    out: dict[str, int] = {}
    for name, value in counters.items():
        name = LEGACY_COUNTERS.get(name, name)
        value = int(value)
        out[name] = max(out[name], value) if name in out else value
    return dict(sorted(out.items()))


def rewrite_legacy_record(record: Mapping[str, Any]) -> dict[str, Any] | None:
    """Canonicalized copy of a ledger record, or ``None`` if already clean.

    Used by the store compaction job to rewrite pre-rename records in
    place: the counter map is canonicalized and every derived counter
    section is rebuilt from it.  Identity fields (run ID, digest,
    timings) are untouched, so the record's store key is unchanged.
    """
    counters = record.get("counters")
    if not isinstance(counters, Mapping) or not any(
        name in LEGACY_COUNTERS for name in counters
    ):
        return None
    out = dict(record)
    out["counters"] = canonical_counters(counters)
    for section, prefix in _SECTION_PREFIXES.items():
        values = _prefixed(out["counters"], prefix)
        if values:
            out[section] = values
        else:
            out.pop(section, None)
    return out


def _prefixed(counters: Mapping[str, int], prefix: str) -> dict[str, int]:
    return {
        name[len(prefix):]: int(value)
        for name, value in counters.items()
        if name.startswith(prefix)
    }


def _engines_used(counters: Mapping[str, int]) -> dict[str, int]:
    """``engine.<name>.calls`` counters -> {engine: calls}."""
    out = {}
    for name, value in counters.items():
        if name.startswith("engine.") and name.endswith(".calls"):
            out[name[len("engine."):-len(".calls")]] = int(value)
    return out


def build_record(
    ctx: RunContext,
    summary: Mapping[str, Any] | None,
    status: int = 0,
    result_digest: str | None = None,
) -> dict[str, Any]:
    """Assemble one run's ledger record (JSON-ready, no I/O)."""
    # Lazy: repro.reporting's package init imports the ledger renderer,
    # which imports this module — a module-level import here would close
    # the cycle.
    from repro.reporting.metrics import cache_stats

    summary = summary or {}
    # Normalize at the source: a new record never carries a retired
    # counter spelling, even if stale code still emits one.
    counters = canonical_counters(summary.get("counters", {}))
    record: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "run": ctx.run_id,
        "command": ctx.command,
        "argv": list(ctx.argv),
        "started_unix": ctx.started_unix,
        "wall_s": round(ctx.wall_s(), 6),
        "cpu_s": round(ctx.cpu_s(), 6),
        "git": ctx.git,
        "env": dict(ctx.env),
        "config": dict(ctx.config),
        "inputs": dict(ctx.inputs),
        "status": int(status),
        "engines": _engines_used(counters),
        "caches": cache_stats(counters),
        "counters": dict(sorted(counters.items())),
        "spans": summary.get("spans", {}),
    }
    for section, prefix in _SECTION_PREFIXES.items():
        values = _prefixed(counters, prefix)
        if values:
            record[section] = values
    if ctx.extras:
        record["extras"] = dict(ctx.extras)
    if result_digest is not None:
        record["result_digest"] = result_digest
    return record


def overall_hit_rate(record: Mapping[str, Any]) -> float:
    """Store + memo hit fraction of all cached-value lookups in a run."""
    counters = record.get("counters", {})
    hits = sum(
        int(counters.get(name, 0))
        for name in (
            "store.mem.hits", "store.disk.hits",
            "search.cache.hits", "search.memo.hits",
        )
    )
    misses = sum(
        int(counters.get(name, 0))
        for name in ("store.misses", "search.cache.misses",
                     "search.memo.misses")
    )
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def seal_run(
    ctx: RunContext,
    summary: Mapping[str, Any] | None,
    sink,
    status: int = 0,
    result_digest: str | None = None,
) -> dict[str, Any] | None:
    """Build the record and persist it under ``(ledger, run_id)``.

    One run seals exactly one record: the key is the run ID, so a
    re-seal (never expected) overwrites rather than duplicates.
    Returns the record, or ``None`` when there is no sink.
    """
    record = build_record(ctx, summary, status=status,
                          result_digest=result_digest)
    if sink is None:
        return None
    sink.put(LEDGER_KIND, {"run": ctx.run_id}, record)
    return record


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------

def list_runs(sink) -> list[dict[str, Any]]:
    """All ledger records in the sink, oldest first."""
    if sink is None:
        return []
    records = [
        value
        for value in sink.iter_records(LEDGER_KIND)
        if isinstance(value, dict) and "run" in value
    ]
    records.sort(key=lambda r: (r.get("started_unix", 0.0), r.get("run", "")))
    return records


def load_run(sink, run: str) -> dict[str, Any] | None:
    """One record by run ID or unique prefix; ``None`` when absent.

    ``run`` may also be ``"last"`` (most recent run) or ``"last~1"``
    (the one before it) — the ``repro runs diff --last`` shorthand.
    """
    records = list_runs(sink)
    if run == "last" or run.startswith("last~"):
        back = 0
        if run.startswith("last~"):
            try:
                back = int(run.split("~", 1)[1])
            except ValueError:
                return None
        return records[-1 - back] if len(records) > back else None
    exact = [r for r in records if r.get("run") == run]
    if exact:
        return exact[-1]
    prefixed = [r for r in records if str(r.get("run", "")).startswith(run)]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        raise ValueError(
            f"run prefix {run!r} is ambiguous: "
            + ", ".join(str(r["run"]) for r in prefixed)
        )
    return None


# ----------------------------------------------------------------------
# stdout digest tee
# ----------------------------------------------------------------------

class DigestTee:
    """File-like wrapper hashing everything written through it.

    Wraps ``sys.stdout`` for the duration of a run so the ledger can
    record a SHA-256 of the run's visible output without buffering it.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        self._hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self._hash.update(text.encode("utf-8", errors="replace"))
        return self._stream.write(text)

    def flush(self) -> None:
        self._stream.flush()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    @property
    def wrapped(self):
        return self._stream

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def heartbeat_run_end(status: int) -> None:
    """Terminal heartbeat so live viewers know the run is over."""
    from repro.obs import flight

    flight.heartbeat("run_end", status=int(status))
