"""Store maintenance: the background sync/compaction sweep.

An always-on service leaves the content-addressed store running for
weeks, so the damage one-shot runs could shrug off accumulates: records
torn by a crashed writer (reads treat them as misses forever, burning a
recompute per query until something rewrites them),
``*.tmp.<pid>.<thread>`` droppings from writers that died between write
and rename, and ledger records from before a counter rename that make
``repro runs diff`` noisy.  :func:`compact_store` is the one sweep that
heals all of it:

* walks the sharded ``v<SCHEMA_VERSION>/<kind>/`` layout one record file
  at a time;
* **deletes** records that fail the same validation reads apply —
  unparseable JSON, wrong schema/kind, missing value, or a filename
  that does not match the content address of the embedded key (a
  misfiled record is unreachable by ``get`` and pure dead weight);
* **rewrites** legacy ledger records carrying retired counter
  spellings (:data:`repro.obs.ledger.LEGACY_COUNTERS`) through the
  store's normal atomic write path;
* **removes** stale temp files older than ``tmp_ttl_s`` (live writers
  rename within milliseconds; anything older is an orphan);
* **drops the in-memory LRU front** whenever anything was deleted or
  rewritten, so a hot entry can never resurrect a compacted-away
  record.

Counters: ``store.compact.scanned``, ``store.compact.kept``,
``store.compact.corrupt_deleted``, ``store.compact.legacy_rewritten``,
``store.compact.tmp_removed``.  Runnable standalone via ``repro
store-compact`` and periodically as the server's background task.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.obs import flight
from repro.obs.ledger import LEDGER_KIND, rewrite_legacy_record
from repro.store.store import SCHEMA_VERSION, ResultStore

#: Temp files older than this are orphans of a dead writer (seconds).
DEFAULT_TMP_TTL_S = 3600.0


@dataclass
class CompactionReport:
    """Outcome of one :func:`compact_store` sweep (JSON-ready)."""

    scanned: int = 0
    kept: int = 0
    corrupt_deleted: int = 0
    legacy_rewritten: int = 0
    tmp_removed: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def changed(self) -> bool:
        return bool(
            self.corrupt_deleted or self.legacy_rewritten or self.tmp_removed
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "scanned": self.scanned,
            "kept": self.kept,
            "corrupt_deleted": self.corrupt_deleted,
            "legacy_rewritten": self.legacy_rewritten,
            "tmp_removed": self.tmp_removed,
            "kinds": dict(sorted(self.kinds.items())),
            "wall_s": round(self.wall_s, 6),
        }


def _load_record(path: Path, kind: str, store: ResultStore):
    """The validated record at ``path``, or ``None`` if it must die.

    Applies the read path's checks plus one only a sweep can afford:
    the filename must equal the content address of the embedded key,
    otherwise ``get`` can never reach the record.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(record, dict)
        or record.get("schema") != SCHEMA_VERSION
        or record.get("kind") != kind
        or "key" not in record
        or "value" not in record
    ):
        return None
    try:
        expected = store.record_path(kind, record["key"]).name
    except (TypeError, ValueError):
        return None
    if expected != path.name:
        return None
    return record


def compact_store(
    store: ResultStore,
    tmp_ttl_s: float = DEFAULT_TMP_TTL_S,
) -> CompactionReport:
    """One full compaction sweep of ``store`` (see module docs).

    Safe to run while readers and writers are live: deletions target
    only records no read can ever return, rewrites go through the
    store's atomic ``put``, and concurrent writers' fresh temp files
    are protected by ``tmp_ttl_s``.
    """
    report = CompactionReport()
    started = time.perf_counter()
    base = store.base
    if base.is_dir():
        for kind_dir in sorted(p for p in base.iterdir() if p.is_dir()):
            kind = kind_dir.name
            for path in sorted(kind_dir.glob("*.json")):
                report.scanned += 1
                record = _load_record(path, kind, store)
                if record is None:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    report.corrupt_deleted += 1
                    continue
                if kind == LEDGER_KIND and isinstance(record["value"], dict):
                    rewritten = rewrite_legacy_record(record["value"])
                    if rewritten is not None:
                        store.put(kind, record["key"], rewritten)
                        report.legacy_rewritten += 1
                report.kept += 1
                report.kinds[kind] = report.kinds.get(kind, 0) + 1
        # Orphaned temp files: a live writer renames within
        # milliseconds, so anything older than the TTL is a dead
        # writer's dropping.
        now = time.time()
        for tmp in base.glob("*/*.tmp.*"):
            try:
                if now - tmp.stat().st_mtime >= tmp_ttl_s:
                    tmp.unlink()
                    report.tmp_removed += 1
            except OSError:
                continue
    report.wall_s = time.perf_counter() - started
    if report.changed:
        # Never let the hot LRU resurrect a record the sweep removed
        # (or serve the pre-rewrite body of one it rewrote).
        store.drop_memory()
    for name, value in (
        ("scanned", report.scanned),
        ("kept", report.kept),
        ("corrupt_deleted", report.corrupt_deleted),
        ("legacy_rewritten", report.legacy_rewritten),
        ("tmp_removed", report.tmp_removed),
    ):
        if value:
            obs.counter(f"store.compact.{name}", value)
    flight.heartbeat("compact", **report.as_dict())
    return report


def render_compaction(report: CompactionReport) -> str:
    """Human-readable ``repro store-compact`` summary."""
    lines = [
        f"scanned {report.scanned} records in {report.wall_s:.3f}s "
        f"({report.kept} kept)",
    ]
    for kind, count in sorted(report.kinds.items()):
        lines.append(f"  {kind:<12} {count}")
    lines.append(
        f"deleted {report.corrupt_deleted} corrupt, "
        f"rewrote {report.legacy_rewritten} legacy ledger record(s), "
        f"removed {report.tmp_removed} stale temp file(s)"
    )
    return "\n".join(lines)
