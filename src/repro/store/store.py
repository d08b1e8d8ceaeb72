"""Persistent, content-addressed result store.

Every api answer is a pure function of ``Program.signature()`` and the
knobs its kind reads, so — like the reuse profiles AutoLALA and the
static estimators treat as cacheable artifacts keyed by the loop nest —
it can be persisted once and served to every later process.  The
record kinds are ``answer`` (one whole api response, keyed by
:func:`repro.api.answer_key`, written only by
:func:`repro.transform.search.cached_search` and read there and by
:class:`repro.api.AnalysisService` before its pool), ``hierarchy`` (a
joint hierarchy plan, read and written only by ``cached_search``),
``parametric`` (a derived closed form of a program family) and
``ledger`` (a sealed run).  The store maps

    (record kind, key)  ->  JSON value

as one atomic record file per key under a versioned root::

    <root>/v<SCHEMA_VERSION>/<kind>/<sha256(key)[:32]>.json

Properties:

* **Atomic writes.**  Records are written to a same-directory temp file
  named for the writing process and thread, and ``os.replace``d into
  place, so readers never observe a torn record and concurrent writers
  of the same key — processes or threads — are last-writer-wins (both
  wrote the same pure value anyway).
* **Schema-version stamping.**  Every record carries ``schema`` and
  echoes its ``kind`` and ``key``; the root is versioned (``v2``) so a
  layout change, or a fix that changes answers, never serves old
  records.
* **Corruption-tolerant reads.**  A truncated, garbage, wrong-schema,
  or hash-colliding record is a *miss* (counted under
  ``store.corrupt``), never a crash — the caller recomputes and the
  rewrite heals the record.
* **Bounded in-memory LRU front** (``REPRO_STORE_LRU`` entries) so a
  hot loop does not re-read JSON from disk.

Counters: ``store.mem.hits``, ``store.disk.hits``, ``store.misses``,
``store.writes``, ``store.corrupt``, ``store.mem.evictions``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

from repro import obs
from repro.envutil import env_int
from repro.store.lru import LRUCache

#: Record/layout schema version; bump on any incompatible change, and
#: on any fix that changes an answer, so that stale records are never
#: served.  2: element ids past int64 raise instead of wrapping (a
#: ``v1`` store may hold windows computed from wrapped ids).  3: legality
#: reads the exact in-bounds dependence set (a ``v2`` store may hold
#: ``optimize``, ``search`` and ``hierarchy`` answers whose order
#: reverses a dependence).
SCHEMA_VERSION = 3

#: Environment variable naming the store root directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Environment variable overriding the in-memory LRU capacity.
STORE_LRU_ENV = "REPRO_STORE_LRU"

#: Default in-memory front size (records are small decoded JSON values).
DEFAULT_LRU_CAPACITY = 4096


def _canonical(key: Any) -> str:
    """Deterministic JSON encoding of a key (dict order irrelevant)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """One on-disk result store rooted at ``root`` (see module docs)."""

    def __init__(self, root: str | Path, lru_capacity: int | None = None) -> None:
        self.root = Path(root)
        self.base = self.root / f"v{SCHEMA_VERSION}"
        if lru_capacity is None:
            lru_capacity = env_int(STORE_LRU_ENV, DEFAULT_LRU_CAPACITY)
        self._lru = LRUCache(lru_capacity, counter="store.mem")

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def record_path(self, kind: str, key: Any) -> Path:
        digest = hashlib.sha256(_canonical(key).encode()).hexdigest()[:32]
        return self.base / kind / f"{digest}.json"

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(self, kind: str, key: Any) -> Any:
        """Stored value for ``(kind, key)``, or ``None`` on any miss."""
        ckey = (kind, _canonical(key))
        hit = self._lru.get(ckey, _MISS)
        if hit is not _MISS:
            obs.counter("store.mem.hits")
            return hit
        path = self.record_path(kind, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            obs.counter("store.misses")
            return None
        try:
            record = json.loads(text)
            if (
                not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("kind") != kind
                or _canonical(record.get("key")) != ckey[1]
                or "value" not in record
            ):
                raise ValueError("malformed record")
        except (ValueError, TypeError):
            # Truncated/garbage/hash-collision record: a miss, not a
            # crash.  Leave the file; the recompute's write heals it.
            obs.counter("store.corrupt")
            obs.counter("store.misses")
            return None
        value = record["value"]
        obs.counter("store.disk.hits")
        self._lru.put(ckey, value)
        return value

    def put(self, kind: str, key: Any, value: Any) -> Path:
        """Atomically persist ``value`` under ``(kind, key)``.

        When a run context is active (:mod:`repro.obs.runctx`) the
        record is stamped with the writing run's ID, so a store can be
        audited record-by-record against the run ledger.  The stamp is
        provenance only — reads ignore it, and it does not participate
        in the content address.
        """
        path = self.record_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "value": value,
        }
        run_id = obs.runctx.current_run_id()
        if run_id is not None:
            record["run"] = run_id
        # One temp file per writing thread: a shared name would let one
        # writer's os.replace move another's file away mid-write.
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        tmp.write_text(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        obs.counter("store.writes")
        self._lru.put((kind, _canonical(key)), value)
        return path

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------
    def drop_memory(self) -> None:
        """Forget the in-memory front (disk records stay)."""
        self._lru.clear()

    def record_count(self) -> int:
        """Number of records on disk (walks the store; diagnostics only)."""
        if not self.base.exists():
            return 0
        return sum(1 for _ in self.base.glob("*/*.json"))

    def iter_records(self, kind: str):
        """Yield every stored value of one kind (walks the store).

        Uses the same validation as :meth:`get` minus the key check (the
        caller does not know the keys); corrupt files are skipped and
        counted under ``store.corrupt``.  Diagnostics/read-side only —
        the hot path never enumerates.
        """
        directory = self.base / kind
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                obs.counter("store.corrupt")
                continue
            if (
                not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("kind") != kind
                or "value" not in record
            ):
                obs.counter("store.corrupt")
                continue
            yield record["value"]

    def __reduce__(self):
        # Pickle as (root, capacity): worker processes re-open the same
        # on-disk store with a fresh (empty) in-memory front.
        return (ResultStore, (str(self.root), self._lru.capacity))


#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


def open_store(
    root: str | Path | None = None, lru_capacity: int | None = None
) -> ResultStore | None:
    """Open the store at ``root``, or at ``$REPRO_STORE_DIR`` when
    ``root`` is omitted; ``None`` when neither names a directory."""
    if root is None:
        root = os.environ.get(STORE_DIR_ENV) or None
    if root is None:
        return None
    return ResultStore(root, lru_capacity=lru_capacity)
