"""Persistent result store, worker pool, and batch runner.

* :mod:`repro.store.lru` — the bounded LRU cache primitive (also the
  in-memory memo layer of :mod:`repro.transform.search`);
* :mod:`repro.store.store` — content-addressed on-disk records (one
  per whole api answer, hierarchy plan, closed form or sealed run),
  atomic and corruption-tolerant;
* :mod:`repro.store.pool` — the reclaimable worker pool that
  :class:`repro.api.AnalysisService` runs its items on (the package's
  only process pool);
* :mod:`repro.store.batch` — ``repro batch``: a manifest of work items
  run as a loop over one :class:`repro.api.AnalysisService`.
"""

from repro.store.batch import (
    BatchItem,
    BatchOutcome,
    BatchReport,
    load_manifest,
    render_batch_table,
    run_batch,
)
from repro.store.lru import LRUCache
from repro.store.store import (
    DEFAULT_LRU_CAPACITY,
    SCHEMA_VERSION,
    STORE_DIR_ENV,
    STORE_LRU_ENV,
    ResultStore,
    open_store,
)

__all__ = [
    "BatchItem",
    "BatchOutcome",
    "BatchReport",
    "DEFAULT_LRU_CAPACITY",
    "LRUCache",
    "ResultStore",
    "SCHEMA_VERSION",
    "STORE_DIR_ENV",
    "STORE_LRU_ENV",
    "load_manifest",
    "open_store",
    "render_batch_table",
    "run_batch",
]
