"""Concurrent access to the result store (ISSUE 10, satellite S4).

The store's crash-safety story is ``os.replace`` atomicity plus
corrupt-reads-are-misses.  These tests pin the racy shapes the service
exercises daily: two processes writing the same key, threads of one
process writing the same key, a reader racing the compaction sweep, and
the LRU front never resurrecting a record compaction removed.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro import obs
from repro.store import ResultStore
from repro.store.maintenance import compact_store

KIND = "concurrency"
KEY = {"kernel": "2point", "probe": "same-key"}


@pytest.fixture
def observer():
    observer = obs.enable()
    try:
        yield observer
    finally:
        obs.disable()


def _writer_reader(root: str, tag: str, iterations: int) -> dict:
    """Hammer one key with writes while validating interleaved reads.

    Runs in a child process; returns its own corruption observations
    (child counters are invisible to the parent's observer).
    """
    observer = obs.enable()
    store = ResultStore(root)
    torn = 0
    for i in range(iterations):
        store.put(KIND, KEY, {"tag": tag, "i": i})
        store.drop_memory()  # force every read through the disk path
        value = store.get(KIND, KEY)
        if not (isinstance(value, dict) and value.get("tag") in ("a", "b")):
            torn += 1
    return {
        "torn": torn,
        "corrupt": observer.counters.get("store.corrupt", 0),
    }


class TestTwoProcessSameKey:
    def test_last_writer_wins_no_torn_reads(self, tmp_path, observer):
        iterations = 60
        with ProcessPoolExecutor(
            max_workers=2, mp_context=get_context("spawn")
        ) as pool:
            futures = [
                pool.submit(_writer_reader, str(tmp_path), tag, iterations)
                for tag in ("a", "b")
            ]
            reports = [future.result(timeout=120) for future in futures]
        for report in reports:
            # os.replace is atomic: a concurrent reader sees the old
            # record or the new one, never a torn or half-written file.
            assert report["torn"] == 0
            assert report["corrupt"] == 0
        # Exactly one record on disk, and it is one writer's final word.
        store = ResultStore(tmp_path)
        value = store.get(KIND, KEY)
        assert value == {"tag": value["tag"], "i": iterations - 1}
        assert store.record_count() == 1
        assert observer.counters.get("store.corrupt", 0) == 0
        # The surviving file is intact canonical JSON.
        record = json.loads(
            store.record_path(KIND, KEY).read_text(encoding="utf-8")
        )
        assert record["value"] == value


class TestThreadsSameKey:
    def test_threads_of_one_process_never_share_a_temp_file(
        self, tmp_path, observer
    ):
        """``repro serve --workers 0`` writes from its executor threads;
        a per-process temp name let one thread's ``os.replace`` move
        another's file away (``FileNotFoundError``)."""
        store = ResultStore(tmp_path)
        failures: list[BaseException] = []
        start = threading.Barrier(4)

        def writer(tag: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(300):
                    store.put(KIND, KEY, {"tag": tag, "i": i})
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(tag,))
                for tag in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        store.drop_memory()
        value = store.get(KIND, KEY)
        assert value == {"tag": value["tag"], "i": 299}
        assert store.record_count() == 1
        assert not list(store.base.glob("*/*.tmp.*"))
        assert observer.counters.get("store.corrupt", 0) == 0


class TestReaderVsCompaction:
    def test_reader_survives_compaction_deleting_corrupt_record(
        self, tmp_path, observer
    ):
        store = ResultStore(tmp_path)
        store.put(KIND, {"keep": True}, {"ok": 1})
        corrupt_path = store.record_path(KIND, KEY)
        corrupt_path.parent.mkdir(parents=True, exist_ok=True)
        corrupt_path.write_text("{truncated", encoding="utf-8")

        reader = ResultStore(tmp_path)  # separate LRU front, same disk
        stop = threading.Event()
        failures: list[BaseException] = []

        def hammer():
            try:
                while not stop.is_set():
                    # Both keys: one being deleted under us, one stable.
                    assert reader.get(KIND, KEY) is None
                    reader.drop_memory()
                    value = reader.get(KIND, {"keep": True})
                    assert value in (None, {"ok": 1})
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            report = compact_store(store)
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not failures, failures
        assert report.corrupt_deleted == 1
        assert report.kept == 1
        assert not corrupt_path.exists()
        # The stable record is still served after the sweep.
        assert reader.get(KIND, {"keep": True}) == {"ok": 1}


class TestLRUNeverResurrects:
    def test_compacted_record_is_gone_even_when_lru_was_warm(
        self, tmp_path, observer
    ):
        store = ResultStore(tmp_path)
        store.put(KIND, KEY, {"tag": "warm"})
        assert store.get(KIND, KEY) == {"tag": "warm"}  # LRU is hot
        # The disk copy rots; compaction removes it and must also drop
        # the in-memory front, or the store would keep serving a value
        # that no longer exists on disk.
        store.record_path(KIND, KEY).write_text("garbage", encoding="utf-8")
        report = compact_store(store)
        assert report.corrupt_deleted == 1
        assert store.get(KIND, KEY) is None

    def test_unchanged_sweep_keeps_lru_warm(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        store.put(KIND, KEY, {"tag": "warm"})
        assert store.get(KIND, KEY) == {"tag": "warm"}
        before = observer.counters.get("store.mem.hits", 0)
        report = compact_store(store)
        assert not report.changed
        assert store.get(KIND, KEY) == {"tag": "warm"}
        assert observer.counters["store.mem.hits"] == before + 1
