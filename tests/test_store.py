"""The bounded LRU, the persistent result store, and its search wiring.

Covers LRU eviction order + bounded size under key churn (with the
eviction counter), record roundtrips, memory-vs-disk hit accounting,
corruption tolerance (a truncated, garbage, or wrong-schema record is a
counted miss, never a crash), the one whole-result cache, and a warm
``optimize`` answer being one record read with identical results.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.api import answer_key, evaluate_kind
from repro.ir import parse_program
from repro.store import (
    DEFAULT_LRU_CAPACITY,
    LRUCache,
    ResultStore,
    SCHEMA_VERSION,
    STORE_DIR_ENV,
    open_store,
)
from repro.transform import journal
from repro.transform.search import (
    cached_search,
    clear_exact_cache,
    search_mws_2d,
)

EXAMPLE = """
for i = 1 to 10 {
  for j = 1 to 10 {
    X[i + j] = X[i + j - 1] + X[i + j]
  }
}
"""


@pytest.fixture
def observer():
    observer = obs.enable()
    try:
        yield observer
    finally:
        obs.disable()


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update in place, "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache
        assert len(cache) == 2

    def test_bounded_under_key_churn(self):
        cache = LRUCache(8)
        for k in range(1000):
            cache.put(k, k)
        assert len(cache) == 8
        assert cache.evictions == 992
        # The survivors are exactly the 8 most recent keys, oldest first.
        assert list(cache) == list(range(992, 1000))

    def test_eviction_counter_reported_to_obs(self, observer):
        cache = LRUCache(2, counter="test.lru")
        for k in range(5):
            cache.put(k, k)
        assert observer.counters["test.lru.evictions"] == 3
        assert cache.evictions == 3

    def test_clear_keeps_lifetime_eviction_count(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_get_miss_returns_default(self):
        cache = LRUCache(4)
        assert cache.get("nope") is None
        assert cache.get("nope", 7) == 7

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            LRUCache(0)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = {"sig": "abc", "array": "X", "t": [[1, 0], [0, 1]]}
        store.put("exact", key, 42)
        assert store.get("exact", key) == 42
        assert store.record_count() == 1

    def test_key_dict_order_is_irrelevant(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("exact", {"a": 1, "b": 2}, "v")
        assert store.get("exact", {"b": 2, "a": 1}) == "v"
        assert store.record_count() == 1

    def test_mem_vs_disk_hits(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        store.put("exact", {"k": 1}, 7)
        assert store.get("exact", {"k": 1}) == 7  # LRU front
        store.drop_memory()
        assert store.get("exact", {"k": 1}) == 7  # disk read
        assert store.get("exact", {"k": 1}) == 7  # back in the front
        assert observer.counters["store.mem.hits"] == 2
        assert observer.counters["store.disk.hits"] == 1
        assert observer.counters["store.writes"] == 1
        assert "store.misses" not in observer.counters

    def test_absent_record_is_a_counted_miss(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        assert store.get("exact", {"k": "absent"}) is None
        assert observer.counters["store.misses"] == 1
        assert "store.corrupt" not in observer.counters

    @pytest.mark.parametrize(
        "corruption",
        [
            "",  # empty file
            f'{{"schema": {SCHEMA_VERSION}, "kind": "exact", "key"',  # truncated
            "not json at all \x00\xff",  # garbage
            '{"schema": 999, "kind": "exact", "key": {"k": 1}, "value": 7}',
            f'{{"schema": {SCHEMA_VERSION}, "kind": "other", "key": {{"k": 1}}, '
            '"value": 7}',
            f'{{"schema": {SCHEMA_VERSION}, "kind": "exact", "key": {{"k": 2}}, '
            '"value": 7}',
            f'{{"schema": {SCHEMA_VERSION}, "kind": "exact", "key": {{"k": 1}}}}',
            "[1, 2, 3]",  # not an object
        ],
        ids=[
            "empty", "truncated", "garbage", "wrong-schema", "wrong-kind",
            "wrong-key", "missing-value", "non-object",
        ],
    )
    def test_corrupt_record_degrades_to_miss(self, tmp_path, observer, corruption):
        store = ResultStore(tmp_path)
        key = {"k": 1}
        path = store.record_path("exact", key)
        path.parent.mkdir(parents=True)
        path.write_text(corruption, encoding="utf-8")
        assert store.get("exact", key) is None
        assert observer.counters["store.corrupt"] == 1
        assert observer.counters["store.misses"] == 1
        # The recompute's write heals the record.
        store.put("exact", key, 42)
        store.drop_memory()
        assert store.get("exact", key) == 42

    def test_records_of_an_older_schema_are_never_served(
        self, tmp_path, monkeypatch
    ):
        """A schema bump retires every record written before it: v1
        stores may hold windows computed from wrapped int64 element ids."""
        import repro.store.store as store_module

        monkeypatch.setattr(store_module, "SCHEMA_VERSION", 1)
        ResultStore(tmp_path).put("exact", {"k": 1}, 2)
        monkeypatch.undo()
        assert SCHEMA_VERSION >= 2
        assert ResultStore(tmp_path).get("exact", {"k": 1}) is None

    def test_records_are_schema_stamped(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("exact", {"k": 1}, 7)
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "exact"
        assert record["key"] == {"k": 1}
        assert record["value"] == 7
        assert path.parent.parent == tmp_path / f"v{SCHEMA_VERSION}"

    def test_memory_front_is_bounded(self, tmp_path, observer):
        store = ResultStore(tmp_path, lru_capacity=4)
        for k in range(10):
            store.put("exact", {"k": k}, k)
        assert observer.counters["store.mem.evictions"] == 6
        # Evicted entries are still served from disk.
        assert store.get("exact", {"k": 0}) == 0
        assert observer.counters["store.disk.hits"] == 1

    def test_pickles_as_root_and_capacity(self, tmp_path):
        store = ResultStore(tmp_path, lru_capacity=9)
        store.put("exact", {"k": 1}, 7)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone._lru.capacity == 9
        assert len(clone._lru) == 0  # fresh front in the worker
        assert clone.get("exact", {"k": 1}) == 7

    def test_open_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert open_store() is None
        assert open_store(tmp_path).root == tmp_path
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env"))
        assert open_store().root == tmp_path / "env"

    def test_default_lru_capacity_env_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_LRU", raising=False)
        assert ResultStore(tmp_path)._lru.capacity == DEFAULT_LRU_CAPACITY
        monkeypatch.setenv("REPRO_STORE_LRU", "16")
        assert ResultStore(tmp_path)._lru.capacity == 16
        monkeypatch.setenv("REPRO_STORE_LRU", "zero")
        with pytest.raises(ValueError, match="REPRO_STORE_LRU"):
            ResultStore(tmp_path)


class TestSearchStoreWiring:
    def test_store_is_optional(self):
        program = parse_program(EXAMPLE)
        clear_exact_cache()
        no_store = search_mws_2d(program, "X")
        assert no_store.exact_mws is not None

    def test_search_memo_miss_counter(self, observer):
        program = parse_program(EXAMPLE)
        clear_exact_cache()
        search_mws_2d(program, "X")
        assert observer.counters["search.memo.misses"] >= 1
        misses = observer.counters["search.memo.misses"]
        search_mws_2d(program, "X")
        assert observer.counters["search.memo.hits"] >= 1
        assert observer.counters["search.memo.misses"] == misses


class TestCachedSearch:
    """The one whole-result cache behind every search."""

    KEY = {"sig": "abc", "knob": 1}

    @staticmethod
    def _decode(value):
        if not isinstance(value, int):
            obs.counter("store.corrupt")
            return None
        return value

    def _search(self, store, computed: list):
        def compute():
            computed.append(1)
            return 42

        return cached_search(
            "test", self.KEY, store, compute, lambda v: v, self._decode
        )

    def test_memo_then_store_then_compute(self, tmp_path, observer):
        store = ResultStore(tmp_path)
        computed: list = []
        clear_exact_cache()
        assert self._search(store, computed) == 42
        assert self._search(store, computed) == 42
        assert observer.counters["search.memo.hits"] == 1
        clear_exact_cache()
        store.drop_memory()
        assert self._search(store, computed) == 42
        assert observer.counters["store.disk.hits"] == 1
        assert len(computed) == 1

    def test_undecodable_payload_is_a_counted_miss_and_heals(
        self, tmp_path, observer
    ):
        store = ResultStore(tmp_path)
        store.put("test", self.KEY, "junk")
        computed: list = []
        clear_exact_cache()
        assert self._search(store, computed) == 42
        assert observer.counters["store.corrupt"] == 1
        assert store.get("test", self.KEY) == 42  # the recompute healed it
        assert len(computed) == 1

    def test_active_journal_skips_both_layers(self, tmp_path):
        computed: list = []
        clear_exact_cache()
        self._search(ResultStore(tmp_path / "warm"), computed)
        fresh = ResultStore(tmp_path / "fresh")
        journal.enable()
        try:
            self._search(fresh, computed)  # the warm memo is not read
            clear_exact_cache()
            self._search(fresh, computed)  # nor is anything written
        finally:
            journal.disable()
        assert fresh.record_count() == 0
        self._search(fresh, computed)
        assert len(computed) == 4


class TestWarmOptimize:
    def test_warm_store_answers_without_engine_or_cascade(
        self, tmp_path, observer
    ):
        """A warm ``optimize`` reads one whole-answer record: it lists
        no candidates and runs no cascade or window engine."""
        from repro.kernels import kernel_by_name

        program = kernel_by_name("sor").build()
        clear_exact_cache()
        cold = evaluate_kind("optimize", program, store=ResultStore(tmp_path))
        clear_exact_cache()
        observer.counters.clear()
        warm = evaluate_kind("optimize", program, store=ResultStore(tmp_path))
        assert warm == cold
        assert observer.counters["store.disk.hits"] == 1
        touched = [
            name for name, value in observer.counters.items()
            if value and (
                name.startswith(("engine.", "search.cascade.", "optimize."))
                or name == "batch.candidates"
            )
        ]
        assert touched == []

    def test_undecodable_record_is_a_counted_miss_and_heals(
        self, tmp_path, observer
    ):
        program = parse_program(EXAMPLE)
        clear_exact_cache()
        want = evaluate_kind("optimize", program)
        store = ResultStore(tmp_path)
        key = answer_key("optimize", program)
        store.put("answer", key, {"t": "junk"})
        clear_exact_cache()
        observer.counters.clear()
        assert evaluate_kind("optimize", program, store=store) == want
        assert observer.counters["store.corrupt"] == 1
        assert observer.counters["optimize.candidates"] > 0  # recomputed
        store.drop_memory()
        assert json.loads(store.get("answer", key)) == want

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "store"])
    def test_hit_answers_with_the_callers_name(self, tmp_path, memo):
        store = ResultStore(tmp_path)
        clear_exact_cache()
        first = parse_program(EXAMPLE, name="first")
        second = parse_program(EXAMPLE, name="second")
        answers = [evaluate_kind("optimize", first, store=store),
                   evaluate_kind("analyze", first, store=store)]
        if not memo:
            clear_exact_cache()
            store.drop_memory()
        again = [evaluate_kind("optimize", second, store=store),
                 evaluate_kind("analyze", second, store=store)]
        assert answers[1]["program"] == "first"
        assert again[1]["program"] == "second"
        assert again == [answers[0], {**answers[1], "program": "second"}]
