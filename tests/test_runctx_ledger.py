"""Run ledger + run context (ISSUE 7 tentpole): one correlated record
per analysis run.

Covers the context lifecycle and worker propagation
(:mod:`repro.obs.runctx`), record assembly and the store-backed
read/write sides (:mod:`repro.obs.ledger`), the flight recorder
(:mod:`repro.obs.flight`), and the acceptance criteria: a cold and a
warm ``repro optimize`` each seal exactly one record, ``diff_runs``
attributes the warm speedup to store/cache hits, and the record's
counters reconcile with the search journal — serial and parallel.
"""

from __future__ import annotations

import hashlib
import io
import json
import time

import pytest

from repro import obs
from repro.obs import flight, runctx
from repro.obs import ledger
from repro.obs.ledger import DigestTee, overall_hit_rate
from repro.reporting import diff_runs, render_run_diff
from repro.reporting.journal import reconcile
from repro.store import SCHEMA_VERSION, ResultStore
from repro.transform import journal
from repro.transform.search import (
    clear_exact_cache,
    search_best_transformation,
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    runctx.end_run()
    obs.disable()
    journal.disable()
    clear_exact_cache()
    yield
    runctx.end_run()
    obs.disable()
    journal.disable()
    clear_exact_cache()


LOOP = (
    "for i = 1 to 20 {\n"
    "  for j = 1 to 12 {\n"
    "    A[2*i + 3*j] = A[2*i + 3*j - 5] + 1\n"
    "  }\n"
    "}\n"
)


def _loop_file(tmp_path):
    path = tmp_path / "nest.loop"
    path.write_text(LOOP, encoding="utf-8")
    return path


def _ledger_files(store_dir):
    base = store_dir / f"v{SCHEMA_VERSION}"
    return sorted((base / ledger.LEDGER_KIND).glob("*.json"))


# ----------------------------------------------------------------------
# run context
# ----------------------------------------------------------------------

class TestRunContext:
    def test_begin_end_lifecycle(self):
        assert runctx.current() is None
        ctx = runctx.begin_run("optimize", argv=["optimize", "x.loop"])
        assert runctx.current() is ctx
        assert runctx.current_run_id() == ctx.run_id
        assert runctx.end_run() is ctx
        assert runctx.current() is None
        assert runctx.current_run_id() is None

    def test_run_ids_are_sortable_and_unique(self):
        a = runctx.new_run_id(now=1_700_000_000.0)
        b = runctx.new_run_id(now=1_700_000_060.0)
        assert a.split("-")[:2] < b.split("-")[:2]
        assert runctx.new_run_id() != runctx.new_run_id()

    def test_note_input_keeps_first_signature(self):
        ctx = runctx.begin_run("analyze")
        runctx.note_input("sor", "sig-1")
        runctx.note_input("sor", "sig-other")
        runctx.note_input("matmult", "sig-2")
        assert ctx.inputs == {"sor": "sig-1", "matmult": "sig-2"}

    def test_annotate_accumulates_lists(self):
        ctx = runctx.begin_run("batch")
        runctx.annotate("timeouts", {"item": "#1"})
        runctx.annotate("timeouts", {"item": "#4"})
        assert ctx.extras["timeouts"] == [{"item": "#1"}, {"item": "#4"}]

    def test_module_helpers_are_noops_when_idle(self):
        runctx.note_input("sor", "sig")  # must not raise
        runctx.annotate("k", "v")
        assert runctx.current() is None

    def test_env_knobs_snapshot(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS_TEST", "3")
        monkeypatch.setenv("BENCH_KNOB_TEST", "x")
        monkeypatch.setenv("UNRELATED", "nope")
        knobs = runctx.env_knobs()
        assert knobs["REPRO_WORKERS_TEST"] == "3"
        assert knobs["BENCH_KNOB_TEST"] == "x"
        assert "UNRELATED" not in knobs

    def test_worker_state_roundtrip(self, tmp_path):
        parent = runctx.begin_run("batch", live_dir=tmp_path / "live")
        state = runctx.worker_state()
        assert state == {
            "run_id": parent.run_id,
            "command": "batch",
            "live_dir": str(tmp_path / "live"),
        }
        json.dumps(state)  # picklable/plain data
        runctx.end_run()
        runctx.restore_worker(state)
        child = runctx.current()
        assert child.run_id == parent.run_id
        assert child.live_path == parent.live_path
        # Workers never re-derive identity: cheap, deterministic.
        assert child.env == {} and child.git is None
        runctx.restore_worker(None)
        assert runctx.current() is None

    def test_worker_state_none_without_context(self):
        assert runctx.worker_state() is None


class TestObserverRunStamp:
    def test_summary_carries_run_id_under_context(self):
        ctx = runctx.begin_run("optimize")
        observer = obs.enable()
        obs.counter("x")
        assert observer.summary()["run"] == ctx.run_id

    def test_summary_unstamped_without_context(self):
        observer = obs.enable()
        obs.counter("x")
        assert "run" not in observer.summary()

    def test_journal_adopts_run_id(self):
        ctx = runctx.begin_run("explain")
        jr = journal.enable()
        assert jr.run_id == ctx.run_id


# ----------------------------------------------------------------------
# record assembly + sealing
# ----------------------------------------------------------------------

def _ctx(run_id="20250101-000000-aaaaaa", command="optimize", **kwargs):
    kwargs.setdefault("env", {})
    kwargs.setdefault("git", None)
    return runctx.RunContext(run_id=run_id, command=command, **kwargs)


class TestBuildRecord:
    def test_sections_engines_and_unconditional_caches(self):
        ctx = _ctx(argv=("optimize", "x.loop"))
        ctx.note_input("nest", "sig-abc")
        ctx.annotate("timeouts", {"item": "#1"})
        summary = {
            "counters": {
                "engine.fast.calls": 3,
                "engine.streaming.calls": 1,
                "search.cascade.pruned": 7,
                "store.misses": 2,
                "batch.items.ok": 4,
                "param.derived": 1,
            },
            "spans": {"pipeline.analyze": {"count": 1, "total_s": 0.5}},
        }
        record = ledger.build_record(ctx, summary, status=0,
                                     result_digest="d" * 64)
        assert record["schema"] == ledger.LEDGER_SCHEMA
        assert record["run"] == ctx.run_id
        assert record["engines"] == {"fast": 3, "streaming": 1}
        assert record["cascade"] == {"pruned": 7}
        assert record["store_io"] == {"misses": 2}
        assert record["batch"] == {"items.ok": 4}
        assert record["parametric"] == {"derived": 1}
        assert record["inputs"] == {"nest": "sig-abc"}
        assert record["extras"]["timeouts"] == [{"item": "#1"}]
        assert record["result_digest"] == "d" * 64
        # Satellite: cache stats always in the ledger, even though the
        # stderr rendering stays behind --trace / batch.
        assert isinstance(record["caches"], list)
        assert record["spans"] == summary["spans"]
        json.dumps(record)  # JSON-ready, no exotic types

    def test_empty_summary_still_builds(self):
        record = ledger.build_record(_ctx(), None, status=1)
        assert record["status"] == 1
        assert record["counters"] == {}
        assert record["engines"] == {}
        assert "caches" in record
        assert "result_digest" not in record

    def test_overall_hit_rate(self):
        record = {"counters": {
            "store.disk.hits": 3, "search.cache.hits": 1, "store.misses": 4,
        }}
        assert overall_hit_rate(record) == pytest.approx(0.5)
        assert overall_hit_rate({"counters": {}}) == 0.0


class TestSealAndLoad:
    def test_seal_without_sink_returns_none(self):
        assert ledger.seal_run(_ctx(), None, None) is None

    def test_seal_is_one_record_per_run(self, tmp_path):
        store = ResultStore(tmp_path)
        ctx = _ctx()
        assert ledger.seal_run(ctx, None, store)["run"] == ctx.run_id
        ledger.seal_run(ctx, None, store)  # re-seal overwrites
        assert len(_ledger_files(tmp_path)) == 1

    def test_resolve_sink_prefers_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert ledger.resolve_sink(store) is store

    def test_resolve_sink_env_fallback(self, tmp_path, monkeypatch):
        assert ledger.resolve_sink(None) is None
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(tmp_path / "runs"))
        sink = ledger.resolve_sink(None)
        assert isinstance(sink, ResultStore)
        assert str(sink.root) == str(tmp_path / "runs")

    def test_list_and_load(self, tmp_path):
        store = ResultStore(tmp_path)
        for idx, rid in enumerate(
            ["20250101-000000-aa1111", "20250101-000001-aa2222",
             "20250101-000002-bb3333"]
        ):
            ctx = _ctx(run_id=rid, started_unix=float(idx))
            ledger.seal_run(ctx, None, store)
        records = ledger.list_runs(store)
        assert [r["run"] for r in records] == [
            "20250101-000000-aa1111", "20250101-000001-aa2222",
            "20250101-000002-bb3333",
        ]
        # exact, unique prefix, last, last~N
        assert ledger.load_run(store, "20250101-000001-aa2222")["run"] == \
            "20250101-000001-aa2222"
        assert ledger.load_run(store, "20250101-000002")["run"] == \
            "20250101-000002-bb3333"
        assert ledger.load_run(store, "last")["run"] == \
            "20250101-000002-bb3333"
        assert ledger.load_run(store, "last~1")["run"] == \
            "20250101-000001-aa2222"
        assert ledger.load_run(store, "last~9") is None
        assert ledger.load_run(store, "nope") is None
        with pytest.raises(ValueError, match="ambiguous"):
            ledger.load_run(store, "20250101-00000")

    def test_list_runs_without_sink(self):
        assert ledger.list_runs(None) == []

    def test_corrupt_ledger_record_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        ledger.seal_run(_ctx(), None, store)
        (store.base / ledger.LEDGER_KIND / "garbage.json").write_text(
            "{not json", encoding="utf-8"
        )
        assert len(ledger.list_runs(store)) == 1


class TestDigestTee:
    def test_digest_matches_sha256_and_passes_through(self):
        buffer = io.StringIO()
        tee = DigestTee(buffer)
        tee.write("hello ")
        tee.write("world\n")
        tee.flush()
        assert buffer.getvalue() == "hello world\n"
        assert tee.hexdigest() == \
            hashlib.sha256(b"hello world\n").hexdigest()
        assert tee.wrapped is buffer
        # Unknown attributes delegate to the wrapped stream.
        assert tee.getvalue() == "hello world\n"


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_heartbeat_noop_without_context(self, tmp_path):
        flight.heartbeat("item_start", item="#0")  # must not raise
        assert flight.live_path() is None

    def test_heartbeat_appends_jsonl(self, tmp_path):
        ctx = runctx.begin_run("batch", live_dir=tmp_path / "live")
        flight.heartbeat("item_start", item="#0 mws sor", sig="abc")
        flight.heartbeat("item_done", item="#0 mws sor", elapsed_s=0.1)
        events = flight.read_heartbeats(ctx.live_path)
        assert [e["ev"] for e in events] == ["item_start", "item_done"]
        assert all(e["run"] == ctx.run_id for e in events)
        assert all("ts" in e and "pid" in e for e in events)

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"ev": "item_start", "pid": 1}\n{"ev": "item_do', encoding="utf-8"
        )
        events = flight.read_heartbeats(path)
        assert [e["ev"] for e in events] == ["item_start"]
        assert flight.read_heartbeats(tmp_path / "missing.jsonl") == []

    def test_heartbeat_thread_flushes_counter_snapshots(self, tmp_path):
        ctx = runctx.begin_run("batch", live_dir=tmp_path / "live")
        obs.enable()
        obs.counter("test.flight.work", 5)
        with flight.HeartbeatThread("#0 mws sor", sig="s", interval=0.01):
            time.sleep(0.08)
        events = [
            e for e in flight.read_heartbeats(ctx.live_path)
            if e["ev"] == "progress"
        ]
        assert events
        assert events[-1]["item"] == "#0 mws sor"
        assert events[-1]["counters"]["test.flight.work"] == 5
        assert events[-1]["elapsed_s"] > 0

    def test_progress_summary_folds_stream(self):
        events = [
            {"ev": "item_start", "pid": 1, "item": "#0", "ts": 1.0},
            {"ev": "progress", "pid": 1, "item": "#0", "elapsed_s": 2.0,
             "rate": 10.0, "ts": 3.0},
            {"ev": "item_done", "pid": 1, "item": "#0", "ts": 4.0},
            {"ev": "batch_progress", "done": 1, "total": 3, "eta_s": 8.0,
             "pid": 0, "ts": 4.0},
            {"ev": "run_end", "pid": 0, "status": 0, "ts": 5.0},
        ]
        summary = flight.progress_summary(events)
        assert summary["ended"] is True
        assert summary["batch"] == {"done": 1, "total": 3, "eta_s": 8.0,
                                    "ts": 4.0}
        assert summary["pids"][1]["item"] is None
        assert "item_done" in summary["pids"][1]["last"]
        text = flight.render_progress("run-x", summary)
        assert "batch: 1/3" in text
        assert "run ended" in text

    def test_thread_stops_when_body_raises(self, tmp_path):
        # ISSUE 10 S2: an exception inside the guarded block must stop
        # the daemon thread — not leave it appending heartbeats for an
        # item that is already dead.
        ctx = runctx.begin_run("batch", live_dir=tmp_path / "live")
        hb = flight.HeartbeatThread("#0 mws sor", interval=0.01)
        with pytest.raises(RuntimeError, match="boom"):
            with hb:
                time.sleep(0.05)
                raise RuntimeError("boom")
        assert hb._thread is None
        before = len(flight.read_heartbeats(ctx.live_path))
        time.sleep(0.05)
        assert len(flight.read_heartbeats(ctx.live_path)) == before

    def test_stop_is_idempotent(self, tmp_path):
        runctx.begin_run("batch", live_dir=tmp_path / "live")
        hb = flight.HeartbeatThread("#0", interval=0.01).start()
        hb.stop()
        hb.stop()  # second stop is a no-op, not an error
        assert hb._thread is None

    def test_no_heartbeats_after_run_seal(self, tmp_path):
        # A thread that outlives its run (service keeps the process
        # alive) must stop beating once the run context is gone.
        ctx = runctx.begin_run("batch", live_dir=tmp_path / "live")
        hb = flight.HeartbeatThread("#0", interval=0.02).start()
        time.sleep(0.06)
        live = ctx.live_path
        runctx.end_run()
        # Grace period: any in-flight beat finishes, then the thread
        # observes the dead context and exits on its own.
        time.sleep(0.06)
        count = len(flight.read_heartbeats(live))
        time.sleep(0.08)
        assert len(flight.read_heartbeats(live)) == count
        hb.stop()

    def test_heartbeat_interval_env(self, monkeypatch):
        assert flight.heartbeat_interval() == flight.DEFAULT_HEARTBEAT_S
        monkeypatch.setenv(flight.HEARTBEAT_ENV, "0.25")
        assert flight.heartbeat_interval() == 0.25
        monkeypatch.setenv(flight.HEARTBEAT_ENV, "nope")
        with pytest.raises(ValueError, match="number of seconds"):
            flight.heartbeat_interval()
        monkeypatch.setenv(flight.HEARTBEAT_ENV, "-1")
        with pytest.raises(ValueError, match="> 0"):
            flight.heartbeat_interval()


# ----------------------------------------------------------------------
# acceptance: cold/warm CLI runs, one record each, diff attribution
# ----------------------------------------------------------------------

class TestColdWarmAcceptance:
    def _run(self, store_dir, loop, capsys, extra=()):
        from repro.cli import main

        code = main([*extra, "--store", str(store_dir), "optimize",
                     str(loop)])
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    @pytest.mark.parametrize("extra", [(), ("--workers", "2")],
                             ids=["serial", "workers2"])
    def test_one_record_per_run_and_cache_attribution(
        self, tmp_path, capsys, extra
    ):
        loop = _loop_file(tmp_path)
        store_dir = tmp_path / "store"
        cold_out = self._run(store_dir, loop, capsys, extra)
        assert len(_ledger_files(store_dir)) == 1
        clear_exact_cache()
        warm_out = self._run(store_dir, loop, capsys, extra)
        assert len(_ledger_files(store_dir)) == 2
        assert warm_out == cold_out  # store-served answer, same bytes

        store = ResultStore(store_dir)
        cold, warm = ledger.list_runs(store)
        assert cold["run"] != warm["run"]
        for record in (cold, warm):
            assert record["schema"] == ledger.LEDGER_SCHEMA
            assert record["command"] == "optimize"
            assert record["status"] == 0
            assert record["inputs"]  # pipeline noted the program
            assert record["caches"]  # unconditional cache stats
        # Identical printed answers -> identical stdout digests.
        assert cold["result_digest"] == warm["result_digest"]
        # Cold did engine work; warm was served entirely from the store.
        assert sum(cold["engines"].values()) > 0
        assert sum(warm.get("engines", {}).values()) == 0

        diff = diff_runs(cold, warm)
        assert diff.code_delta is None
        assert diff.knob_delta == {}
        assert diff.input_delta == {}
        assert diff.digest_match is True
        assert diff.hit_rate_delta > 0
        assert not diff.engine_switch
        assert "attributed to store/cache hits" in diff.attribution
        rendered = render_run_diff(diff)
        assert "verdict" in rendered
        assert "identical output digest" in rendered

    def test_env_sink_for_storeless_runs(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        loop = _loop_file(tmp_path)
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv(ledger.LEDGER_DIR_ENV, str(ledger_dir))
        assert main(["analyze", str(loop)]) == 0
        capsys.readouterr()
        records = ledger.list_runs(ResultStore(ledger_dir))
        assert len(records) == 1
        assert records[0]["command"] == "analyze"
        # The knob that routed the record is itself in the record.
        assert records[0]["env"][ledger.LEDGER_DIR_ENV] == str(ledger_dir)

    def test_read_side_commands_seal_nothing(self, tmp_path, capsys):
        from repro.cli import main

        loop = _loop_file(tmp_path)
        store_dir = tmp_path / "store"
        self._run(store_dir, loop, capsys)
        assert main(["--store", str(store_dir), "runs", "list"]) == 0
        assert main(["--store", str(store_dir), "runs", "show", "last"]) == 0
        capsys.readouterr()
        # Reading the ledger must not grow the ledger.
        assert len(_ledger_files(store_dir)) == 1

    def test_failed_run_seals_with_nonzero_status(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        code = main(["--store", str(store_dir), "optimize",
                     str(tmp_path / "missing.loop")])
        capsys.readouterr()
        assert code == 1
        records = ledger.list_runs(ResultStore(store_dir))
        assert len(records) == 1
        assert records[0]["status"] == 1


# ----------------------------------------------------------------------
# acceptance: record counters reconcile with the journal
# ----------------------------------------------------------------------

class TestLedgerJournalReconciliation:
    def test_record_counters_reconcile(self):
        from repro.ir import parse_program

        program = parse_program(LOOP)
        ctx = runctx.begin_run("explain")
        observer = obs.enable()
        jr = journal.enable()
        search_best_transformation(program, "A")
        journal.disable()
        summary = observer.summary()
        runctx.end_run()
        record = ledger.build_record(ctx, summary)
        assert record["run"] == jr.run_id == summary["run"]
        rows = reconcile(jr, record["counters"])
        assert rows
        for label, jcount, ccount in rows:
            assert jcount == ccount, label
        # The searched program's engine calls surface in the record.
        assert sum(record["engines"].values()) > 0


class TestStoreRunStamp:
    def test_store_records_carry_run_provenance(self, tmp_path):
        store = ResultStore(tmp_path)
        ctx = runctx.begin_run("optimize")
        store.put("exact", {"k": 1}, 42)
        runctx.end_run()
        store.put("exact", {"k": 2}, 43)
        paths = sorted((store.base / "exact").glob("*.json"))
        stamped = [
            json.loads(p.read_text(encoding="utf-8")).get("run")
            for p in paths
        ]
        assert sorted(stamped, key=str) == sorted(
            [ctx.run_id, None], key=str
        )
        # Provenance only: reads are unaffected by the stamp.
        assert store.get("exact", {"k": 1}) == 42
