"""Reclaimable worker pool: per-item timeouts that free the slot.

``concurrent.futures`` cannot cancel a *running* task: abandoning a
timed-out future leaves the worker process grinding on the hung item,
permanently occupying one ``ProcessPoolExecutor`` slot.  For a one-shot
``repro batch`` that merely wastes a core; for the always-on analysis
service it is fatal — ``workers`` hung requests and the pool deadlocks
forever.

:class:`ReclaimablePool` fixes this by giving each worker its own slot
(a single-process executor plus the worker's PID, probed at spawn).
When an item outlives its deadline the slot's worker is **killed and
respawned** (counted under the pool's reclaim counter, by default
``batch.worker.reclaimed``), so the slot is immediately available to
the next item.  A worker that dies on its own (segfault, OOM kill)
is likewise respawned instead of poisoning the executor.

The pool is thread-safe: :meth:`run_one` can be called concurrently
from many threads (the HTTP front end drives it from one thread per
admitted request, ``repro batch`` from one thread per worker), blocking
until a slot frees up.  The per-item
timeout clock starts when the item actually starts executing — each
slot runs one item at a time — not when the caller gets around to
waiting on it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs

#: Default obs counter bumped once per killed-and-respawned worker.
RECLAIM_COUNTER = "batch.worker.reclaimed"

#: Kill signal: SIGKILL where it exists (a hung worker may ignore TERM).
_KILL_SIGNAL = getattr(signal, "SIGKILL", signal.SIGTERM)


@dataclass
class SlotResult:
    """Outcome of one :meth:`ReclaimablePool.run_one` call."""

    status: str  # "ok" | "error" | "timeout"
    value: Any = None  # the return value ("ok") or the exception ("error")
    wall_s: float = 0.0


class _WorkerSlot:
    """One worker process and the machinery to replace it."""

    def __init__(self, initializer, initargs, reclaim_counter: str) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._reclaim_counter = reclaim_counter
        self.executor: ProcessPoolExecutor | None = None
        self._pid_future = None
        self._spawn()

    def _spawn(self) -> None:
        self.executor = ProcessPoolExecutor(
            max_workers=1,
            initializer=self._initializer,
            initargs=self._initargs,
        )
        # Probe the worker's PID up front (public API only): the probe
        # resolves long before any real item could hang, so a reclaim
        # can kill the right process without touching executor internals.
        self._pid_future = self.executor.submit(os.getpid)

    def pid(self) -> int | None:
        try:
            return self._pid_future.result(timeout=30.0)
        except Exception:
            return None

    def reclaim(self) -> None:
        """Kill the (presumed hung) worker and spawn a fresh one."""
        pid = self.pid()
        if pid is not None:
            try:
                os.kill(pid, _KILL_SIGNAL)
            except (OSError, ProcessLookupError):
                pass
        self.executor.shutdown(wait=False, cancel_futures=True)
        obs.counter(self._reclaim_counter)
        self._spawn()

    def close(self, kill: bool = False) -> None:
        if self.executor is None:
            return
        if kill:
            pid = self.pid()
            if pid is not None:
                try:
                    os.kill(pid, _KILL_SIGNAL)
                except (OSError, ProcessLookupError):
                    pass
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.executor = None


class ReclaimablePool:
    """``workers`` isolated single-process slots with per-item deadlines.

    ``initializer``/``initargs`` follow the ``ProcessPoolExecutor``
    convention (:class:`repro.api.AnalysisService` passes
    ``obs.core._init_worker`` so worker counters and heartbeats carry
    the parent's run identity).
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
        reclaim_counter: str = RECLAIM_COUNTER,
    ) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self._lock = threading.Lock()
        self._free_cond = threading.Condition(self._lock)
        self._slots = [
            _WorkerSlot(initializer, initargs, reclaim_counter)
            for _ in range(workers)
        ]
        self._free: list[_WorkerSlot] = list(self._slots)
        self._closed = False

    # ------------------------------------------------------------------
    # slot checkout
    # ------------------------------------------------------------------
    def _checkout(self) -> _WorkerSlot:
        with self._free_cond:
            while not self._free:
                if self._closed:
                    raise RuntimeError("pool is shut down")
                self._free_cond.wait()
            if self._closed:
                raise RuntimeError("pool is shut down")
            return self._free.pop()

    def _checkin(self, slot: _WorkerSlot) -> None:
        with self._free_cond:
            self._free.append(slot)
            self._free_cond.notify()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_one(
        self,
        fn: Callable,
        payload: Any,
        timeout: float | None = None,
    ) -> SlotResult:
        """Run ``fn(payload)`` on a dedicated worker with a deadline.

        Blocks until a slot is free (admission control belongs to the
        caller).  On timeout the slot's worker is killed and respawned
        before the slot is returned to the pool, so a hung item never
        blocks subsequent items.  Never raises on the *item's* behalf:
        failures come back as ``SlotResult(status="error", value=exc)``.
        """
        slot = self._checkout()
        started = time.perf_counter()
        try:
            future = slot.executor.submit(fn, payload)
            try:
                value = future.result(timeout=timeout)
            except _FutureTimeout:
                slot.reclaim()
                return SlotResult(
                    "timeout", wall_s=time.perf_counter() - started
                )
            except BrokenExecutor as exc:
                # The worker died under the item (segfault/OOM): respawn
                # so the slot keeps serving, and report the item failed.
                slot.reclaim()
                return SlotResult(
                    "error", value=exc, wall_s=time.perf_counter() - started
                )
            except Exception as exc:
                return SlotResult(
                    "error", value=exc, wall_s=time.perf_counter() - started
                )
            return SlotResult(
                "ok", value=value, wall_s=time.perf_counter() - started
            )
        finally:
            self._checkin(slot)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, kill: bool = False) -> None:
        """Close every slot; ``kill=True`` also kills in-flight workers
        (the service's fast-exit path)."""
        with self._free_cond:
            self._closed = True
            self._free_cond.notify_all()
        for slot in self._slots:
            slot.close(kill=kill)

    def __enter__(self) -> "ReclaimablePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown(kill=True)
