"""Hierarchical timing spans, monotonic counters, and a JSONL event log.

The observability substrate for the search/simulation pipeline.  Design
constraints (ISSUE 1):

* **Near-zero overhead when disabled.**  The module-level observer is
  ``None`` until :func:`enable` is called; every instrumentation entry
  point (:func:`span`, :func:`counter`, the :func:`profiled` wrapper)
  reduces to one global load and a ``None`` check on the disabled path.
  No objects are allocated, no clocks are read.

* **Deterministic event log.**  Events carry a process-local sequence
  number and are emitted in execution order with a fixed key order, so
  two runs of the same workload produce JSONL logs that differ only in
  the measured durations (and not at all when a fake clock is injected,
  which is how the tests pin the format).

* **Hierarchy without globals in the hot path.**  The active span stack
  lives on the observer; a span's ``path`` is the ``/``-joined names of
  its ancestors, which is also the aggregation key for the summary.

Typical use::

    from repro import obs

    obs.enable(trace="search.jsonl")
    with obs.span("figure2", kernels=7):
        ...
        obs.counter("search.cache.hits")
    report = obs.disable()          # flushes the JSONL log
    print(report.summary())
"""

from __future__ import annotations

import atexit
import functools
import json
import time
from typing import Any, Callable, Sequence, TextIO

from repro.obs import metrics as _metrics
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram


def _json_default(value: Any) -> Any:
    """Fallback serializer for span attrs: numpy scalars (``np.int64``
    kernel sizes and friends) expose ``.item()``; anything else degrades
    to ``str`` rather than crashing the trace."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


class SpanStat:
    """Aggregate of every completed span sharing one path."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class Observer:
    """Collects spans, counters and (optionally) a JSONL trace."""

    def __init__(
        self,
        trace: str | TextIO | None = None,
        clock: Callable[[], float] = time.perf_counter,
        run_id: str | None = None,
    ) -> None:
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._stack: list[tuple[str, float, dict[str, Any]]] = []
        self.span_stats: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.run_id = run_id
        self._trace_path: str | None = None
        self._trace_file: TextIO | None = None
        self._owns_file = False
        if isinstance(trace, str):
            self._trace_path = trace
            self._trace_file = open(trace, "w", encoding="utf-8")
            self._owns_file = True
        elif trace is not None:
            self._trace_file = trace
        if self._trace_file is not None:
            meta: dict[str, Any] = {"ev": "meta", "version": 1}
            if run_id is not None:
                meta["run"] = run_id
            self._emit(meta)

    # ------------------------------------------------------------------
    # span lifecycle (called by the module-level helpers)
    # ------------------------------------------------------------------
    def start_span(self, name: str, attrs: dict[str, Any]) -> None:
        self._stack.append((name, self._clock(), attrs))

    def end_span(self) -> None:
        name, started, attrs = self._stack.pop()
        duration = self._clock() - started
        path = "/".join(frame[0] for frame in self._stack)
        path = f"{path}/{name}" if path else name
        stat = self.span_stats.get(path)
        if stat is None:
            stat = self.span_stats[path] = SpanStat()
        stat.add(duration)
        if self._trace_file is not None:
            event: dict[str, Any] = {
                "ev": "span",
                "name": name,
                "path": path,
                "depth": len(self._stack),
                "ts_us": round((started - self._t0) * 1e6),
                "dur_us": round(duration * 1e6),
            }
            if attrs:
                event["attrs"] = attrs
            self._emit(event)

    def add_counter(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # metrics (called by the repro.obs.metrics module-level helpers)
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def get_histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(buckets or DEFAULT_BUCKETS)
        return hist

    def observe_histogram(
        self,
        name: str,
        value: float,
        n: int = 1,
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.get_histogram(name, buckets).observe(value, n)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def _emit(self, event: dict[str, Any]) -> None:
        event = {"seq": self._seq, **event}
        self._seq += 1
        self._trace_file.write(json.dumps(event, default=_json_default) + "\n")

    def summary(self) -> dict[str, Any]:
        """Aggregated spans (by path), counters and metrics, JSON-ready.

        The ``gauges``/``histograms`` sections appear only when something
        was recorded, so pre-metrics traces and summaries keep their
        shape.
        """
        out: dict[str, Any] = {
            "spans": {
                path: stat.as_dict()
                for path, stat in sorted(self.span_stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if self.run_id is not None:
            out["run"] = self.run_id
        if self.gauges:
            out["gauges"] = dict(sorted(self.gauges.items()))
        if self.histograms:
            out["histograms"] = {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            }
        return out

    def flush(self) -> None:
        """Write counter/gauge totals + summary to the trace and close it.

        Idempotent: the first call drains and closes the trace, any later
        call (a second explicit ``flush()``, the ``atexit`` safety net
        after a clean ``disable()``) is a no-op.
        """
        if self._trace_file is None:
            return
        for name, value in sorted(self.counters.items()):
            self._emit({"ev": "counter", "name": name, "value": value})
        for name, value in sorted(self.gauges.items()):
            self._emit({"ev": "gauge", "name": name, "value": value})
        self._emit({"ev": "summary", "data": self.summary()})
        self._trace_file.flush()
        if self._owns_file:
            self._trace_file.close()
        self._trace_file = None


# ----------------------------------------------------------------------
# module-level switch — the only state the hot path touches
# ----------------------------------------------------------------------
_observer: Observer | None = None

_atexit_registered = False


def _set_observer(observer: Observer | None) -> None:
    """Swap the active observer, keeping the metrics-module mirror in
    sync so its entry points stay single-global-load no-ops too."""
    global _observer
    _observer = observer
    _metrics._observer = observer


def _flush_at_exit() -> None:
    """``atexit`` safety net: a trace must not be left truncated because
    the user forgot ``obs.disable()``.  Flushing an already-flushed
    observer is a no-op, so a clean shutdown pays nothing."""
    observer = _observer
    if observer is not None:
        observer.flush()


def enable(
    trace: str | TextIO | None = None,
    clock: Callable[[], float] = time.perf_counter,
    run_id: str | None = None,
) -> Observer:
    """Turn instrumentation on (replacing any active observer).

    ``run_id`` stamps the trace meta event and the summary with the run
    identity (see :mod:`repro.obs.runctx`); when omitted, the active
    run context's ID is used if one exists.
    """
    global _atexit_registered
    if _observer is not None:
        _observer.flush()
    if run_id is None:
        from repro.obs import runctx

        run_id = runctx.current_run_id()
    _set_observer(Observer(trace, clock, run_id=run_id))
    if not _atexit_registered:
        atexit.register(_flush_at_exit)
        _atexit_registered = True
    return _observer


def disable() -> Observer | None:
    """Turn instrumentation off; flush + return the finished observer."""
    finished = _observer
    _set_observer(None)
    if finished is not None:
        finished.flush()
    return finished


def enabled() -> bool:
    return _observer is not None


def get_observer() -> Observer | None:
    return _observer


def _reset_in_child() -> None:
    """Drop inherited observer state after ``fork`` (worker processes must
    not write to the parent's trace file)."""
    _set_observer(None)


def _init_worker(collect: bool, run_state: dict | None = None) -> None:
    """Pool-worker initializer of :class:`repro.api.AnalysisService`:
    never inherit the parent's observer (and its open trace file), but
    when the parent is observing start a fresh in-memory observer so
    worker-side counters can be shipped back with each item and merged
    (see ``repro.api._batch_task``).

    ``run_state`` (from :func:`repro.obs.runctx.worker_state`) restores
    the parent's run identity in the child, so worker observers and
    flight-recorder heartbeats are stamped with the same run ID.
    """
    from repro.obs import runctx

    _reset_in_child()
    runctx.restore_worker(run_state)
    if collect:
        _set_observer(Observer(run_id=runctx.current_run_id()))


class _NullSpan:
    """Shared no-op context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_obs",)

    def __init__(self, obs: Observer, name: str, attrs: dict[str, Any]):
        self._obs = obs
        obs.start_span(name, attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self._obs.end_span()


def span(name: str, **attrs: Any):
    """Context manager timing one stage; nests to form the span tree."""
    obs = _observer
    if obs is None:
        return _NULL_SPAN
    return _Span(obs, name, attrs)


def counter(name: str, amount: int = 1) -> None:
    """Bump a monotonic counter (no-op while disabled)."""
    obs = _observer
    if obs is not None:
        obs.add_counter(name, amount)


def profiled(name: str | Callable | None = None):
    """Decorator wrapping a function in a span named after it.

    Usable bare (``@profiled``) or with an explicit label
    (``@profiled("search.estimate")``).  The disabled path is a single
    global load + ``None`` check before delegating.
    """
    if callable(name):
        return profiled(None)(name)

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            obs = _observer
            if obs is None:
                return fn(*args, **kwargs)
            obs.start_span(label, {})
            try:
                return fn(*args, **kwargs)
            finally:
                obs.end_span()

        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
