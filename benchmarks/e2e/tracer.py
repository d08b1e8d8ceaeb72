"""Outside-in layer tracing for the benchmark's traced runs.

Each layer of the program is timed at its public functions.
:meth:`Tracer.install` rebinds every name under which a loaded ``repro``
module holds one of those functions (and patches the class of a method)
to a wrapper that records a span ``(name, layer, start, end, parent)``;
:meth:`Tracer.uninstall` puts the originals back.  The program itself is
not changed.  Spans stay in memory until the run writes them out.

A layer's self time is its spans' durations minus the durations of
their direct child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterable, Sequence


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _count_search(counts, args, kwargs, result, outer):
    counts["search.calls"] += 1


def _count_cascade(counts, args, kwargs, result, outer):
    counts["cascade.candidates"] += len(_arg(args, kwargs, 1, "candidates"))
    counts["cascade.simulated"] += sum(
        1 for outcome in result if outcome.tier == "simulated"
    )


def _count_batch(counts, args, kwargs, result, outer):
    if outer:
        counts["window.scored"] += len(_arg(args, kwargs, 1, "candidates"))


def _count_window(counts, args, kwargs, result, outer):
    if outer:
        counts["window.scored"] += 1


def _count_tiling(counts, args, kwargs, result, outer):
    counts["tiling.calls"] += 1
    counts["tiling.points"] += math.prod(args[0].nest.trip_counts)


def _count_hierarchy(counts, args, kwargs, result, outer):
    counts["hierarchy.configs"] += result.configs
    counts["hierarchy.evaluated"] += result.evaluated


def _count_get(counts, args, kwargs, result, outer):
    counts["store.gets"] += 1
    counts["store.hits"] += result is not None


def _count_put(counts, args, kwargs, result, outer):
    counts["store.puts"] += 1


#: layer -> its public entry points ``(module, attribute, counter)``.
#: A dotted attribute names a method.
LAYERS: dict[str, tuple[tuple[str, str, Callable | None], ...]] = {
    "dependence": (
        ("repro.transform.legality", "ordering_distances", None),
        ("repro.dependence.analysis", "array_dependences", None),
    ),
    "search": (
        ("repro.core.optimizer", "candidate_transformations", None),
        ("repro.transform.search", "search_mws_2d", _count_search),
        ("repro.transform.search", "search_mws_3d", _count_search),
        ("repro.transform.search", "search_general", _count_search),
    ),
    "cascade": (
        ("repro.transform.search", "evaluate_cascade", _count_cascade),
    ),
    "window": (
        ("repro.window.batched", "batched_mws", _count_batch),
        ("repro.window.simulator", "max_window_size", _count_window),
        ("repro.window.simulator", "max_total_window", _count_window),
    ),
    "estimation": (
        ("repro.estimation.memory", "estimate_program_memory", None),
    ),
    "bounds": (
        ("repro.estimation.bounds", "transfer_lower_bound", None),
    ),
    "tiling": (
        ("repro.transform.tiling", "tile_footprints", _count_tiling),
    ),
    "hierarchy": (
        ("repro.transform.hierarchy_search", "search_hierarchy",
         _count_hierarchy),
    ),
    "ir": (
        ("repro.ir.parser", "parse_program", None),
        ("repro.ir.program", "Program.signature", None),
    ),
    "store": (
        ("repro.store.store", "ResultStore.get", _count_get),
        ("repro.store.store", "ResultStore.put", _count_put),
    ),
    "api": (
        ("repro.api", "AnalysisService.evaluate", None),
    ),
}

#: Span tuple fields.
NAME, LAYER, START, END, PARENT = range(5)


def self_times(spans: Iterable[Sequence]) -> dict[str, float]:
    """Per-layer self time: every span's duration, less the duration of
    each direct child (``parent`` indexes the span list; -1 for a root)."""
    spans = list(spans)
    totals: dict[str, float] = {}
    for span in spans:
        duration = span[END] - span[START]
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + duration
        if span[PARENT] >= 0:
            parent_layer = spans[span[PARENT]][LAYER]
            totals[parent_layer] = totals.get(parent_layer, 0.0) - duration
    return totals


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Records spans around every call into a layer while installed.

    Single-threaded: install it only around work that runs on the
    calling thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    def _wrap(self, layer: str, name: str, fn: Callable, counter) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, layer, time.perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = time.perf_counter()
            if counter is not None:
                outer = parent < 0 or spans[parent][LAYER] != layer
                counter(counts, args, kwargs, result, outer)
            return result

        self._originals[id(traced)] = (traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every layer entry point found in the loaded program."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        wrappers: dict[int, tuple[Any, Callable]] = {}
        for layer, targets in LAYERS.items():
            for module_name, attribute, counter in targets:
                owner_name, _, name = attribute.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    if owner_name:
                        owner = getattr(owner, owner_name)
                    original = getattr(owner, name)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                wrapper = self._wrap(
                    layer, f"{module_name}.{attribute}", original, counter
                )
                if owner_name:
                    self._patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
                else:
                    wrappers[id(original)] = (original, wrapper)
        # A function is looked up under every name a module imported it
        # as (``from x import f`` copies the binding), so rebind them all.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, key, value))
                    setattr(module, key, hit[1])

    def uninstall(self) -> None:
        """Restore every binding, including ones that modules imported
        while the tracer was installed copied from a wrapper."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self._originals = {}

    def layer_metrics(self, wall_s: float, ops: int) -> dict[str, float]:
        """Self-time shares of ``wall_s`` (the traced operations' summed
        wall time) per layer, and the layer counts per operation."""
        selfs = self_times(self.spans)
        counts = self.counts
        metrics = {
            f"{layer}.self_pct": 100.0 * selfs.get(layer, 0.0) / wall_s
            for layer in LAYERS
        }
        metrics["unattributed.self_pct"] = (
            100.0 * (wall_s - sum(selfs.values())) / wall_s
        )
        metrics.update({
            "search.calls": counts["search.calls"] / ops,
            "cascade.candidates": counts["cascade.candidates"] / ops,
            "cascade.simulated_share": _ratio(
                counts["cascade.simulated"], counts["cascade.candidates"]
            ),
            "window.candidates_scored": counts["window.scored"] / ops,
            "tiling.calls": counts["tiling.calls"] / ops,
            "tiling.points_per_s": _ratio(
                counts["tiling.points"], selfs.get("tiling", 0.0)
            ),
            "hierarchy.evaluated_share": _ratio(
                counts["hierarchy.evaluated"], counts["hierarchy.configs"]
            ),
            "store.hit_share": _ratio(counts["store.hits"], counts["store.gets"]),
            "store.puts": counts["store.puts"] / ops,
        })
        return metrics
