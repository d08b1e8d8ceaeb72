"""MWS-minimizing transformation search (paper Section 4.2-4.3).

2-D: enumerate every coprime first row ``(a, b)`` within the bound, keep
rows satisfying the tiling constraints ``a*d1 + b*d2 >= 0``, complete
each to a unimodular matrix with :func:`complete_first_row_2d`, and rank
by the eq. (2) estimate with exact-simulation tie-breaking of the leaders.
(The branch-and-bound minimizer of :mod:`repro.transform.branch_bound`
is not on this path; only tests and an ablation bench call it.)

3-D: per Section 4.3 the best window comes from making inner loops carry
the reuse — when the access matrix rows extend to a legal unimodular
matrix, the reuse vector maps to level ``n`` and the window collapses to
1; otherwise candidates from a bounded unimodular enumeration are ranked
by (transformed reuse level, estimated window).

Deeper nests: signed permutations plus access-matrix embeddings, exact
scoring (the paper gives no closed form past depth 3).

Every enumerated space (the bounded unimodular matrices, the signed
permutations, and the 2-D coprime rows as ``1 x 2`` matrices) is an
integer stack screened as array code by
:func:`repro.transform.legality.screen_stack`; :class:`IntMatrix`
objects are built only for the matrices a search keeps.  The per-matrix walk survives as the reference in
:mod:`repro.check.oracles` (``per_matrix_screens``).

Candidate evaluation — the hot path behind Figure 2 — is memoized in a
module-level content-hash cache (:func:`evaluate_exact` keys results on
``(program.signature(), array, transformation)``), and the misses are
scored in one batch in the calling process.  Parallelism happens across
items, on the worker pool of :class:`repro.api.AnalysisService`, not
inside one search.  Everything is instrumented with :mod:`repro.obs`
spans and counters.

:func:`evaluate_cascade` puts one admissible pruning tier in front of
simulation: tier 1 applies transformation-invariant certified facts
(:func:`repro.estimation.bounds.certified_reuse` — exact zero or a >= 1
floor under *any* ordering).  A candidate is only simulated when that
floor beats the running incumbent; the tier never prunes a candidate
that could strictly improve on the incumbent, so the winner is
identical to evaluating everything.

Every whole result — the per-array searches here,
:func:`repro.core.optimizer.optimize_program`,
:func:`repro.transform.hierarchy_search.search_hierarchy` and each api
answer (:func:`repro.api.evaluate_kind`) — goes through one cache,
:func:`cached_search`: the content-hash keyed ``_SEARCH_CACHE`` memo,
then a store when the caller passes one, then the computation, all
bypassed while a journal records so ``repro explain`` always sees a full
trace.  Both memos are bounded :class:`~repro.store.lru.LRUCache`
instances with eviction counters.  Nothing in this module persists: the
store holds whole api answers (record kind ``answer``) and hierarchy
plans (``hierarchy``) — see :mod:`repro.store`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.estimation import bounds
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.store.lru import LRUCache
from repro.transform import journal
from repro.transform.completion import complete_first_row_2d, complete_rows_legal
from repro.transform.elementary import (
    as_matrices,
    signed_permutation_stack,
    unimodular_stack,
)
from repro.transform.legality import (
    StackScreen,
    is_legal,
    ordering_distances,
    reuse_distances,
    screen_stack,
)
from repro.window.batched import BATCH_SIZE
from repro.window.mws import mws_2d_estimate, mws_2d_estimate_batch


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a transformation search for one array."""

    array: str
    transformation: IntMatrix
    estimated_mws: Fraction | int
    exact_mws: int | None
    candidates_examined: int
    method: str

    def __str__(self) -> str:
        exact = "?" if self.exact_mws is None else str(self.exact_mws)
        return (
            f"{self.array}: T={self.transformation.rows} "
            f"est={self.estimated_mws} exact={exact} ({self.method})"
        )


# ----------------------------------------------------------------------
# memoized exact evaluation
# ----------------------------------------------------------------------

#: (program signature, array | None, transformation rows | None) -> exact
#: MWS.  ``array=None`` keys total-window results, ``rows=None`` the
#: native order.  Content-hash keys make results reusable across equal
#: programs rebuilt by different benchmarks / CLI invocations.  Bounded
#: LRU (evictions counted under ``search.cache.evictions``) so sustained
#: multi-kernel runs cannot grow it without bound.
_EXACT_CACHE_LIMIT = 65536
_EXACT_CACHE: LRUCache = LRUCache(_EXACT_CACHE_LIMIT, counter="search.cache")

#: Whole-search memo of :func:`cached_search`: ``(record kind,
#: canonical key)`` -> result (a :class:`SearchResult`, an
#: ``OptimizationResult`` or a ``HierarchySearchResult``).  Results are
#: pure in the program and the search knobs, so repeated searches —
#: benchmark loops, the Figure-2 table re-running per array, service
#: pool workers — hit here.  Bypassed while a journal records, so
#: ``repro explain`` always sees the full trace.
#: LRU-bounded (``search.memo.evictions``): benchmark loops cycling more
#: than the limit evict one key at a time instead of thrashing the whole
#: memo with a wholesale ``clear()``.
_SEARCH_CACHE_LIMIT = 256
_SEARCH_CACHE: LRUCache = LRUCache(_SEARCH_CACHE_LIMIT, counter="search.memo")


def clear_exact_cache() -> None:
    """Drop all memoized exact-simulation results (tests, benchmarks)."""
    _EXACT_CACHE.clear()
    _SEARCH_CACHE.clear()


def clear_search_cache() -> None:
    """Drop memoized whole-search results only."""
    _SEARCH_CACHE.clear()


def exact_cache_size() -> int:
    return len(_EXACT_CACHE)


_R = TypeVar("_R")
_T = TypeVar("_T")


def cached_search(
    record_kind: str,
    key: dict,
    store,
    compute: Callable[[], _R],
    encode: Callable[[_R], Any] | None = None,
    decode: Callable[[Any], "_R | None"] | None = None,
) -> _R:
    """One whole result: memo, then store, then ``compute()``.

    The in-process ``_SEARCH_CACHE`` answers first (``search.memo.*``
    counters), then ``store`` (if not ``None``) under ``(record_kind,
    key)``; only a miss in both computes, and the result fills both.  A
    memo hit still writes through to a ``store`` that lacks the record
    (an answer first computed without a store is persisted by the first
    call that passes one).  ``encode`` and ``decode`` are needed only
    with a store: ``decode`` maps a stored payload back to a result, or
    to ``None`` (counting ``store.corrupt``) when it does not decode — a
    miss, which the recompute's write heals.  While a journal records
    both layers are skipped, so ``repro explain`` always sees the full
    trace.
    """
    if journal.active() is not None:
        return compute()
    memo_key = (record_kind, json.dumps(key, sort_keys=True))
    result = _SEARCH_CACHE.get(memo_key)
    if result is not None:
        obs.counter("search.memo.hits")
        if store is not None and store.get(record_kind, key) is None:
            store.put(record_kind, key, encode(result))
        return result
    obs.counter("search.memo.misses")
    if store is not None:
        value = store.get(record_kind, key)
        result = None if value is None else decode(value)
    if result is None:
        result = compute()
        if store is not None:
            store.put(record_kind, key, encode(result))
    _SEARCH_CACHE.put(memo_key, result)
    return result


def _t_key(transformation: IntMatrix | None) -> tuple | None:
    return None if transformation is None else transformation.rows


def evaluate_exact(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    array: str | None = None,
) -> list[int]:
    """Exact MWS for each candidate transformation, in candidate order.

    ``array=None`` scores the program-level total window (the Figure-2
    objective); a name scores that array alone.  Results are memoized in
    the module cache; only cache misses are computed, in one batch
    through :func:`repro.window.batched.batched_mws`.  Each candidate
    gets one journal record at stage ``"evaluate"``.
    """
    sig = program.signature()
    jr = journal.active()
    results: list[int | None] = [None] * len(candidates)
    misses: list[int] = []
    for idx, t in enumerate(candidates):
        hit = _EXACT_CACHE.get((sig, array, _t_key(t)))
        if hit is None:
            misses.append(idx)
        else:
            results[idx] = hit
            if jr is not None:
                jr.record("evaluate", _t_key(t), "cache_hit", exact=hit)
    obs.counter("search.cache.hits", len(candidates) - len(misses))
    obs.counter("search.cache.misses", len(misses))
    if misses:
        from repro.window.batched import batched_mws

        with obs.span("evaluate", candidates=len(candidates),
                      misses=len(misses)):
            values = batched_mws(
                program, [candidates[idx] for idx in misses], array=array
            )
        for idx, value in zip(misses, values):
            results[idx] = value
            _EXACT_CACHE.put((sig, array, _t_key(candidates[idx])), value)
            if jr is not None:
                jr.record(
                    "evaluate", _t_key(candidates[idx]), "computed",
                    exact=value,
                )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# tiered evaluation cascade
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeOutcome:
    """Per-candidate verdict of :func:`evaluate_cascade`.

    ``exact`` — ``value`` is the true MWS (simulated, cached, or tier-1
    certified zero).  Otherwise ``value`` is the tier-1 floor and the
    candidate was pruned: its true MWS is >= ``value`` >= the incumbent
    at its turn, so it cannot strictly beat the winner.  ``tier`` is
    ``"cache" | "tier1" | "simulated"``.
    """

    value: int
    exact: bool
    tier: str


def evaluate_cascade(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    array: str | None = None,
) -> list[CascadeOutcome]:
    """Tiered exact evaluation: certify, then simulate survivors.

    Candidates are finalized strictly in input order; the incumbent is
    the minimum *exact* value among earlier candidates.  Tier 1 applies
    transformation-invariant certified facts: exact zero under any
    ordering answers every candidate without a simulation, and the floor
    (1 when some array certainly has reuse, else 0) prunes every later
    candidate once the incumbent reaches it.  The prune is admissible,
    so the strict-< first-wins winner is identical to
    :func:`evaluate_exact` over all candidates.  The first candidate
    is never pruned, so at least one outcome is exact.  Survivors are
    simulated in windows of :data:`repro.window.batched.BATCH_SIZE`
    through the batched engine (the first window is a single candidate,
    so the incumbent exists before batching); a window sees the
    incumbent as of the last flush, which can only *add* simulations
    relative to the sequential cascade, never change a reported value or
    the winner.

    Counters: ``search.cascade.{pruned,simulated}``; each prune also
    writes a stage-``"cascade"`` journal record, so ``repro explain``
    reconciles them.  Whole search results are cached by the searches
    themselves (:func:`cached_search`).
    """
    sig = program.signature()
    jr = journal.active()

    # Tier 1: transformation-invariant certified facts.
    if array is None:
        verdicts = [bounds.certified_reuse(program, a) for a in program.arrays]
        zero_certified = all(v is False for v in verdicts)
        tier1_floor = 1 if any(v is True for v in verdicts) else 0
    else:
        verdict = bounds.certified_reuse(program, array)
        zero_certified = verdict is False
        tier1_floor = 1 if verdict is True else 0
    if zero_certified:
        obs.counter("search.cascade.pruned", len(candidates))
        for t in candidates:
            _EXACT_CACHE.put((sig, array, _t_key(t)), 0)
            if jr is not None:
                jr.record(
                    "cascade", _t_key(t), "pruned",
                    reason="cascade: tier-1 certified zero reuse "
                           "(exact MWS 0 under any ordering)",
                    exact=0,
                )
        return [CascadeOutcome(0, True, "tier1") for _ in candidates]

    # Survivors are simulated in *windows* through the batched engine.
    # The first window has size 1 — the first survivor always simulates
    # alone, establishing the incumbent before any batching — and later
    # windows hold BATCH_SIZE survivors, which bounds the (K, N) key
    # matrix of one batch.  Pruning decisions inside a window see the
    # incumbent as of the last flush (plus cache hits), so the windowed
    # cascade simulates a superset of the sequential one; every reported
    # exact value is the true MWS either way, and the strict-< first-wins
    # winner is identical.
    incumbent: int | None = None
    pruned = simulated = 0
    outcomes: list[CascadeOutcome | None] = [None] * len(candidates)
    pending: list[int] = []
    window = 1

    def _flush() -> None:
        nonlocal incumbent, window
        if not pending:
            return
        values = evaluate_exact(
            program, [candidates[i] for i in pending], array=array
        )
        for i, value in zip(pending, values):
            outcomes[i] = CascadeOutcome(value, True, "simulated")
            if incumbent is None or value < incumbent:
                incumbent = value
        pending.clear()
        window = BATCH_SIZE

    for idx, t in enumerate(candidates):
        hit = _EXACT_CACHE.get((sig, array, _t_key(t)))
        if hit is not None:
            obs.counter("search.cache.hits", 1)
            if jr is not None:
                jr.record("evaluate", _t_key(t), "cache_hit", exact=hit)
            outcomes[idx] = CascadeOutcome(hit, True, "cache")
            if incumbent is None or hit < incumbent:
                incumbent = hit
            continue
        if incumbent is not None and tier1_floor >= incumbent:
            pruned += 1
            if jr is not None:
                jr.record(
                    "cascade", _t_key(t), "pruned",
                    reason=(f"cascade: tier-1 certified reuse floor "
                            f"{tier1_floor} >= incumbent {incumbent}"),
                    estimate=tier1_floor,
                )
            outcomes[idx] = CascadeOutcome(tier1_floor, False, "tier1")
            continue
        simulated += 1
        pending.append(idx)
        if len(pending) >= window:
            _flush()
    _flush()
    obs.counter("search.cascade.pruned", pruned)
    obs.counter("search.cascade.simulated", simulated)
    return outcomes


def _first_min(scored: Iterable[tuple[int, _T]]) -> tuple[int, _T]:
    """The ``(value, candidate)`` pair of smallest value, the earliest
    on ties: every search's one winner rule (a later candidate wins
    only by a strict improvement)."""
    return min(scored, key=lambda pair: pair[0])


def cascade_winner(
    program: Program,
    candidates: Sequence[_T],
    array: str | None = None,
) -> tuple[list[CascadeOutcome], tuple[int, _T]]:
    """Run :func:`evaluate_cascade` and pick the first strict minimum
    among its exact outcomes (pruned candidates cannot win); returns
    the outcomes and ``(value, winner)``."""
    outcomes = evaluate_cascade(program, candidates, array=array)
    return outcomes, _first_min(
        (outcome.value, t)
        for t, outcome in zip(candidates, outcomes)
        if outcome.exact
    )


@functools.lru_cache(maxsize=None)
def _coprime_rows(bound: int) -> tuple[tuple[int, int], ...]:
    """Candidate first rows: coprime (a, b), not both negative-leading.

    The first row of a legal transformation applied to a lex-positive
    distance must produce a non-negative leading component, so rows and
    their negations are equivalent up to the completion step; enumerate a
    canonical half-space plus the axes.  Cached — every 2-D search and
    branch-and-bound run over the same bound re-enumerates the same box.
    """
    rows = []
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            if a == 0 and b < 0:
                continue
            if math.gcd(a, b) != 1:
                continue
            rows.append((a, b))
    return tuple(rows)


_ROW_TILING = "tiling: a*d1 + b*d2 < 0 for a reuse distance"
_TILING = "tiling: T d < 0 for a reuse distance"
_LEGALITY = "legality: reverses a lex-positive dependence"


def _tileable_rows(
    bound: int, window_dists: Sequence[tuple[int, ...]], jr
) -> list[tuple[int, int]]:
    """The coprime first rows ``(a, b)`` keeping every reuse distance
    non-negative, in enumeration order; a recording journal gets one
    rejection per dropped row."""
    rows = _coprime_rows(bound)
    stack = np.array(rows, dtype=np.int64).reshape(len(rows), 1, 2)
    keep = screen_stack(stack, window_dists, ()).tileable.tolist()
    if jr is not None:
        for row, ok in zip(rows, keep):
            if not ok:
                jr.record("enumerate", (row,), "rejected", reason=_ROW_TILING)
    return [row for row, ok in zip(rows, keep) if ok]


def _screened(
    stack: np.ndarray,
    window_dists: Sequence[tuple[int, ...]],
    order_dists: Sequence[tuple[int, ...]],
    tiling: bool,
    jr,
) -> tuple[np.ndarray, StackScreen]:
    """Indices of the stack's legal (and, when ``tiling``, tileable)
    matrices, and the screen.  A recording journal gets one
    ``enumerate`` record per matrix, in stack order, with the tiling
    rejection before the legality one."""
    verdict = screen_stack(stack, window_dists, order_dists)
    keep = verdict.legal & verdict.tileable if tiling else verdict.legal
    if jr is not None:
        for rows, tileable, legal in zip(
            stack.tolist(), verdict.tileable.tolist(), verdict.legal.tolist()
        ):
            rows = tuple(map(tuple, rows))
            if tiling and not tileable:
                jr.record("enumerate", rows, "rejected", reason=_TILING)
            elif not legal:
                jr.record("enumerate", rows, "rejected", reason=_LEGALITY)
            else:
                jr.record("enumerate", rows, "candidate")
    return np.flatnonzero(keep), verdict


def search_mws_2d_eager(
    program: Program,
    array: str,
    bound: int = 8,
    verify_top: int = 6,
) -> SearchResult:
    """Eager reference implementation of the 2-D search.

    Completes and legality-checks *every* feasible row before ranking.
    :func:`search_mws_2d` produces identical results while completing
    only the cheapest estimate groups; this version is kept as the
    differential-test oracle and benchmark comparator.
    """
    if program.nest.depth != 2:
        raise ValueError("search_mws_2d requires a 2-deep nest")
    refs = program.refs_to(array)
    if not refs:
        raise KeyError(array)
    with obs.span("search.2d", array=array, bound=bound):
        order_dists = ordering_distances(program, array)
        window_dists = reuse_distances(program, array)

        scored: list[tuple[Fraction, IntMatrix]] = []
        ref = refs[0]
        use_eq2 = ref.rank == 1
        alpha = ref.access.row(0) if use_eq2 else None
        n1, n2 = program.nest.trip_counts
        jr = journal.active()
        with obs.span("estimate"):
            examined = len(_coprime_rows(bound))
            for a, b in _tileable_rows(bound, window_dists, jr):
                t = complete_first_row_2d(a, b, window_dists)
                if t is None:
                    if jr is not None:
                        jr.record(
                            "enumerate", ((a, b),), "rejected",
                            reason="completion: no tileable unimodular completion",
                        )
                    continue
                if not is_legal(t, order_dists):
                    if jr is not None:
                        jr.record("enumerate", t.rows, "rejected", reason=_LEGALITY)
                    continue
                if use_eq2:
                    estimate = mws_2d_estimate(alpha[0], alpha[1], n1, n2, a, b)
                else:
                    # Rank-2 arrays: minimize how far apart the reuse
                    # distances land after transformation (outer
                    # component of T d).
                    estimate = Fraction(
                        sum(abs(a * d1 + b * d2) for d1, d2 in window_dists), 1
                    )
                scored.append((estimate, t))
                if jr is not None:
                    jr.record("enumerate", t.rows, "candidate", estimate=estimate)
        obs.counter("search.candidates.examined", examined)
        if not scored:
            raise ValueError(f"no tileable transformation found for {array}")
        with obs.span("rank", scored=len(scored)):
            scored.sort(key=lambda item: (item[0], _entry_weight(item[1])))
        leaders = scored[:verify_top]
        exacts = evaluate_exact(program, [t for _, t in leaders], array=array)
        exact, (estimate, t) = _first_min(zip(exacts, leaders))
        return SearchResult(array, t, estimate, exact, examined, "2d-enumeration")


def _cached_result(
    kind: str, program: Program, array: str, compute, **knobs
) -> SearchResult:
    """A per-array search through the :func:`cached_search` memo, keyed
    by the search kind, program, array and knobs."""
    key = {"kind": kind, "sig": program.signature(), "array": array, **knobs}
    return cached_search("search", key, None, compute)


def search_mws_2d(
    program: Program,
    array: str,
    bound: int = 8,
    verify_top: int = 6,
) -> SearchResult:
    """Find a tileable unimodular transformation minimizing the array's MWS.

    ``bound`` caps ``|a|, |b|``; ``verify_top`` exact-simulates the best
    candidates by estimate and returns the true winner among them (the
    estimate alone already reproduces the paper's choices, the simulation
    guards against estimate ties).

    The estimate depends only on the row ``(a, b)``, so completion and
    legality — the expensive per-row work — run lazily: rows are ranked
    by estimate first and completed in ascending estimate groups until
    ``verify_top`` survivors are collected.  Stopping only at group
    boundaries keeps the ``(estimate, entry-weight)`` tie-break exact,
    so the leaders (and hence the winner) are provably identical to
    :func:`search_mws_2d_eager`.
    """
    if program.nest.depth != 2:
        raise ValueError("search_mws_2d requires a 2-deep nest")
    if not program.refs_to(array):
        raise KeyError(array)
    return _cached_result(
        "2d", program, array,
        lambda: _search_2d(program, array, bound, verify_top),
        bound=bound, verify_top=verify_top,
    )


def _search_2d(
    program: Program, array: str, bound: int, verify_top: int
) -> SearchResult:
    refs = program.refs_to(array)
    with obs.span("search.2d", array=array, bound=bound):
        order_dists = ordering_distances(program, array)
        window_dists = reuse_distances(program, array)
        ref = refs[0]
        use_eq2 = ref.rank == 1
        alpha = ref.access.row(0) if use_eq2 else None
        n1, n2 = program.nest.trip_counts
        jr = journal.active()
        examined = len(_coprime_rows(bound))
        with obs.span("estimate"):
            tileable = _tileable_rows(bound, window_dists, jr)
            if use_eq2:
                estimates = mws_2d_estimate_batch(
                    alpha[0], alpha[1], n1, n2, tileable
                )
            else:
                estimates = [
                    Fraction(
                        sum(abs(a * d1 + b * d2) for d1, d2 in window_dists), 1
                    )
                    for a, b in tileable
                ]
            feasible: list[tuple[Fraction, tuple[int, int]]] = list(
                zip(estimates, tileable)
            )
        obs.counter("search.candidates.examined", examined)
        # Stable sort keeps enumeration order within equal estimates, so
        # survivors collect in the same relative order the eager search
        # would have scored them.
        feasible.sort(key=lambda item: item[0])
        collected: list[tuple[Fraction, IntMatrix]] = []
        idx = 0
        completed = 0
        with obs.span("complete"):
            while idx < len(feasible) and len(collected) < verify_top:
                group_end = idx
                while (
                    group_end < len(feasible)
                    and feasible[group_end][0] == feasible[idx][0]
                ):
                    group_end += 1
                for estimate, (a, b) in feasible[idx:group_end]:
                    completed += 1
                    t = complete_first_row_2d(a, b, window_dists)
                    if t is None:
                        if jr is not None:
                            jr.record(
                                "enumerate", ((a, b),), "rejected",
                                reason="completion: no tileable unimodular completion",
                            )
                        continue
                    if not is_legal(t, order_dists):
                        if jr is not None:
                            jr.record(
                                "enumerate", t.rows, "rejected", reason=_LEGALITY
                            )
                        continue
                    collected.append((estimate, t))
                    if jr is not None:
                        jr.record(
                            "enumerate", t.rows, "candidate", estimate=estimate
                        )
                idx = group_end
        obs.counter("search.lazy.completed", completed)
        obs.counter("search.lazy.skipped", len(feasible) - idx)
        if jr is not None:
            # Rows ranked out before completion still get their one
            # enumerate record, so examined = rejected + candidates holds.
            for estimate, (a, b) in feasible[idx:]:
                jr.record("enumerate", ((a, b),), "candidate", estimate=estimate)
        if not collected:
            raise ValueError(f"no tileable transformation found for {array}")
        with obs.span("rank", scored=len(collected)):
            collected.sort(key=lambda item: (item[0], _entry_weight(item[1])))
        leaders = collected[:verify_top]
        exacts = evaluate_exact(program, [t for _, t in leaders], array=array)
        exact, (estimate, t) = _first_min(zip(exacts, leaders))
        return SearchResult(array, t, estimate, exact, examined, "2d-enumeration")


def _entry_weight(matrix: IntMatrix) -> int:
    return sum(abs(v) for row in matrix.rows for v in row)


def search_mws_3d(
    program: Program,
    array: str,
    bound: int = 1,
    verify_top: int = 4,
) -> SearchResult:
    """Section 4.3 search for 3-deep nests.

    First preference: embed the access matrix rows as the leading rows of
    ``T`` (when they complete to a legal unimodular matrix) — the reuse
    vector then lands at level ``n`` and the window collapses to ~1.
    Otherwise rank a bounded enumeration of unimodular matrices by the
    level of the transformed reuse vectors (deeper is better), then by
    exact simulation of the leaders.
    """
    if program.nest.depth != 3:
        raise ValueError("search_mws_3d requires a 3-deep nest")
    if not program.refs_to(array):
        raise KeyError(array)
    return _cached_result(
        "3d", program, array,
        lambda: _search_3d(program, array, bound, verify_top),
        bound=bound, verify_top=verify_top,
    )


def _search_3d(
    program: Program, array: str, bound: int, verify_top: int
) -> SearchResult:
    refs = program.refs_to(array)
    with obs.span("search.3d", array=array, bound=bound):
        order_dists = ordering_distances(program, array)
        window_dists = reuse_distances(program, array)
        jr = journal.active()
        # Access-matrix embedding (Example 10's construction).
        seed = None
        access = refs[0].access
        if access.n_rows < 3 and access.rank() == access.n_rows:
            embedded = complete_rows_legal(
                [list(access.row(k)) for k in range(access.n_rows)], window_dists
            )
            if embedded is not None and is_legal(embedded, order_dists):
                seed = embedded
                if jr is not None:
                    jr.record("seed", embedded.rows, "candidate")
        # Bounded enumeration fallback/competitors.
        stack = unimodular_stack(3, bound)
        examined = len(stack)
        with obs.span("enumerate"):
            survivors, verdict = _screened(
                stack, window_dists, order_dists, True, jr
            )
        obs.counter("search.candidates.examined", examined)
        scored = len(survivors) + (seed is not None)
        if not scored:
            raise ValueError(f"no legal transformation found for {array}")
        with obs.span("rank", scored=scored):
            leaders = _level_leaders(
                seed, stack, survivors, verdict, window_dists, verify_top
            )
        exacts = evaluate_exact(program, leaders, array=array)
        exact, t = _first_min(zip(exacts, leaders))
        return SearchResult(array, t, exact, exact, examined, "3d-level-search")


def _level_leaders(
    seed: IntMatrix | None,
    stack: np.ndarray,
    survivors: np.ndarray,
    verdict: StackScreen,
    window_dists: Sequence[tuple[int, ...]],
    verify_top: int,
) -> list[IntMatrix]:
    """The ``verify_top`` best of the seed (first) and the surviving
    stack matrices (in stack order), by one stable sort on deeper
    minimum reuse level, then deeper level sum, then smaller entries."""
    min_level = verdict.min_level[survivors]
    level_sum = verdict.level_sum[survivors]
    weight = np.abs(stack[survivors]).sum(axis=(1, 2), dtype=np.int64)
    if seed is not None:
        own = screen_stack(np.array([seed.rows]), window_dists, ())
        # Survivors weigh at most n^2 * bound, so an int64 cap on the
        # seed's weight keeps every comparison.
        cap = np.iinfo(np.int64).max
        min_level = np.concatenate((own.min_level, min_level))
        level_sum = np.concatenate((own.level_sum, level_sum))
        weight = np.concatenate(([min(_entry_weight(seed), cap)], weight))
    order = np.lexsort((weight, -level_sum, -min_level))[:verify_top]
    offset = 0 if seed is None else 1
    return [
        seed if pos < offset else IntMatrix(stack[survivors[pos - offset]].tolist())
        for pos in order.tolist()
    ]


def search_general(program: Program, array: str) -> SearchResult:
    """Depth-agnostic search: signed permutations + access embeddings.

    For nests deeper than 3 the paper gives no closed form, and bounded
    unimodular enumeration explodes (``~3^(n*n)`` determinant checks).
    The tractable space that still captures the paper's motion-estimation
    wins is the ``2^n * n!`` signed permutations (Eisenbeis et al.'s
    space) plus each reference's access-matrix embedding; candidates are
    scored through :func:`evaluate_cascade`, whose certified reuse
    facts settle many of them without a simulation.
    """
    if not program.refs_to(array):
        raise KeyError(array)
    return _cached_result(
        "general", program, array, lambda: _search_general(program, array)
    )


def _search_general(program: Program, array: str) -> SearchResult:
    refs = program.refs_to(array)
    with obs.span("search.general", array=array, depth=program.nest.depth):
        n = program.nest.depth
        order_dists = ordering_distances(program, array)
        window_dists = reuse_distances(program, array)
        candidates: dict[IntMatrix, None] = {IntMatrix.identity(n): None}
        jr = journal.active()
        if jr is not None:
            jr.record("seed", IntMatrix.identity(n).rows, "candidate")
        for ref in refs:
            if ref.rank >= n or ref.access.rank() != ref.rank:
                continue
            rows = [list(ref.access.row(k)) for k in range(ref.rank)]
            embedded = complete_rows_legal(rows, window_dists)
            if embedded is not None and is_legal(embedded, order_dists):
                candidates.setdefault(embedded, None)
                if jr is not None:
                    jr.record("seed", embedded.rows, "candidate")
        stack = signed_permutation_stack(n)
        examined = len(stack)
        legal, _ = _screened(stack, (), order_dists, False, jr)
        for t in as_matrices(stack[legal]):
            candidates.setdefault(t, None)
        obs.counter("search.candidates.examined", examined)
        _, (exact, t) = cascade_winner(program, list(candidates), array=array)
        return SearchResult(
            array, t, exact, exact, examined, "permutation-search"
        )


def search_best_transformation(
    program: Program,
    array: str,
    bound: int = 6,
) -> SearchResult:
    """Per-array search by nest depth: the 2-D row search, the 3-D
    level search (bound capped at 2), or :func:`search_general`.

    Serves the api ``search`` kind and ``repro explain``; the Figure-2
    table runs :func:`repro.core.optimizer.optimize_program` instead.
    """
    depth = program.nest.depth
    if depth == 2:
        return search_mws_2d(program, array, bound=bound)
    if depth == 3:
        return search_mws_3d(program, array, bound=min(bound, 2))
    return search_general(program, array)


def exhaustive_search(
    program: Program,
    array: str,
    bound: int = 1,
    tileable_only: bool = True,
) -> SearchResult:
    """Brute-force over all bounded unimodular matrices, exact scoring.

    The ablation baseline: guaranteed optimal within the entry bound, but
    exponential — keep ``bound`` at 1 or 2 and the depth at 3 or less
    (:func:`search_general` covers deeper nests tractably).  Candidates
    run through :func:`evaluate_cascade`, so the "exhaustive" cost is
    paid only by candidates the certified reuse floor cannot exclude.
    """
    n = program.nest.depth
    with obs.span("search.exhaustive", array=array, bound=bound):
        order_dists = ordering_distances(program, array)
        window_dists = reuse_distances(program, array)
        jr = journal.active()
        stack = unimodular_stack(n, bound)
        examined = len(stack)
        with obs.span("enumerate"):
            keep, _ = _screened(
                stack, window_dists, order_dists, tileable_only, jr
            )
            legal = as_matrices(stack[keep])
        obs.counter("search.candidates.examined", examined)
        if not legal:
            raise ValueError(f"no legal transformation found for {array}")
        _, (exact, t) = cascade_winner(program, legal, array=array)
        return SearchResult(array, t, exact, exact, examined, "exhaustive")
