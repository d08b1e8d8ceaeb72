"""Batched multi-candidate MWS scoring: the one exact window sweep.

The paper (Section 2.3) defines MWS as the peak number of elements whose
first/last-touch interval ``[first, last)`` is open at one time.  Every
dense-engine score runs through this module's sweep: :func:`batched_mws`
scores K candidates at once, and the per-candidate entry points of
:mod:`repro.window.fast` are the same scorer at K=1.

The search's hot path scores hundreds of candidate transformations of
*one* program, and everything about the program — the iteration matrix,
each array's element layout — is transformation-invariant and already
cached (:mod:`repro.window.fast`).  The scorer

* folds each candidate's mixed-radix pack into a single weight vector
  (the pack is linear in ``u = T @ i``), computes all K time keys with
  one ``(K, n) @ (n, N)`` matmul against the shared point matrix, and
  runs the first/last-touch min/max reductions and the occupancy sweep
  across the candidate axis in single vectorized ops.
  A candidate whose transformed extents overflow the int64 pack falls
  back to ``np.lexsort`` dense ranks for its key row only and still
  joins the batched sweep;
* picks the sweep's body from the element count (see :func:`_sweep`).

Counters: ``batch.candidates`` (candidates entering :func:`batched_mws`).
Every scored candidate bumps ``fast.simulate.calls`` once, and every
candidate :func:`batched_mws` scores on the dense engine bumps
``engine.fast.calls`` once — the count
:func:`repro.window.simulator.max_window_size` keeps per call — so
per-candidate and batched totals reconcile exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.ir.program import Program
from repro.linalg import IntMatrix
from repro.window import fast
from repro.window.simulator import check_transformation

#: Candidates per batch for the cascade's survivor windows.  Measured
#: on the Figure-2 table: the per-batch win saturates around 8-16
#: survivors (key computation amortizes; the sweep is already one call),
#: while larger windows delay incumbent updates and simulate candidates
#: a tighter window would have pruned.
BATCH_SIZE = 16

#: Magnitude ceiling for values entering the vectorized int64 candidate
#: prep.  The true wrap limit is 2**63; screening at 2**58 leaves room
#: for float64 rounding in the screen itself and for summing up to
#: sixteen screened terms without overflow.
_SAFE_PREP = float(1 << 58)

#: Same screen for int32 keys: wrap is at 2**31, so clearing 2**27
#: keeps the identical 16x rounding margin and summation headroom.
_SAFE_PREP32 = float(1 << 27)

#: Ceiling on ``rows x iteration-points`` processed per internal chunk;
#: bounds the ``(K, N)`` key matrix and the sweep temporaries to a few
#: hundred MiB regardless of how many misses a caller submits at once.
_CHUNK_ELEMS = 1 << 24

#: Element-count ceiling for the batched event-sort sweep; above it the
#: per-row sort/searchsorted scan wins.  Crossover measured on the bench
#: suite sits near 10^4 elements; the constant is deliberately below it
#: (both bodies are exact, so only speed is at stake).
_EVENT_SWEEP_MAX_ELEMS = 4096


def _batched_time_keys(
    program: Program, candidates: Sequence[IntMatrix | None]
) -> np.ndarray:
    """Order-isomorphic time keys for every candidate: ``(K, N)`` ints.

    Row ``k`` orders the iterations exactly like
    ``fast._execution_times(program, candidates[k])`` (as an order, which
    is all the sweep reads).  The mixed-radix pack of ``u = T @ i`` over
    per-column extents is *linear* in ``u``: with weights
    ``w[d] = prod(spans[d+1:])``,

        packed = sum_d (u_d - min_d) * w_d = i . (T^T w) - sum_d min_d w_d

    so the entire batch collapses to one ``(B, n) @ (n, N)`` integer
    matmul against the shared point matrix plus a per-candidate offset —
    no ``(B, N, n)`` intermediate and no per-dimension packing passes.
    The fused dot loses the Horner form's stay-in-range guarantee, so
    each candidate's partial sums are bounded (interval arithmetic over
    the box, any summation order) before it joins the batch; candidates
    that overflow — or whose spans overflow the pack itself — fall back
    to dense lexsort ranks for their row alone (``fast.pack.fallback``;
    a ``T @ i`` that could itself pass 2**62 raises ``ValueError``
    there), and ``None`` rows are the native order.

    When the whole batch is provably bounded under 2**27 the keys are
    emitted as int32: every downstream sweep stage (gather, min/max,
    sort, scan) moves half the bytes, which is most of the win on
    small nests.
    """
    state = fast._iter_state(program)
    points = state.points
    total = points.shape[0]
    lowers = list(program.nest.lowers)
    uppers = list(program.nest.uppers)
    depth = program.nest.depth
    mat_rows: list[int] = []
    mats: list[IntMatrix] = []
    none_rows: list[int] = []
    for k, t in enumerate(candidates):
        if t is None:
            none_rows.append(k)
        elif t.shape != (depth, depth):
            # The determinant screens below read only the leading
            # square block, so a non-square row stack must stop here.
            check_transformation(t, depth)
        else:
            mat_rows.append(k)
            mats.append(t)
    dtype = np.int64
    mm_float = False
    tstack = None
    safe_pos = np.empty(0, dtype=np.intp)
    exact: list[int] = []  # positions in ``mats`` for the python-int path
    if mats:
        try:
            tstack = np.array([t.rows for t in mats], dtype=np.int64)
        except OverflowError:
            for t in mats:
                if t.det() not in (1, -1):
                    raise ValueError("transformation must be unimodular")
            exact = list(range(len(mats)))
    if tstack is not None:
        n = tstack.shape[1]
        det_limit = 2.0 ** max(1.0, (53.0 - n) / n - 2.0)
        # Crude whole-batch prescreen: with c = max|T_ij| and
        # L = max|bound|, every quantity the integer prep computes is
        # dominated by a closed form of (c, L, n) alone — spans by
        # S = 2ncL + 1, the span product by S**n, weights by n*c*S**(n-1),
        # offsets and the matmul's worst partial sum by
        # n**2*c*max(L,1)*S**(n-1).  When that scalar clears
        # ``_SAFE_PREP32`` the whole batch provably fits int32 keys and
        # the per-candidate float screen below is skipped entirely (the
        # common case: small coefficients, modest bounds).  A looser
        # crude value is not a verdict — the per-candidate screen can
        # still prove tighter bounds (e.g. permutations of a deep nest,
        # where S**n wildly overestimates the true span product).
        coeff = float(np.abs(tstack).max())
        bnd = float(max(map(abs, lowers + uppers)))
        span_c = 2.0 * n * coeff * bnd + 1.0
        crude = max(
            span_c**n,
            n * n * coeff * max(bnd, 1.0) * span_c ** (n - 1),
            coeff * bnd,
        )
        if crude < _SAFE_PREP32 and coeff < det_limit:
            # Determinants: exact int64 cofactor expansion for n <= 3
            # (the coefficient cap bounds every term), float for deeper
            # nests (exact under the same cap).
            if n == 1:
                dets = tstack[:, 0, 0]
            elif n == 2:
                dets = (
                    tstack[:, 0, 0] * tstack[:, 1, 1]
                    - tstack[:, 0, 1] * tstack[:, 1, 0]
                )
            elif n == 3:
                t = tstack
                dets = (
                    t[:, 0, 0]
                    * (t[:, 1, 1] * t[:, 2, 2] - t[:, 1, 2] * t[:, 2, 1])
                    - t[:, 0, 1]
                    * (t[:, 1, 0] * t[:, 2, 2] - t[:, 1, 2] * t[:, 2, 0])
                    + t[:, 0, 2]
                    * (t[:, 1, 0] * t[:, 2, 1] - t[:, 1, 1] * t[:, 2, 0])
                )
            else:
                dets = np.rint(np.linalg.det(tstack.astype(np.float64)))
            if (np.abs(dets) != 1).any():
                raise ValueError("transformation must be unimodular")
            safe_pos = np.arange(len(mats))
            dtype = np.int32
            mm_float = True
        else:
            # Float64 screen over the whole stack: every quantity the
            # int64 prep will compute — extents, span products, weight
            # vectors, offsets, and the matmul's worst partial sum — is
            # bounded from above in float first.  Candidates whose
            # bounds clear ``_SAFE_PREP`` are provably wrap-free in
            # int64 (the screen keeps 16x headroom over float rounding
            # and an 8-term summation margin under 2**62); the rest
            # take the exact python-int path.
            tf = tstack.astype(np.float64)
            lo_f = np.array(lowers, dtype=np.float64)
            up_f = np.array(uppers, dtype=np.float64)
            a = tf * lo_f
            b = tf * up_f
            mins_f = np.minimum(a, b).sum(axis=2)
            maxs_f = np.maximum(a, b).sum(axis=2)
            spans_f = maxs_f - mins_f + 1.0
            incl = np.cumprod(spans_f[:, ::-1], axis=1)[:, ::-1]
            wdims_f = np.concatenate(
                (incl[:, 1:], np.ones((len(mats), 1))), axis=1
            )
            wp_bound = (np.abs(tf) * wdims_f[:, :, None]).sum(axis=1)
            reach_f = (
                wp_bound * np.maximum(np.abs(lo_f), np.abs(up_f))
            ).sum(axis=1)
            off_bound = (
                np.maximum(np.abs(mins_f), np.abs(maxs_f)) * wdims_f
            ).sum(axis=1)
            elem_bound = np.maximum(np.abs(a), np.abs(b)).max(axis=(1, 2))
            safe = (
                (incl[:, 0] < _SAFE_PREP)
                & (reach_f < _SAFE_PREP)
                & (off_bound < _SAFE_PREP)
                & (elem_bound < _SAFE_PREP)
                & (wp_bound.max(axis=1) < _SAFE_PREP)
            )
            # Unimodularity: the float det is exact while every det
            # term stays inside float64's 53-bit mantissa; bigger
            # coefficients re-check with the exact integer det.
            coeff_max = np.abs(tf).max(axis=(1, 2))
            det_exact = coeff_max < det_limit
            dets = np.rint(np.linalg.det(tf))
            if (det_exact & (np.abs(dets) != 1.0)).any():
                raise ValueError("transformation must be unimodular")
            for pos in np.nonzero(~det_exact)[0]:
                if mats[pos].det() not in (1, -1):
                    raise ValueError("transformation must be unimodular")
            safe_pos = np.nonzero(safe)[0]
            exact = [int(p) for p in np.nonzero(~safe)[0]]
            if safe_pos.size:
                # Tight per-batch ceiling from the screened quantities:
                # under 2**27 every safe row fits int32 (requires no
                # python-int rows, whose values are unscreened); under
                # 2**53 the key matmul is exact in float64 (BLAS).
                batch_bound = max(
                    float(incl[safe_pos, 0].max()),
                    float(reach_f[safe_pos].max()),
                    float(off_bound[safe_pos].max()),
                    float(elem_bound[safe_pos].max()),
                    float(wp_bound[safe_pos].max()),
                )
                if (
                    not exact
                    and batch_bound < _SAFE_PREP32
                    and total < 1 << 30
                ):
                    dtype = np.int32
                mm_float = batch_bound < float(1 << 53)
    keys = np.empty((len(candidates), total), dtype=dtype)
    if none_rows:
        keys[none_rows] = np.arange(total, dtype=dtype)
    if not mats:
        return keys
    krows = np.array(mat_rows, dtype=np.intp)
    if tstack is not None and safe_pos.size:
        ts = tstack if safe_pos.size == len(mats) else tstack[safe_pos]
        a64 = ts * np.array(lowers, dtype=np.int64)
        b64 = ts * np.array(uppers, dtype=np.int64)
        mins64 = np.minimum(a64, b64).sum(axis=2)
        maxs64 = np.maximum(a64, b64).sum(axis=2)
        spans64 = maxs64 - mins64 + 1
        incl64 = np.cumprod(spans64[:, ::-1], axis=1)[:, ::-1]
        wdims64 = np.concatenate(
            (
                incl64[:, 1:],
                np.ones((safe_pos.size, 1), dtype=np.int64),
            ),
            axis=1,
        )
        wprime64 = (ts * wdims64[:, :, None]).sum(axis=1)
        offs64 = (mins64 * wdims64).sum(axis=1)
        # Weights on the left so the product comes out ``(S, N)``, row-
        # major like ``keys``: the cast-assign below then copies whole
        # rows instead of transposing an ``(N, S)`` result element-wise.
        if mm_float:
            packed = wprime64.astype(np.float64) @ state.points_f64().T
            # every product and partial sum is an exact float64 integer
            packed -= offs64.astype(np.float64)[:, None]
        else:
            packed = wprime64 @ points.T
            packed -= offs64[:, None]
        # Assignment casts float/int64 into the key dtype in place —
        # values are proven in range, so the cast is exact.
        if safe_pos.size == len(candidates):
            keys[...] = packed
        else:
            keys[krows[safe_pos]] = packed
    packed_rows: list[int] = []
    packs: list[tuple[list[int], int]] = []
    for pos in exact:
        pack = fast._time_pack(mats[pos].rows, lowers, uppers)
        if pack is None:
            obs.counter("fast.pack.fallback")
            keys[mat_rows[pos]] = fast._execution_times(program, mats[pos])
        else:
            packed_rows.append(mat_rows[pos])
            packs.append(pack)
    if packed_rows:
        # Exact-path candidates that proved wrap-free with python ints:
        # their weight vectors join one small matmul of their own.
        wmat = np.array([w for w, _ in packs], dtype=np.int64)  # (B, n)
        packed = wmat @ points.T  # (B, N)
        packed -= np.array([c for _, c in packs], dtype=np.int64)[:, None]
        keys[np.array(packed_rows, dtype=np.intp)] = packed
    return keys


def _peak_concurrent(starts: np.ndarray, ends: np.ndarray) -> int:
    """Peak number of concurrently open half-open intervals.

    Occupancy at time ``t`` is ``#(starts <= t) - #(ends <= t)`` (an
    element is windowed for ``first <= t < last``) and only increases at
    start times, so scanning sorted starts suffices: the ``i``-th
    smallest start ``s`` sees ``i + 1`` opens (for the last duplicate of
    a tied start value, which is where the maximum lands) minus the ends
    at or before ``s``.  A degenerate interval (``first == last``, an
    element touched at one time only) has its end counted at its own
    start, so it nets zero at every scan point.
    """
    if starts.size == 0:
        return 0
    starts = np.sort(starts)
    ends = np.sort(ends)
    occupancy = np.arange(1, starts.size + 1, dtype=np.int64)
    occupancy -= np.searchsorted(ends, starts, side="right")
    return int(occupancy.max())


def _sweep(
    states: Sequence[fast._ElementState], keys: np.ndarray
) -> np.ndarray:
    """Exact MWS of every key row over the arrays of ``states`` (their
    sum-window when several): the peak count of open first/last-touch
    intervals.

    Each element's access-time keys reduce to ``(first, last)`` with a
    segmented min/max over the cached element-sorted layout; single-touch
    elements stay in, as degenerate intervals that net zero.  The
    ``(K, A)`` gathered rows are reduced as one flat 1-D array with the
    segment starts repeated per row (offset by ``A``): numpy's 2-D
    ``reduceat(axis=1)`` walks each segment with a strided inner loop
    and is an order of magnitude slower once ``K > 1``.  Up to
    :data:`_EVENT_SWEEP_MAX_ELEMS` elements the events are encoded
    in-band — ``2*last`` for ends, ``2*first + 1`` for starts — so one
    (unstable) in-place sort over the ``(K, 2E)`` batch orders them with
    every tie broken end-before-start, and a cumulative +1/-1 scan of the
    low bit reads the occupancy after each event.  Keys are bounded by
    2**62 (the ``spans_fit_int64`` pack budget, or dense-rank row counts;
    2**27 for int32 keys), so the doubling cannot wrap.  Past that size
    each row runs :func:`_peak_concurrent`: two sorts of E keys beat one
    sort of 2E events once E dwarfs the per-row call overhead.
    """
    n_rows = keys.shape[0]
    firsts = []
    lasts = []
    for st in states:
        n_acc = st.point_row.shape[0]
        seq = np.take(keys, st.point_row, axis=1).ravel()
        if n_rows == 1:
            segs = st.seg_starts
        else:
            segs = (
                st.seg_starts + n_acc * np.arange(n_rows)[:, None]
            ).ravel()
        firsts.append(np.minimum.reduceat(seq, segs).reshape(n_rows, -1))
        lasts.append(np.maximum.reduceat(seq, segs).reshape(n_rows, -1))
    starts = firsts[0] if len(firsts) == 1 else np.concatenate(firsts, axis=1)
    ends = lasts[0] if len(lasts) == 1 else np.concatenate(lasts, axis=1)
    n_elems = starts.shape[1]
    if n_elems > _EVENT_SWEEP_MAX_ELEMS:
        return np.array(
            [_peak_concurrent(s, e) for s, e in zip(starts, ends)],
            dtype=np.int64,
        )
    times = np.empty((keys.shape[0], 2 * n_elems), dtype=keys.dtype)
    np.multiply(ends, 2, out=times[:, :n_elems])
    np.multiply(starts, 2, out=times[:, n_elems:])
    times[:, n_elems:] += 1
    times.sort(axis=1)
    # Occupancy after the k-th event is 2 * (#starts so far) - (k + 1).
    times &= 1
    np.cumsum(times, axis=1, out=times)
    times += times
    times -= np.arange(1, 2 * n_elems + 1, dtype=np.int64)
    return times.max(axis=1, initial=0)


def _score(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    arrays: Sequence[str],
    label: str,
) -> list[int]:
    """Exact window of every candidate over ``arrays`` (their sum-window
    when several): the body of :func:`batched_mws`, and of the
    per-candidate entry points in :mod:`repro.window.fast` at K=1.
    ``label`` names the array (``"*"`` for a sum) on the span."""
    obs.counter("fast.simulate.calls", len(candidates))
    if not candidates:
        return []
    if not arrays:
        return [0] * len(candidates)
    states = [fast._element_state(program, a) for a in arrays]
    total = fast._iter_state(program).points.shape[0]
    chunk = max(1, _CHUNK_ELEMS // max(1, total))
    values: list[int] = []
    with obs.span("simulate", candidates=len(candidates), array=label):
        for start in range(0, len(candidates), chunk):
            keys = _batched_time_keys(program, candidates[start : start + chunk])
            values.extend(_sweep(states, keys).tolist())
    return values


def batched_mws(
    program: Program,
    candidates: Sequence[IntMatrix | None],
    array: str | None = None,
    engine: str = "auto",
) -> list[int]:
    """Exact MWS of every candidate transformation, scored as one batch.

    ``array=None`` scores the program-level total window (sum over all
    arrays), a name scores that array alone — value-identical to calling
    :func:`repro.window.simulator.max_window_size` /
    ``max_total_window`` per candidate with the reference engine (the
    differential suite pins this), including ``ValueError`` for
    mis-shaped or non-unimodular candidates and ``KeyError`` for unknown
    arrays.  Only the dense numpy engine has a batched formulation; when
    ``engine`` resolves to anything else the candidates are scored
    per-candidate through the resolved engine.
    """
    from repro.window.simulator import (
        max_total_window,
        max_window_size,
        resolve_engine,
    )

    obs.counter("batch.candidates", len(candidates))
    resolved = resolve_engine(program, engine)
    if resolved != "fast":
        if array is None:
            return [
                max_total_window(program, t, engine=resolved)
                for t in candidates
            ]
        return [
            max_window_size(program, array, t, engine=resolved)
            for t in candidates
        ]
    if array is not None and not program.refs_to(array):
        raise KeyError(array)
    obs.counter("engine.fast.calls", len(candidates))
    arrays = (array,) if array is not None else tuple(program.arrays)
    return _score(program, candidates, arrays, array or "*")
