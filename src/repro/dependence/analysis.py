"""Dependence distance computation for affine references.

For uniformly generated references ``A @ I + b1`` and ``A @ J + b2`` the
same element is touched when ``A @ (J - I) = b1 - b2``.  The solutions
form a *family* ``particular + span_Z(kernel(A))``, and the distances two
iterations of the nest really have are the members inside the difference
box ``|d_k| <= trip_k - 1``.  :func:`family_in_box` is the one function
that decides which members exist there.  The paper's dependence vector
(Section 4.2) is the smallest lexicographically positive one
(:func:`array_dependences`); legality reads the extreme ones
(:func:`ordering_vectors`), and so does the search cascade's reuse
certificate (:func:`repro.estimation.bounds.certified_reuse`).

Non-uniform pairs generally have no constant distance: their ordering
vectors are the distinct differences of iteration pairs that share an
element (:func:`sharing_differences`, array code over the dense engine;
:func:`iteration_pairs_sharing_element` is the per-point reference), and
:func:`gcd_test` is the classic existence filter.  Fusion and
distribution ask, per pair of references, whether one touches an element
at a later iteration than the other, or at the same one
(:func:`pair_order`).
:func:`dependence_distance` and :func:`self_reuse_distance` give the
paper's estimators one vector per family: the box-free smallest member
where the kernel has dimension at most 1, the lex-smallest member in the
box beyond.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.dependence.distance import is_lex_positive, lex_level
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.linalg import IntMatrix, integer_nullspace, smith_normal_form
from repro.linalg.gcd import ceil_div, gcd_list


class DependenceKind(enum.Enum):
    """Classification by the access kinds of source and sink."""

    FLOW = "flow"  # write -> read
    ANTI = "anti"  # read -> write
    OUTPUT = "output"  # write -> write
    INPUT = "input"  # read -> read (pure reuse; no ordering constraint)

    @classmethod
    def of(cls, src_is_write: bool, dst_is_write: bool) -> "DependenceKind":
        if src_is_write and not dst_is_write:
            return cls.FLOW
        if not src_is_write and dst_is_write:
            return cls.ANTI
        if src_is_write and dst_is_write:
            return cls.OUTPUT
        return cls.INPUT

    @property
    def constrains_order(self) -> bool:
        """Input dependences do not constrain legality."""
        return self is not DependenceKind.INPUT


@dataclass(frozen=True)
class Dependence:
    """A constant-distance dependence between two references.

    ``reduction`` marks dependences between scalar-in-nest references
    (all-zero access matrices, e.g. a SAD accumulator written every
    iteration): any execution order conflicts on such a cell, and
    compilers treat the associated updates as reorderable reductions, so
    legality checks exclude them by default.
    """

    array: str
    distance: tuple[int, ...]
    kind: DependenceKind
    source: ArrayRef
    sink: ArrayRef
    reduction: bool = False

    @property
    def level(self) -> int | None:
        return lex_level(self.distance)

    def __str__(self) -> str:
        return f"{self.kind} {self.array} d={self.distance}"


def _smallest_on_line(
    p: tuple[int, ...], v: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Smallest lex-positive point of ``{p + t*v : t in Z}``, or None.

    ``v`` is lex-positive (nullspace normalization), so the lex order
    along the line grows with ``t`` (:func:`_first_lex_positive`).  A
    positive component of ``p`` before ``v``'s first nonzero one makes
    every point lex-positive; the representative then reduces the
    component at that lead to its smallest non-negative residue.
    """
    t = _first_lex_positive(p, v)
    if t == math.inf:
        return None
    if t == -math.inf:
        lead = next(k for k, x in enumerate(v) if x != 0)
        t = -(p[lead] // v[lead])
    return tuple(pk + t * vk for pk, vk in zip(p, v))


def dependence_distance(
    src: ArrayRef, dst: ArrayRef, spans: Sequence[int]
) -> tuple[int, ...] | None:
    """Smallest lex-positive ``d`` with ``dst`` at ``I + d`` touching the
    element ``src`` touches at ``I`` — or None.

    By the kernel dimension ``K`` of the access matrix:

    * ``K <= 1``: the paper's box-free vector.  The Section 3 formulas
      clamp components past the box to zero, and the parametric base
      must see distances past it.
    * ``K >= 2``: the lex-smallest member inside the difference box
      ``|d_k| <= spans[k]`` (:func:`family_in_box`), since without a box
      the lex order has no smallest member.  Finding it past
      ``REPRO_DENSE_BUDGET`` raises ``ValueError``: the answer is
      unknown, and each reader takes its conservative branch.

    Requires uniformly generated references (same access matrix); raises
    otherwise, because no constant distance exists in general.
    """
    if not src.uniformly_generated_with(dst):
        raise ValueError(
            "dependence_distance requires uniformly generated references"
        )
    return _smallest_member(src.access, _delta(src, dst), spans)


def self_reuse_distance(
    ref: ArrayRef, spans: Sequence[int]
) -> tuple[int, ...] | None:
    """Smallest lex-positive ``d`` with ``A @ d = 0`` — the reuse vector of
    a single reference (paper Example 4) — or None for injective accesses
    (and, at ``K >= 2``, for a box no such ``d`` fits).  The box rules
    are :func:`dependence_distance`'s."""
    if not _kernel(ref.access):
        return None
    return _smallest_member(ref.access, (0,) * ref.rank, spans)


def _smallest_member(
    access: IntMatrix, delta: Sequence[int], spans: Sequence[int]
) -> tuple[int, ...] | None:
    kernel = _kernel(access)
    if len(kernel) >= 2:
        members = family_in_box(access, delta, spans)
        if members is None:
            from repro.window.fast import DENSE_BUDGET_ENV

            raise ValueError(
                f"the lex-smallest member of a {len(kernel)}-D dependence "
                f"family in the box {tuple(spans)} is past {DENSE_BUDGET_ENV}"
            )
        return members[0] if members else None
    p = _particular_solution(access, delta)
    if p is None:
        return None
    if not kernel:
        return p if is_lex_positive(p) else None
    return _smallest_on_line(p, kernel[0])


#: Access matrix -> its Smith form: every pair of an array's references
#: shares it.
_smith = functools.lru_cache(maxsize=256)(smith_normal_form)


@functools.lru_cache(maxsize=256)
def _kernel(access: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel of ``access`` (cached per matrix)."""
    return tuple(integer_nullspace(access))


def clear_family_cache() -> None:
    """Drop the memoized Smith forms, kernels and family members."""
    _smith.cache_clear()
    _kernel.cache_clear()
    _members_in_box.cache_clear()


def _particular_solution(
    a: IntMatrix, rhs: Sequence[int]
) -> tuple[int, ...] | None:
    """One integer solution of ``a @ x = rhs`` or None.

    Via Smith normal form: ``S = U A V`` gives ``x = V y`` with
    ``S y = U rhs`` solved diagonally.
    """
    s, u, v = _smith(a)
    transformed = u.apply(rhs)
    y = []
    for k in range(a.n_cols):
        diag = s[k, k] if k < s.n_rows and k < s.n_cols else 0
        target = transformed[k] if k < len(transformed) else 0
        if diag == 0:
            if k < len(transformed) and transformed[k] != 0:
                return None
            y.append(0)
        else:
            if target % diag != 0:
                return None
            y.append(target // diag)
    # Remaining rows of S (beyond n_cols) must be consistent.
    for k in range(a.n_cols, s.n_rows):
        if transformed[k] != 0:
            return None
    return v.apply(y)


def gcd_test(src: ArrayRef, dst: ArrayRef) -> bool:
    """Classic GCD existence test, per dimension, ignoring loop bounds.

    True means a dependence *may* exist (the equation
    ``src(I) = dst(J)`` has an integer solution dimension-wise); False
    proves independence.  Works for non-uniformly generated pairs.
    """
    if src.array != dst.array:
        return False
    for dim in range(src.rank):
        coeffs = list(src.access.row(dim)) + [-c for c in dst.access.row(dim)]
        rhs = dst.offset[dim] - src.offset[dim]
        g = gcd_list(coeffs)
        if g == 0:
            if rhs != 0:
                return False
        elif rhs % g != 0:
            return False
    return True


def iteration_pairs_sharing_element(
    nest: LoopNest, src: ArrayRef, dst: ArrayRef
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact enumeration of iteration pairs ``(I, J)``, ``I`` lex-before
    ``J``, where ``src`` at ``I`` and ``dst`` at ``J`` touch one element.

    The oracle for non-uniform dependence questions; quadratic in the
    iteration count, so use on paper-sized nests only.
    """
    by_element: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for point in nest.iterate():
        by_element.setdefault(src.element(point), []).append(point)
    for point in nest.iterate():
        for earlier in by_element.get(dst.element(point), ()):
            if earlier < point:
                yield earlier, point


def pair_order(
    program: Program, src: ArrayRef, dst: ArrayRef
) -> tuple[bool, bool]:
    """``(later, same)`` for two references to one array of ``program``:
    ``later`` when ``dst`` touches, at some iteration lex-after ``I``, an
    element that ``src`` touches at ``I``; ``same`` when the two touch
    one element at one iteration.  Exact inside the nest's box; past
    ``REPRO_DENSE_BUDGET`` the answer is unknown and reads ``True``.

    A uniformly generated pair reads :func:`family_in_box` (interval
    arithmetic up to kernel dimension 1, so a huge nest costs nothing)
    and its offsets.  Any other pair compares, over the dense engine's
    element ids, the first native position (native order is lex order)
    at which ``src`` touches each element with the last at which ``dst``
    touches it.

    >>> from repro.ir import parse_program
    >>> p = parse_program("for i = 1 to 9 { for j = 1 to 9 { A[i][j] = A[i-1][j] } }")
    >>> write, read = p.statements[0].writes[0], p.statements[0].reads[0]
    >>> pair_order(p, write, read), pair_order(p, read, write)
    ((True, False), (False, False))
    """
    if src.uniformly_generated_with(dst):
        members = family_in_box(src.access, _delta(src, dst), program.nest.spans)
        return members is None or bool(members), src.offset == dst.offset
    from repro.window import fast

    refs = program.refs_to(src.array)
    try:
        element = fast._element_state(program, src.array)
    except ValueError:
        return True, True
    src_ids, dst_ids = element.ids[refs.index(src)], element.ids[refs.index(dst)]
    positions = np.arange(src_ids.shape[0])
    first = np.full(element.packed.shape[0], src_ids.shape[0])
    np.minimum.at(first, src_ids, positions)
    last = np.full(element.packed.shape[0], -1)
    np.maximum.at(last, dst_ids, positions)
    return bool((first < last).any()), bool((src_ids == dst_ids).any())


#: Grid points :func:`family_in_box` enumerates per block.
_ENUM_BLOCK = 1 << 16

#: Entries below this stay int64 in the enumeration; past it, exact ints.
_INT64_SAFE = 2**62


def family_in_box(
    access: IntMatrix, delta: Sequence[int], spans: Sequence[int]
) -> tuple[tuple[int, ...], ...] | None:
    """The *members* of a dependence family that decide it: of the
    lex-positive ``d`` with ``access @ d == delta`` and
    ``|d_k| <= spans[k]``, the extreme ones, in lex order; or ``None``
    when finding them would enumerate more than ``REPRO_DENSE_BUDGET``
    points.

    Every returned vector is a member, the first is the lex-smallest
    member, and every member is a nonnegative combination of returned
    ones.  So a check that sums and positive multiples preserve (``T d``
    lex-positive, ``T d >= 0``, ``row . d >= 0``) holds for the whole
    family once it holds on the result.  By the kernel dimension ``K``
    of ``access``:

    * ``K = 0``: the particular solution, if it is a member;
    * ``K = 1``: both ends of the interval of ``t`` that interval
      arithmetic gives for ``particular + t * v`` (no enumeration, so a
      huge trip count costs nothing);
    * ``K = 2``: the vertices of the members' convex hull;
    * ``3 <= K < n``: every member that ends its line along one
      enumerated coordinate (the members between are convex
      combinations of the ends);
    * ``K = n`` (a zero access matrix, so every ``d`` is a member):
      :func:`lex_positive_cone`.

    ``K >= 2`` below ``n`` enumerates the ``K`` coordinates with the
    smallest box (and a nonsingular kernel minor) and solves exactly for
    the others through the minor's adjugate.  Paper Example 8's flow
    family:

    >>> family_in_box(IntMatrix([[2, 5]]), (-4,), (24, 9))
    ((3, -2), (18, -8))
    """
    delta = tuple(delta)
    particular = _particular_solution(access, delta)
    if particular is None:
        return ()
    from repro.window.fast import dense_budget

    return _members_in_box(
        tuple(particular), _kernel(access), tuple(spans), dense_budget()
    )


@functools.lru_cache(maxsize=4096)
def _members_in_box(
    p: tuple[int, ...],
    kernel: tuple[tuple[int, ...], ...],
    spans: tuple[int, ...],
    budget: int,
) -> tuple[tuple[int, ...], ...] | None:
    if not kernel:
        fits = all(abs(x) <= s for x, s in zip(p, spans))
        return (p,) if fits and is_lex_positive(p) else ()
    if len(kernel) == 1:
        return _members_on_line(p, kernel[0], spans)
    if len(kernel) == len(p):
        # A zero access matrix: the family is all of Z^n.
        return tuple(lex_positive_cone(spans))
    return _members_enumerated(p, kernel, spans, budget)


def _members_on_line(
    p: tuple[int, ...], v: tuple[int, ...], spans: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Both ends of the lex-positive in-box stretch of ``p + t * v``."""
    lo, hi = _first_lex_positive(p, v), math.inf
    for pk, vk, s in zip(p, v, spans):
        if vk == 0:
            if abs(pk) > s:
                return ()
            continue
        # |pk + t * vk| <= s  <=>  t * vk in [-s - pk, s - pk]
        bottom, top = (-s - pk, s - pk) if vk > 0 else (s - pk, -s - pk)
        lo = max(lo, ceil_div(bottom, vk))
        hi = min(hi, top // vk)
    if lo > hi:
        return ()
    return tuple(
        tuple(pk + t * vk for pk, vk in zip(p, v)) for t in sorted({lo, hi})
    )


def _first_lex_positive(p: tuple[int, ...], v: tuple[int, ...]) -> float:
    """The smallest ``t`` with ``p + t * v`` lex-positive (``-inf`` when
    every ``t`` is, ``inf`` when none is).  ``v`` is lex-positive (the
    nullspace normalization), so ``p + t * v`` grows lexicographically
    with ``t`` and the lex-positive ``t`` are those from this one on."""
    lead = next(k for k, x in enumerate(v) if x != 0)
    for x in p[:lead]:
        if x != 0:
            return -math.inf if x > 0 else math.inf
    t = ceil_div(-p[lead], v[lead])
    point = tuple(pk + t * vk for pk, vk in zip(p, v))
    return t if is_lex_positive(point) else t + 1


def _members_enumerated(
    p: tuple[int, ...],
    kernel: tuple[tuple[int, ...], ...],
    spans: tuple[int, ...],
    budget: int,
) -> tuple[tuple[int, ...], ...] | None:
    """:func:`family_in_box` for ``K >= 2``: ``d_S = p_S + N_S t`` on the
    chosen coordinates ``S`` gives ``t = adj(N_S) (d_S - p_S) / det``.

    The grid is walked in blocks of whole lines along its last
    coordinate, and of each line's members only the two ends are kept:
    the members between are convex combinations of them.
    """
    k = len(kernel)
    size, coords, minor = min(
        (math.prod(2 * spans[c] + 1 for c in coords), coords, minor)
        for coords in itertools.combinations(range(len(p)), k)
        for minor in [IntMatrix([[v[c] for v in kernel] for c in coords])]
        if minor.det() != 0
    )
    if size > budget:
        return None
    det = minor.det()
    adj = minor.adjugate()
    # |d_S - p_S| <= reach, so |t| <= reach * (row sum of |adj|), and
    # every |d_c| <= |p_c| + K * max|kernel| * that.
    reach = max(spans[c] + abs(p[c]) for c in coords)
    t_reach = reach * max(sum(map(abs, row)) for row in adj.rows)
    d_reach = max(map(abs, p)) + k * max(abs(x) for v in kernel for x in v) * t_reach
    dtype = np.int64 if max(t_reach, d_reach) < _INT64_SAFE else object
    kmat = np.array(kernel, dtype=dtype)
    pvec = np.array(p, dtype=dtype)
    p_s = np.array([p[c] for c in coords], dtype=dtype)
    adj_t = np.array(adj.rows, dtype=dtype).T
    limit = np.array([min(s, _INT64_SAFE) for s in spans], dtype=dtype)
    radix = [2 * spans[c] + 1 for c in coords]
    step = radix[-1] * max(1, _ENUM_BLOCK // radix[-1])
    found, grid = [], []
    for start in range(0, size, step):
        flat = np.arange(start, min(size, start + step), dtype=np.int64)
        line = flat // radix[-1]
        d_s = np.empty((flat.shape[0], k), dtype=np.int64)
        for col in range(k - 1, -1, -1):
            d_s[:, col] = flat % radix[col] - spans[coords[col]]
            flat //= radix[col]
        num = (d_s.astype(dtype) - p_s) @ adj_t
        whole = (num % det == 0).all(axis=1)
        d = pvec + (num[whole] // det) @ kmat
        keep = (np.abs(d) <= limit).all(axis=1) & _lex_positive(d)
        ends = _run_ends(line[whole][keep])
        found.append(d[keep][ends])
        grid.append(d_s[whole][keep][ends])
    members = np.concatenate(found)
    if k == 2:
        members = members[_hull_vertices(np.concatenate(grid))]
    return tuple(sorted(map(tuple, members.tolist())))


def _run_ends(keys: np.ndarray) -> np.ndarray:
    """Mask of the first and the last entry of each run of equal keys."""
    if not len(keys):
        return np.zeros(0, dtype=bool)
    change = keys[1:] != keys[:-1]
    return np.concatenate(([True], change)) | np.concatenate((change, [True]))


def _hull_vertices(points: np.ndarray) -> list[int]:
    """Indices of the convex hull's vertices among distinct 2-D integer
    points sorted by x, then y (Andrew's monotone chain)."""
    if len(points) <= 2:
        return list(range(len(points)))
    pts = points.tolist()

    def chain(indices) -> list[int]:
        out: list[int] = []
        for i in indices:
            while len(out) >= 2:
                (ox, oy), (ax, ay), (bx, by) = pts[out[-2]], pts[out[-1]], pts[i]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    return sorted(chain(range(len(pts))) + chain(reversed(range(len(pts)))))


def _lex_positive(rows: np.ndarray) -> np.ndarray:
    """Per row: the first nonzero entry is positive (the zero row is not)."""
    nonzero = rows != 0
    lead = np.take_along_axis(rows, nonzero.argmax(axis=1)[:, None], axis=1)
    return nonzero.any(axis=1) & (lead[:, 0] > 0)


def lex_positive_cone(spans: Sequence[int]) -> list[tuple[int, ...]]:
    """Generators of the cone of every lex-positive difference in the box
    ``|d_k| <= spans[k]``: per loop level ``k`` with a nonzero span, the
    vectors with ``d_1..d_{k-1} = 0``, ``d_k = 1`` and each later
    component at plus or minus its span.

    An order that keeps these lex-positive keeps every in-box difference
    lex-positive, so this is the sound stand-in for an array whose exact
    set is past the dense budget.

    >>> lex_positive_cone((3, 2))
    [(0, 1), (1, -2), (1, 2)]
    """
    out = []
    for k, span in enumerate(spans):
        if span:
            tails = itertools.product(*[sorted({-s, s}) for s in spans[k + 1:]])
            out.extend((0,) * k + (1,) + tail for tail in tails)
    return sorted(out)


def array_distance_vectors(
    program: Program, array: str, include_input: bool = True
) -> list[tuple[int, ...]]:
    """All distinct dependence distance vectors for one array.

    Includes self-reuse distances (kernel directions) and pairwise
    distances among uniformly generated references; zero (loop-independent)
    vectors are excluded per the paper.  Raises for non-uniformly generated
    arrays — callers should fall back to Section 3.2 bounds there.
    """
    deps = array_dependences(program, array, include_input=include_input)
    seen: dict[tuple[int, ...], None] = {}
    for dep in deps:
        seen.setdefault(dep.distance, None)
    return list(seen)


def _delta(src: ArrayRef, dst: ArrayRef) -> tuple[int, ...]:
    """``dst`` at ``I + d`` touches what ``src`` touches at ``I`` iff
    ``access @ d == _delta(src, dst)``."""
    return tuple(bs - bd for bs, bd in zip(src.offset, dst.offset))


def reference_dependences(
    program: Program, array: str, include_input: bool = True
) -> Iterator[tuple[int, int, Dependence]]:
    """Per ordered pair of references to a uniformly generated ``array``
    (each reference with itself first, then the other pairs), as
    positions in ``program.refs_to(array)``: the lex-smallest lex-positive
    distance two iterations of the nest have, from :func:`family_in_box`,
    when the pair has one.  A family past the dense budget yields nothing.
    """
    refs = program.refs_to(array)
    spans = program.nest.spans
    pairs = [(k, k) for k in range(len(refs))]
    pairs += itertools.permutations(range(len(refs)), 2)
    for s, d in pairs:
        src, dst = refs[s], refs[d]
        kind = DependenceKind.of(src.is_write, dst.is_write)
        if not include_input and kind is DependenceKind.INPUT:
            continue
        members = family_in_box(src.access, _delta(src, dst), spans)
        if members:
            reduction = src.access.is_zero() and dst.access.is_zero()
            yield s, d, Dependence(array, members[0], kind, src, dst, reduction)


def array_dependences(
    program: Program, array: str, include_input: bool = True
) -> list[Dependence]:
    """The paper's dependences for one array (uniform refs only): the
    distances of :func:`reference_dependences`, one per distance and kind.

    A family past the dense budget contributes nothing here; legality
    reads :func:`ordering_vectors`, which stays sound there.
    """
    refs = program.refs_to(array)
    if not refs:
        return []
    if not program.is_uniformly_generated(array):
        raise ValueError(
            f"array {array} has non-uniformly generated references; "
            "constant distance vectors do not exist"
        )
    out: list[Dependence] = []
    seen: set[tuple] = set()
    for s, d, dep in reference_dependences(program, array, include_input):
        # Equal offsets give the self family, already covered.
        if s != d and refs[s].offset == refs[d].offset:
            continue
        if (dep.distance, dep.kind) not in seen:
            seen.add((dep.distance, dep.kind))
            out.append(dep)
    return out


def ordering_vectors(
    program: Program, array: str, reductions_reorderable: bool = True
) -> list[tuple[int, ...]]:
    """Vectors that decide legality for one array, uniform or not: a
    transformation keeps every in-box flow, anti and output distance of
    the array lex-positive iff it keeps these lex-positive (likewise for
    ``T d >= 0`` and ``row . d >= 0``).

    Pairs of scalar-in-nest references (all-zero access matrices) are
    reduction updates and are left out while ``reductions_reorderable``.
    A uniform array contributes the extreme members of each family
    involving a write (:func:`family_in_box`); a non-uniform one the
    distinct differences of the iteration pairs that share an element
    (:func:`sharing_differences`).  Past the dense budget the array is
    taken to carry every lex-positive in-box difference
    (:func:`lex_positive_cone`).
    """
    refs = program.refs_to(array)
    if not any(ref.is_write for ref in refs):
        return []
    spans = program.nest.spans
    if not program.is_uniformly_generated(array):
        found = sharing_differences(program, array, reductions_reorderable)
        return lex_positive_cone(spans) if found is None else found
    if reductions_reorderable and refs[0].access.is_zero():
        return []
    deltas = dict.fromkeys(
        _delta(src, dst)
        for src in refs
        for dst in refs
        if src.is_write or dst.is_write
    )
    out: dict[tuple[int, ...], None] = {}
    for delta in deltas:
        members = family_in_box(refs[0].access, delta, spans)
        if members is None:
            return lex_positive_cone(spans)
        out.update(dict.fromkeys(members))
    return list(out)


def sharing_differences(
    program: Program, array: str, reductions_reorderable: bool = True
) -> list[tuple[int, ...]] | None:
    """The distinct lex-positive ``J - I`` over iteration pairs that touch
    one element of ``array`` through references at least one of which
    writes, in lex order; ``None`` past the dense budget (the nest's, or
    more sharing pairs than ``REPRO_DENSE_BUDGET``).

    Array code over the dense engine's cached points and per-reference
    element ids: differences are packed in a balanced mixed radix (digit
    ``k`` in ``[-span_k, span_k]``), whose integer order is the lex
    order, so lex-positive means positive.  Pairs of scalar-in-nest
    references are reductions, left out while ``reductions_reorderable``.
    """
    from repro.window import fast

    refs = program.refs_to(array)
    try:
        points = fast._iter_state(program).points
        ids = np.concatenate(fast._element_state(program, array).ids)
    except ValueError:
        return None
    spans = program.nest.spans
    radix = [2 * s + 1 for s in spans]
    if not fast.spans_fit_int64(radix):
        return None
    weights = np.array(
        [math.prod(radix[k + 1:]) for k in range(len(radix))], dtype=np.int64
    )
    count = points.shape[0]
    # Accesses in element order: each run of equal ids shares an element.
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    run_start = np.searchsorted(ranked, ranked, side="left")
    run_end = np.searchsorted(ranked, ranked, side="right")
    code = ((points - np.array(program.nest.lowers)) @ weights)[order % count]
    writes = np.array([ref.is_write for ref in refs])[order // count]
    scalar = np.array([ref.access.is_zero() for ref in refs])[order // count]
    # Every write access pairs with every access of its run.
    sources = np.flatnonzero(writes)
    partners = run_end[sources] - run_start[sources]
    ends = np.cumsum(partners)
    if int(ends[-1] if len(ends) else 0) > fast.dense_budget():
        return None
    found = [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < len(sources):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _ENUM_BLOCK, "right")))
        width = partners[lo:hi]
        src = np.repeat(sources[lo:hi], width)
        dst = np.repeat(run_start[sources[lo:hi]] - (ends[lo:hi] - width - done), width)
        dst += np.arange(src.shape[0])
        diff = code[dst] - code[src]
        if reductions_reorderable:
            diff = diff[~(scalar[src] & scalar[dst])]
        found.append(np.unique(np.abs(diff[diff != 0])))
        lo = hi
    return _decode_balanced(np.unique(np.concatenate(found)), spans)


def _decode_balanced(
    codes: np.ndarray, spans: Sequence[int]
) -> list[tuple[int, ...]]:
    """Vectors of balanced mixed-radix codes (digit ``k`` in
    ``[-spans[k], spans[k]]``, radix ``2 * spans[k] + 1``)."""
    digits = []
    for s in reversed(spans):
        digit = (codes + s) % (2 * s + 1) - s
        digits.append(digit)
        codes = (codes - digit) // (2 * s + 1)
    if not digits:
        return []
    return list(map(tuple, np.stack(digits[::-1], axis=1).tolist()))


def program_dependences(
    program: Program, include_input: bool = True
) -> list[Dependence]:
    """Dependences across all uniformly generated arrays of the program."""
    out: list[Dependence] = []
    for array in program.arrays:
        if program.is_uniformly_generated(array):
            out.extend(array_dependences(program, array, include_input))
    return out
