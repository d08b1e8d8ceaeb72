"""Oracle registry: cross-implementation equivalences and metamorphic relations.

An *oracle* is a checkable statement about the analysis stack that must
hold for **every** program in the paper's model.  Two kinds:

* ``cross`` — independent implementations (or an implementation and its
  bound) must agree: the four window engines, the Section 3 closed forms
  against the enumeration oracle, the cascade's pruning against full
  simulation, the line-granular window against the element window.

* ``metamorphic`` — a semantics-preserving transformation of the input
  must move the output in a known way (Chen et al.'s metamorphic
  testing): distinct counts are invariant under unimodular relabeling of
  the iteration space, MWS is invariant under time reversal and offset
  translation, monotone under trip-count extension, and legal loop-order
  permutations preserve concrete execution results.

Each oracle bundles ``generate -> check`` over
:func:`repro.ir.generate.random_program`; metamorphic oracles derive
their transformation deterministically from ``(program, seed)`` so the
shrinker can re-run the same relation on reduced programs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
from dataclasses import dataclass, replace

import numpy as np

from repro.ir.generate import GeneratorConfig, random_program
from repro.ir.loop import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import ArrayRef
from repro.ir.statement import Statement
from repro.linalg import IntMatrix


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which oracle, and what disagreed."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


class Oracle:
    """Base class: a named, generated, checkable invariant.

    Subclasses set ``name``, ``kind`` (``"cross"`` | ``"metamorphic"``),
    ``paper`` (why the invariant follows from the paper) and ``config``
    (the generator regime the oracle targets), and implement
    :meth:`check`.  ``check(program, seed)`` must depend only on its two
    arguments — the shrinker re-invokes it on reduced programs with the
    original seed.
    """

    name: str = ""
    kind: str = "cross"
    paper: str = ""
    config: GeneratorConfig = GeneratorConfig()

    def generate(self, seed: int) -> Program:
        """The random program this oracle fuzzes at ``seed``."""
        return random_program(seed, self.config)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        """``None`` when the invariant holds, a :class:`Violation` otherwise."""
        raise NotImplementedError

    def run(self, seed: int) -> Violation | None:
        """Generate at ``seed`` and check — one fuzz case."""
        return self.check(self.generate(seed), seed)

    def fail(self, detail: str, program: Program | None = None) -> Violation:
        if program is not None:
            from repro.ir import generate_source

            detail = f"{detail}\n{generate_source(program)}"
        return Violation(self.name, detail)


#: name -> oracle instance, in registration order.
ORACLES: dict[str, Oracle] = {}


def register(cls: type[Oracle]) -> type[Oracle]:
    """Class decorator: instantiate and add to :data:`ORACLES`."""
    oracle = cls()
    if not oracle.name:
        raise ValueError(f"{cls.__name__} has no name")
    if oracle.kind not in ("cross", "metamorphic"):
        raise ValueError(f"{oracle.name}: unknown kind {oracle.kind!r}")
    if oracle.name in ORACLES:
        raise ValueError(f"duplicate oracle name {oracle.name!r}")
    ORACLES[oracle.name] = oracle
    return cls


def all_oracles() -> tuple[Oracle, ...]:
    return tuple(ORACLES.values())


def oracle_names() -> tuple[str, ...]:
    return tuple(ORACLES)


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {', '.join(ORACLES)}"
        ) from None


# ----------------------------------------------------------------------
# program rewriting helpers (shared by the metamorphic oracles)
# ----------------------------------------------------------------------

def _rebuild(
    program: Program,
    loops: list[Loop] | None = None,
    statements: list[Statement] | None = None,
    name: str | None = None,
) -> Program:
    """A copy with loops/statements replaced (declarations re-inferred)."""
    return Program(
        LoopNest(loops if loops is not None else list(program.nest.loops)),
        statements if statements is not None else list(program.statements),
        name=name or program.name,
    )


def _map_refs(program: Program, fn) -> list[Statement]:
    return [
        Statement(
            stmt.label,
            tuple(fn(ref) for ref in stmt.writes),
            tuple(fn(ref) for ref in stmt.reads),
        )
        for stmt in program.statements
    ]


def relabel_signed_permutation(
    program: Program, perm: tuple[int, ...], signs: tuple[int, ...]
) -> Program:
    """Unimodular relabeling of the iteration space by a signed permutation.

    New index ``u_k`` stands for old index ``i_{perm[k]}``; where
    ``signs[k] == -1`` the axis is reversed via ``i_j = (lb_j + ub_j) -
    u_k`` (a unimodular map plus translation, so the new box is the same
    rectangle).  Every relabeled iteration touches exactly the elements
    of its pre-image, so the touched-element *set* of each array — hence
    ``A_d`` — is identical by construction.
    """
    old = program.nest.loops
    n = len(old)
    if sorted(perm) != list(range(n)) or len(signs) != n:
        raise ValueError("perm must permute range(depth); one sign per level")
    loops = [
        Loop(f"u{k + 1}", old[perm[k]].lower, old[perm[k]].upper)
        for k in range(n)
    ]

    def relabel(ref: ArrayRef) -> ArrayRef:
        offset = list(ref.offset)
        rows = []
        for d, row in enumerate(ref.access.rows):
            new_row = [0] * n
            for k in range(n):
                j = perm[k]
                coeff = row[j]
                if signs[k] < 0:
                    offset[d] += coeff * (old[j].lower + old[j].upper)
                    new_row[k] = -coeff
                else:
                    new_row[k] = coeff
            rows.append(new_row)
        return ArrayRef(ref.array, IntMatrix(rows), tuple(offset), ref.kind)

    return _rebuild(
        program,
        loops=loops,
        statements=_map_refs(program, relabel),
        name=f"{program.name}#relabel",
    )


def translate_offsets(program: Program, shifts: dict[str, tuple[int, ...]]) -> Program:
    """Translate every reference of each array by a per-array constant.

    All references to one array move together, so pairwise offset
    differences — and with them every dependence distance, window and
    distinct count — are untouched; only the touched bounding box slides.
    """

    def translate(ref: ArrayRef) -> ArrayRef:
        shift = shifts.get(ref.array)
        if shift is None:
            return ref
        return ArrayRef(
            ref.array,
            ref.access,
            tuple(o + s for o, s in zip(ref.offset, shift)),
            ref.kind,
        )

    return _rebuild(
        program, statements=_map_refs(program, translate),
        name=f"{program.name}#shift",
    )


def extend_outermost(program: Program, extra: int) -> Program:
    """Extend the outermost loop's upper bound by ``extra`` iterations.

    The original execution is a strict prefix of the extended one (the
    appended iterations sort lexicographically last), so first-touch
    times are preserved and last-touch times can only move later — every
    original window is a subset of an extended window.
    """
    if extra < 0:
        raise ValueError("extension must be non-negative")
    loops = list(program.nest.loops)
    loops[0] = Loop(loops[0].index, loops[0].lower, loops[0].upper + extra)
    return _rebuild(program, loops=loops, name=f"{program.name}#ext{extra}")


def _seed_transformation(program: Program, seed: int) -> IntMatrix:
    """A deterministic pseudo-random unimodular execution order.

    Signed permutations for any depth, plus skewed bounded unimodular
    matrices for 2-deep nests — the same pool the differential harness
    used before it moved here.
    """
    from repro.transform.elementary import (
        bounded_unimodular_matrices,
        signed_permutations,
    )

    rng = random.Random(seed * 7919 + program.nest.depth)
    pool = list(signed_permutations(program.nest.depth))
    if program.nest.depth == 2:
        pool.extend(
            t for t in bounded_unimodular_matrices(2, 1) if not t.is_identity()
        )
    return pool[rng.randrange(len(pool))]


@contextlib.contextmanager
def streaming_blocks(seed: int):
    """Run the streaming engine on blocks of 1-7 points, derived from
    ``seed``, so that every fuzzed nest (at most 64 points here) spans
    several blocks and exercises their merge.  Restored on exit."""
    from repro.window import streaming

    saved = streaming.CHUNK
    streaming.CHUNK = 1 + seed % 7
    try:
        yield
    finally:
        streaming.CHUNK = saved


def _mws_all_engines(
    program: Program, array: str, transformation: IntMatrix | None
) -> dict[str, int]:
    from repro.window.fast import max_window_size_fast
    from repro.window.simulator import max_window_size_reference
    from repro.window.streaming import max_window_size_streaming
    from repro.window.zhao_malik import max_window_size_zhao_malik

    return {
        "reference": max_window_size_reference(program, array, transformation),
        "fast": max_window_size_fast(program, array, transformation),
        "streaming": max_window_size_streaming(program, array, transformation),
        "zhao_malik": max_window_size_zhao_malik(program, array, transformation),
    }


# ----------------------------------------------------------------------
# cross-implementation oracles
# ----------------------------------------------------------------------

class _EnginesAgree(Oracle):
    kind = "cross"
    paper = (
        "Section 2.3 defines one reference window; all four engines "
        "compute it, so they must agree under every unimodular order."
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        t = _seed_transformation(program, seed)
        for array in program.arrays:
            for transformation in (None, t):
                with streaming_blocks(seed):
                    values = _mws_all_engines(program, array, transformation)
                if len(set(values.values())) != 1:
                    where = "native" if transformation is None else f"T={transformation.rows}"
                    return self.fail(
                        f"array {array} ({where}): engines disagree {values}",
                        program,
                    )
        return None


@register
class EnginesAgree2D(_EnginesAgree):
    name = "engines-agree-2d"
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=3)


@register
class EnginesAgree3D(_EnginesAgree):
    name = "engines-agree-3d"
    config = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)


@register
class TotalWindowAgrees(Oracle):
    name = "total-window-agrees"
    kind = "cross"
    paper = (
        "Section 2.3's program window is max_t of the summed per-array "
        "windows; every engine computes the same maximum-of-sums."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.window import max_total_window
        from repro.window.zhao_malik import max_total_window_zhao_malik

        with streaming_blocks(seed):
            values = {
                engine: max_total_window(program, engine=engine)
                for engine in ("reference", "fast", "streaming")
            }
        values["zhao_malik"] = max_total_window_zhao_malik(program)
        if len(set(values.values())) != 1:
            return self.fail(f"total windows disagree {values}", program)
        return None


@register
class EstimateBracketsExact(Oracle):
    name = "estimate-brackets-exact"
    kind = "cross"
    paper = (
        "Section 3's closed forms are exact for uniformly generated "
        "references (d==n, d==n-1) and upper bounds otherwise; the "
        "enumerated count must sit inside [lower, upper], and a claimed "
        "exact estimate must hit it."
    )
    config = GeneratorConfig(min_trip=2, max_trip=8, uniform_only=True)

    def generate(self, seed: int) -> Program:
        # Depths 3 and 4 bring kernels of dimension 2 and more.
        return random_program(seed, replace(self.config, depth=2 + seed % 3))

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )

        for array in program.arrays:
            est = estimate_distinct_accesses(program, array)
            truth = exact_distinct_accesses(program, array)
            if est.lower > est.upper:
                return self.fail(
                    f"array {array}: inverted bounds {est.lower} > {est.upper} "
                    f"({est.method})",
                    program,
                )
            if truth > est.upper:
                return self.fail(
                    f"array {array}: true A_d {truth} above upper bound "
                    f"{est.upper} ({est.method})",
                    program,
                )
            if est.exact and not (est.lower == est.upper == truth):
                return self.fail(
                    f"array {array}: claims exact A_d {est.lower} but "
                    f"enumeration counts {truth} ({est.method})",
                    program,
                )
        return None


@register
class NonUniformUpperBound(Oracle):
    name = "nonuniform-bounds-bracket"
    kind = "cross"
    paper = (
        "Section 3.2's interval bound UB_max - LB_min + 1 dominates the "
        "true union of 1-D non-uniform references (the lower bound is the "
        "paper's heuristic, so only sanity-checked)."
    )
    config = GeneratorConfig(
        depth=2, min_trip=2, max_trip=8, uniform_only=False, array_rank=1
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import exact_distinct_accesses, nonuniform_bounds

        for array in program.arrays:
            b = nonuniform_bounds(program, array)
            truth = exact_distinct_accesses(program, array)
            if not 0 <= b.lower <= b.upper:
                return self.fail(
                    f"array {array}: malformed bounds [{b.lower}, {b.upper}]",
                    program,
                )
            if truth > b.upper:
                return self.fail(
                    f"array {array}: true count {truth} above upper bound "
                    f"{b.upper}",
                    program,
                )
        return None


@register
class CascadeConformance(Oracle):
    name = "cascade-conformance"
    kind = "cross"
    paper = (
        "Section 4's search only needs the arg-min; the cascade's tier-1 "
        "certificates are admissible, so its exact values and first-wins "
        "winner must match full simulation."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8)

    def generate(self, seed: int) -> Program:
        # Tier 1 works at any depth; the Figure-2 cascades run at 3 and 4.
        cfg = self.config
        if seed % 2 == 1:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform.elementary import signed_permutations
        from repro.transform.search import evaluate_cascade
        from repro.window.batched import batched_mws

        candidates: list[IntMatrix | None] = [None]
        candidates.extend(signed_permutations(program.nest.depth))
        # The truths come first and from the batched engine, which reads
        # no memo: the cascade fills the exact memo (a zero certificate
        # writes 0 for every candidate), so a truth read back from it
        # would repeat a wrong certificate instead of catching it.
        truths = batched_mws(program, candidates)
        outcomes = evaluate_cascade(program, candidates)
        for idx, (outcome, truth) in enumerate(zip(outcomes, truths)):
            if outcome.exact and outcome.value != truth:
                return self.fail(
                    f"candidate {idx}: cascade says exact {outcome.value} "
                    f"({outcome.tier}), simulation says {truth}",
                    program,
                )
            if not outcome.exact and outcome.value > truth:
                return self.fail(
                    f"candidate {idx}: inadmissible {outcome.tier} lower "
                    f"bound {outcome.value} > true MWS {truth}",
                    program,
                )
        best = min(truths)
        winner_full = truths.index(best)
        exact_values = [o.value for o in outcomes if o.exact]
        if not exact_values or min(exact_values) != best:
            return self.fail(
                f"cascade never finalized the optimum {best} exactly "
                f"(exact outcomes: {exact_values})",
                program,
            )
        winner_cascade = next(
            idx for idx, o in enumerate(outcomes) if o.exact and o.value == best
        )
        if winner_cascade != winner_full:
            return self.fail(
                f"first-wins winner differs: cascade candidate "
                f"{winner_cascade}, simulation candidate {winner_full}",
                program,
            )
        return None


@register
class BatchedScoringParity(Oracle):
    name = "batched-scoring-parity"
    kind = "cross"
    paper = (
        "Section 2.3 defines one window per (program, array, order); "
        "scoring K candidate orders as one batch is pure re-association "
        "of the same sweeps, so the batched scorer must equal the "
        "reference simulator on every array and on the program total."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform.elementary import signed_permutations
        from repro.window.batched import batched_mws
        from repro.window.simulator import max_total_window, max_window_size

        rng = random.Random(seed * 104_729 + program.nest.depth)
        pool = list(signed_permutations(program.nest.depth))
        rng.shuffle(pool)
        candidates: list[IntMatrix | None] = [None, _seed_transformation(program, seed)]
        candidates.extend(pool[:4])
        for array in [None, *program.arrays]:
            batch = batched_mws(program, candidates, array=array, engine="fast")
            if array is None:
                serial = [
                    max_total_window(program, t, engine="reference")
                    for t in candidates
                ]
            else:
                serial = [
                    max_window_size(program, array, t, engine="reference")
                    for t in candidates
                ]
            if batch != serial:
                where = array or "<total>"
                return self.fail(
                    f"array {where}: batched {batch} != reference "
                    f"{serial} over {len(candidates)} candidates",
                    program,
                )
        return None


@register
class LineWindowElementParity(Oracle):
    name = "line-window-element-parity"
    kind = "cross"
    paper = (
        "The line-granular window composes the Section 2.3 sweep with a "
        "layout; at line size 1 the composition must reduce exactly to "
        "the element window."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.layout.line_window import line_window_profile, max_line_window
        from repro.window.fast import max_window_size_fast

        t = _seed_transformation(program, seed)
        for array in program.arrays:
            for transformation in (None, t):
                element = max_window_size_fast(program, array, transformation)
                line = max_line_window(
                    program, array, line_size=1, transformation=transformation
                )
                if line != element:
                    return self.fail(
                        f"array {array}: line window {line} != element "
                        f"window {element} at line size 1",
                        program,
                    )
            profile_peak = line_window_profile(program, array, line_size=1).max_size
            if profile_peak != max_window_size_fast(program, array):
                return self.fail(
                    f"array {array}: line profile peak {profile_peak} != "
                    f"element MWS",
                    program,
                )
        return None


@register
class MwsBoundedByDistinct(Oracle):
    name = "mws-bounded-by-distinct"
    kind = "cross"
    paper = (
        "The window holds only already-touched, to-be-reused elements "
        "(Section 2.3), so |W| can never exceed the array's distinct "
        "count A_d under any execution order."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window.fast import max_window_size_fast

        t = _seed_transformation(program, seed)
        for array in program.arrays:
            distinct = exact_distinct_accesses(program, array)
            for transformation in (None, t):
                mws = max_window_size_fast(program, array, transformation)
                if mws > distinct:
                    return self.fail(
                        f"array {array}: MWS {mws} exceeds distinct count "
                        f"{distinct}",
                        program,
                    )
        return None


# ----------------------------------------------------------------------
# metamorphic oracles
# ----------------------------------------------------------------------

class _RelabelDistinctInvariance(Oracle):
    kind = "metamorphic"
    paper = (
        "A_d is the cardinality of the access image over the iteration "
        "box (Section 3); a signed-permutation relabeling maps the box "
        "bijectively onto itself, so the image — and for uniformly "
        "generated arrays the Section 3 estimate — is invariant."
    )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )

        n = program.nest.depth
        rng = random.Random(seed * 65_537 + n)
        perm = tuple(rng.sample(range(n), n))
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        relabeled = relabel_signed_permutation(program, perm, signs)
        for array in program.arrays:
            base = exact_distinct_accesses(program, array)
            mapped = exact_distinct_accesses(relabeled, array)
            if base != mapped:
                return self.fail(
                    f"array {array}: A_d {base} -> {mapped} under relabeling "
                    f"perm={perm} signs={signs}",
                    program,
                )
            if program.is_uniformly_generated(array):
                if not relabeled.is_uniformly_generated(array):
                    return self.fail(
                        f"array {array}: uniformly generated before but not "
                        f"after relabeling perm={perm} signs={signs}",
                        program,
                    )
                # When d < n-1 the estimate falls back to heuristic bounds
                # that depend on offsets, so only the *exact* closed forms
                # (d == n, d == n-1; rank is relabeling-invariant) must
                # agree.
                e0 = estimate_distinct_accesses(program, array)
                e1 = estimate_distinct_accesses(relabeled, array)
                if e0.exact and (
                    (e0.lower, e0.upper, e0.exact)
                    != (e1.lower, e1.upper, e1.exact)
                ):
                    return self.fail(
                        f"array {array}: estimate ({e0.lower}, {e0.upper}, "
                        f"{e0.exact}) -> ({e1.lower}, {e1.upper}, {e1.exact}) "
                        f"under relabeling perm={perm} signs={signs}",
                        program,
                    )
        return None


@register
class RelabelDistinctInvariance2D(_RelabelDistinctInvariance):
    name = "relabel-distinct-invariance"
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8, uniform_only=True)


@register
class RelabelDistinctInvariance3D(_RelabelDistinctInvariance):
    name = "relabel-distinct-invariance-3d"
    config = GeneratorConfig(
        depth=3, min_trip=2, max_trip=4, max_coeff=2, uniform_only=True
    )


@register
class PermutationPreservesSemantics(Oracle):
    name = "permutation-preserves-semantics"
    kind = "metamorphic"
    paper = (
        "Loop-order permutation is legal when every order-constraining "
        "distance stays lex-positive (Section 4, Example 8); a legal "
        "permutation must then produce identical final array contents."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=5, uniform_only=True)

    def generate(self, seed: int) -> Program:
        """Depth 3 (trips 2-4) on odd seeds, where a kernel can have
        dimension 2, and non-uniform references on every third seed."""
        depth = 3 if seed % 2 else 2
        return random_program(seed, replace(
            self.config,
            depth=depth,
            max_trip=4 if depth == 3 else 5,
            uniform_only=seed % 3 != 0,
        ))

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        import itertools

        from repro.ir.interpreter import execute, states_equal
        from repro.transform.legality import is_legal, ordering_distances

        n = program.nest.depth
        distances = ordering_distances(program, reductions_reorderable=False)
        identity = tuple(range(n))
        for perm in itertools.permutations(range(n)):
            if perm == identity:
                continue
            matrix = IntMatrix(
                [[1 if c == p else 0 for c in range(n)] for p in perm]
            )
            if not is_legal(matrix, distances):
                continue
            permuted = relabel_signed_permutation(program, perm, (1,) * n)
            if not states_equal(execute(program), execute(permuted)):
                return self.fail(
                    f"legal permutation {perm} changed execution results "
                    f"(distances {distances})",
                    program,
                )
        return None


def ordering_truth(
    program: Program, array: str | None = None
) -> set[tuple[int, ...]]:
    """Every lex-positive ``J - I`` of an iteration pair that touches one
    element of ``array`` (``None``: of any array) through two references,
    at least one a write, enumerated point by point
    (:func:`repro.dependence.analysis.iteration_pairs_sharing_element`).
    Pairs of scalar-in-nest references are reductions and left out, as
    ``ordering_distances`` leaves them out by default."""
    from repro.dependence.analysis import iteration_pairs_sharing_element

    out: set[tuple[int, ...]] = set()
    for name in program.arrays if array is None else (array,):
        refs = program.refs_to(name)
        for src, dst in itertools.product(refs, repeat=2):
            if not (src.is_write or dst.is_write) or (
                src.access.is_zero() and dst.access.is_zero()
            ):
                continue
            for earlier, later in iteration_pairs_sharing_element(
                program.nest, src, dst
            ):
                out.add(tuple(b - a for a, b in zip(earlier, later)))
    return out


@register
class LegalityExact(Oracle):
    name = "legality-exact"
    kind = "cross"
    paper = (
        "An order is legal when every dependence distance stays "
        "lexicographically positive (Section 4, Example 8): every "
        "transformation optimize_program, the per-array search and the "
        "hierarchy search return must keep each in-bounds flow, anti and "
        "output distance, enumerated pair by pair, lex-positive."
    )

    def generate(self, seed: int) -> Program:
        """Depth 1-4 by ``seed % 4``, uniform references on even
        ``seed // 4`` and non-uniform ones on odd, trips 2-5."""
        return random_program(seed, GeneratorConfig(
            depth=1 + seed % 4,
            min_trip=2,
            max_trip=5,
            uniform_only=(seed // 4) % 2 == 0,
        ))

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.core.optimizer import optimize_program
        from repro.dependence.distance import is_lex_positive
        from repro.transform.hierarchy_search import search_hierarchy
        from repro.transform.search import search_best_transformation

        answers = [("optimize_program", None,
                    optimize_program(program).transformation)]
        for array in program.arrays:
            try:
                result = search_best_transformation(program, array)
            except (ValueError, KeyError):
                continue
            answers.append((f"search {array}", array, result.transformation))
        try:
            plan = search_hierarchy(program, _small_tcm()).best
        except ValueError:  # no plan fits the shrunk tiers
            plan = None
        if plan is not None:
            answers.append(("search_hierarchy", None, plan.transformation))
        for label, array, t in answers:
            if t is None:
                continue
            for d in sorted(ordering_truth(program, array)):
                if not is_lex_positive(t.apply(d)):
                    return self.fail(
                        f"{label} returns T={t.rows}, which maps the "
                        f"in-bounds distance {d} to {t.apply(d)}",
                        program,
                    )
        return None


def order_truth(
    nest: LoopNest, src: ArrayRef, dst: ArrayRef
) -> tuple[bool, bool]:
    """``pair_order``'s ``(later, same)`` enumerated point by point: an
    iteration pair from
    :func:`repro.dependence.analysis.iteration_pairs_sharing_element`,
    and an iteration at which ``src`` and ``dst`` touch one element."""
    from repro.dependence.analysis import iteration_pairs_sharing_element

    later = next(iteration_pairs_sharing_element(nest, src, dst), None)
    same = any(src.element(p) == dst.element(p) for p in nest.iterate())
    return later is not None, same


def _conflicting(first: Statement, second: Statement) -> list:
    """Reference pairs of two statements on one array, one writing it."""
    return [
        (src, dst)
        for src in first.references
        for dst in second.references
        if src.array == dst.array and (src.is_write or dst.is_write)
    ]


def statement_graph_truth(program: Program) -> dict[str, set[str]]:
    """``statement_dependence_graph`` enumerated: ``S -> T`` when an
    instance of ``T`` touches an element that an earlier instance of
    ``S`` touched (a later iteration, or the same one with ``S`` first),
    one of the two writing it."""
    graph: dict[str, set[str]] = {s.label: set() for s in program.statements}
    for (a, s), (b, t) in itertools.permutations(enumerate(program.statements), 2):
        for src, dst in _conflicting(s, t):
            later, same = order_truth(program.nest, src, dst)
            if later or (same and a < b):
                graph[s.label].add(t.label)
    return graph


def fusion_truth(first: Program, second: Program) -> bool:
    """Whether fusing ``first`` then ``second`` keeps every dependence,
    enumerated: no reference of ``second`` touches an element at an
    earlier iteration than a reference of ``first`` does, one of the two
    writing it."""
    return not any(
        order_truth(first.nest, src, dst)[0]
        for late in second.statements
        for early in first.statements
        for src, dst in _conflicting(late, early)
    )


@register
class StatementOrderExact(Oracle):
    name = "statement-order-exact"
    kind = "cross"
    paper = (
        "Distribution and fusion reorder statement instances, which is "
        "legal when every flow, anti and output dependence keeps its "
        "direction (Section 4): the statement graph and every fusion "
        "verdict must equal pair-by-pair enumeration, and distribution "
        "and every accepted fusion must leave the final arrays unchanged."
    )

    def generate(self, seed: int) -> Program:
        """Depth 1-3 by ``seed % 3``, uniform references on even
        ``seed // 3`` and non-uniform ones on odd, trips 2-5, up to three
        statements."""
        return random_program(seed, GeneratorConfig(
            depth=1 + seed % 3,
            min_trip=2,
            max_trip=5,
            max_statements=3,
            uniform_only=(seed // 3) % 2 == 0,
        ))

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.ir.interpreter import execute, initial_state, states_equal
        from repro.transform.distribution import (
            distribute,
            statement_dependence_graph,
        )
        from repro.transform.fusion import can_fuse, fuse

        graph = statement_dependence_graph(program)
        truth = statement_graph_truth(program)
        if graph != truth:
            return self.fail(
                f"statement graph {graph}, enumerated {truth}", program
            )
        state = initial_state(program)
        chained = state
        for part in distribute(program).programs:
            chained = execute(part, state=chained)
        if not states_equal(chained, execute(program, state=state)):
            return self.fail(
                "the distributed nests, run in sequence, change the final "
                "arrays",
                program,
            )
        stmts = program.statements
        # Every split into a first and a second nest, each in body order.
        for mask in range(1, 2 ** len(stmts) - 1):
            first = Program(program.nest, [
                s for k, s in enumerate(stmts) if mask >> k & 1
            ], name="first")
            second = Program(program.nest, [
                s for k, s in enumerate(stmts) if not mask >> k & 1
            ], name="second")
            ok, reason = can_fuse(first, second)
            labels = [[s.label for s in p.statements] for p in (first, second)]
            if ok != fusion_truth(first, second):
                return self.fail(
                    f"can_fuse{tuple(labels)} = {ok} ({reason}); "
                    f"enumeration says {not ok}",
                    program,
                )
            if ok and not states_equal(
                execute(fuse(first, second), state=state),
                execute(second, state=execute(first, state=state)),
            ):
                return self.fail(
                    f"fusing {labels[0]} and {labels[1]} changes the final "
                    f"arrays",
                    program,
                )
        return None


@register
class TripExtensionMonotone(Oracle):
    name = "trip-extension-monotone"
    kind = "metamorphic"
    paper = (
        "Extending the outermost trip count appends iterations after the "
        "original prefix; last touches only move later, so every window "
        "grows or stays — MWS and A_d are monotone non-decreasing."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window import max_total_window
        from repro.window.fast import max_window_size_fast

        extra = 1 + seed % 3
        extended = extend_outermost(program, extra)
        for array in program.arrays:
            base = max_window_size_fast(program, array)
            grown = max_window_size_fast(extended, array)
            if grown < base:
                return self.fail(
                    f"array {array}: MWS dropped {base} -> {grown} after "
                    f"extending the outermost trip count by {extra}",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(extended, array)
            if d1 < d0:
                return self.fail(
                    f"array {array}: A_d dropped {d0} -> {d1} after "
                    f"extending the outermost trip count by {extra}",
                    program,
                )
        total0 = max_total_window(program, engine="fast")
        total1 = max_total_window(extended, engine="fast")
        if total1 < total0:
            return self.fail(
                f"total window dropped {total0} -> {total1} after extending "
                f"the outermost trip count by {extra}",
                program,
            )
        return None


@register
class OffsetTranslationInvariance(Oracle):
    name = "offset-translation-invariance"
    kind = "metamorphic"
    paper = (
        "Translating all references of an array by one constant slides "
        "the touched set without changing any offset difference, so "
        "dependence distances, windows and distinct counts are invariant "
        "(Section 2's reuse vectors depend only on differences)."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation import (
            estimate_distinct_accesses,
            exact_distinct_accesses,
        )
        from repro.window.fast import max_window_size_fast

        shifts = {}
        for array in program.arrays:
            rank = program.refs_to(array)[0].rank
            rng = random.Random((seed, array).__repr__())
            shifts[array] = tuple(rng.randint(-5, 7) for _ in range(rank))
        shifted = translate_offsets(program, shifts)
        for array in program.arrays:
            m0 = max_window_size_fast(program, array)
            m1 = max_window_size_fast(shifted, array)
            if m0 != m1:
                return self.fail(
                    f"array {array}: MWS {m0} -> {m1} under offset "
                    f"translation {shifts[array]}",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(shifted, array)
            if d0 != d1:
                return self.fail(
                    f"array {array}: A_d {d0} -> {d1} under offset "
                    f"translation {shifts[array]}",
                    program,
                )
            e0 = estimate_distinct_accesses(program, array)
            e1 = estimate_distinct_accesses(shifted, array)
            if (e0.lower, e0.upper, e0.exact) != (e1.lower, e1.upper, e1.exact):
                return self.fail(
                    f"array {array}: estimate ({e0.lower}, {e0.upper}, "
                    f"{e0.exact}) -> ({e1.lower}, {e1.upper}, {e1.exact}) "
                    f"under offset translation {shifts[array]}",
                    program,
                )
        return None


# ----------------------------------------------------------------------
# parametric conformance oracles
# ----------------------------------------------------------------------

def _parametric_sample(
    domain: tuple[int, ...], seed: int, count: int = 6, spread: int = 6
) -> list[tuple[int, ...]]:
    """At least ``count`` in-domain bound vectors, corners first.

    The high corner plus per-axis low corners (one trip count at its
    domain minimum while the rest sit high) are the vectors most likely
    to expose a regime the derivation's own verification missed; the
    rest is random fill, deterministic in ``(seed, domain)``.
    """
    rng = random.Random(f"param-oracle:{seed}:{domain}")
    points = {tuple(d + spread for d in domain)}
    for j in range(len(domain)):
        corner = [d + spread for d in domain]
        corner[j] = domain[j]
        points.add(tuple(corner))
    while len(points) < count:
        points.add(tuple(d + rng.randint(0, spread) for d in domain))
    return sorted(points)


@register
class ParametricMwsConformance(Oracle):
    name = "parametric-mws-conformance"
    kind = "cross"
    paper = (
        "The paper states MWS as a function of the loop limits; a "
        "derived closed form must therefore reproduce the exact engines "
        "at every bound vector in its domain — native and under a "
        "candidate execution order.  Derivation declining (returning "
        "None) is the designed fallback, not a violation."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6, max_coeff=2)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.parametric import (
            parametric_signature,
            with_trip_counts,
        )
        from repro.window.symbolic import derive_parametric_mws

        t = _seed_transformation(program, seed)
        psig = parametric_signature(program)
        for array in program.arrays:
            for transformation in (None, t):
                pe = derive_parametric_mws(
                    program, array, transformation, seed=seed
                )
                if pe is None:
                    continue  # fallback contract: simulation answers instead
                where = (
                    "native" if transformation is None
                    else f"T={transformation.rows}"
                )
                for trips in _parametric_sample(pe.domain, seed):
                    value = pe.substitute(trips)
                    if value is None:
                        return self.fail(
                            f"array {array} ({where}): in-domain vector "
                            f"{trips} refused by a verified expression "
                            f"{pe.expr} (domain {pe.domain})",
                            program,
                        )
                    resized = with_trip_counts(program, trips)
                    if parametric_signature(resized) != psig:
                        return self.fail(
                            f"parametric signature not bound-invariant at "
                            f"{trips}",
                            program,
                        )
                    engines = _mws_all_engines(resized, array, transformation)
                    wrong = {k: v for k, v in engines.items() if v != value}
                    if wrong:
                        return self.fail(
                            f"array {array} ({where}) at N={trips}: "
                            f"substituted {pe.expr} = {value} but engines "
                            f"say {wrong}",
                            program,
                        )
        return None


@register
class ParametricDistinctConformance(Oracle):
    name = "parametric-distinct-conformance"
    kind = "cross"
    paper = (
        "Section 3 derives A_d as an expression in the loop limits; the "
        "derived parametric count (paper closed form or interpolated) "
        "must equal the enumeration oracle at every sampled bound "
        "vector in its domain."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=8)

    def generate(self, seed: int) -> Program:
        cfg = self.config
        if seed % 4 == 3:
            cfg = GeneratorConfig(depth=3, min_trip=2, max_trip=4, max_coeff=2)
        return random_program(seed, cfg)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.estimation.parametric import with_trip_counts
        from repro.estimation.symbolic import derive_parametric_distinct

        for array in program.arrays:
            pe = derive_parametric_distinct(program, array, seed=seed)
            if pe is None:
                continue  # fallback contract: enumeration answers instead
            for trips in _parametric_sample(pe.domain, seed):
                value = pe.substitute(trips)
                if value is None:
                    return self.fail(
                        f"array {array}: in-domain vector {trips} refused "
                        f"by a verified expression {pe.expr} "
                        f"(domain {pe.domain})",
                        program,
                    )
                truth = exact_distinct_accesses(
                    with_trip_counts(program, trips), array
                )
                if truth != value:
                    return self.fail(
                        f"array {array} at N={trips}: substituted "
                        f"{pe.expr} = {value} ({pe.method}) but "
                        f"enumeration counts {truth}",
                        program,
                    )
        return None


@register
class TimeReversalInvariance(Oracle):
    name = "time-reversal-mws-invariance"
    kind = "metamorphic"
    paper = (
        "Reversing every loop runs the identical access sequence "
        "backwards; lifetimes [first, last] map to [T-1-last, T-1-first], "
        "so the peak live count — the MWS — is unchanged (Section 2.3's "
        "window is symmetric in time)."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.exact import exact_distinct_accesses
        from repro.window import max_total_window
        from repro.window.fast import max_window_size_fast

        n = program.nest.depth
        reversed_program = relabel_signed_permutation(
            program, tuple(range(n)), (-1,) * n
        )
        for array in program.arrays:
            m0 = max_window_size_fast(program, array)
            m1 = max_window_size_fast(reversed_program, array)
            if m0 != m1:
                return self.fail(
                    f"array {array}: MWS {m0} -> {m1} under time reversal",
                    program,
                )
            d0 = exact_distinct_accesses(program, array)
            d1 = exact_distinct_accesses(reversed_program, array)
            if d0 != d1:
                return self.fail(
                    f"array {array}: A_d {d0} -> {d1} under time reversal",
                    program,
                )
        t0 = max_total_window(program, engine="fast")
        t1 = max_total_window(reversed_program, engine="fast")
        if t0 != t1:
            return self.fail(
                f"total window {t0} -> {t1} under time reversal", program
            )
        return None


# ----------------------------------------------------------------------
# memory-hierarchy oracles (conformance tier for the multi-level model)
# ----------------------------------------------------------------------

def _seed_hierarchy(seed: int):
    """A deterministic pseudo-random tier stack for ``seed``.

    1-3 tiers with small capacities (generated programs are small), and
    per-access costs drawn then *sorted* so the constructor's
    non-decreasing-with-depth requirement holds by construction.
    """
    from repro.memory.hierarchy import MemoryHierarchy, MemoryTier

    rng = random.Random(seed * 9973 + 11)
    depth = rng.randint(1, 3)
    energies = sorted(round(rng.uniform(1.0, 40.0), 1) for _ in range(depth))
    latencies = sorted(round(rng.uniform(0.5, 20.0), 1) for _ in range(depth))
    tiers = tuple(
        MemoryTier(f"t{k + 1}", rng.randint(1, 48), latencies[k], energies[k])
        for k in range(depth)
    )
    return MemoryHierarchy(name=f"fuzz{seed}", tiers=tiers)


@register
class HierarchyDegenerateFlat(Oracle):
    name = "hierarchy-degenerate-flat"
    kind = "cross"
    paper = (
        "The stacked simulation defines tier k by the flat Belady run at "
        "the cumulative capacity c_1+...+c_k, so a one-tier hierarchy is "
        "*definitionally* the paper's flat scratchpad: its only level "
        "must reproduce simulate_scratchpad field for field, and its "
        "energy must be hits at the tier cost plus transfers at the "
        "backing cost."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.memory.hierarchy import (
            MemoryHierarchy,
            MemoryTier,
            simulate_hierarchy,
        )
        from repro.memory.scratchpad import simulate_scratchpad

        t = _seed_transformation(program, seed)
        rng = random.Random(seed * 104729 + 7)
        for transformation in (None, t):
            for policy in ("belady", "lru"):
                capacity = rng.randint(1, 64)
                hier = MemoryHierarchy(
                    "one", (MemoryTier("only", capacity, 2.0, 5.0),)
                )
                stacked = simulate_hierarchy(
                    program, hier,
                    transformation=transformation, policy=policy,
                )
                flat = simulate_scratchpad(
                    program, capacity,
                    transformation=transformation, policy=policy,
                )
                where = (
                    f"capacity {capacity}, policy {policy}, "
                    + ("native" if transformation is None
                       else f"T={transformation.rows}")
                )
                if stacked.levels[0] != flat:
                    return self.fail(
                        f"{where}: one-tier level differs from flat "
                        f"scratchpad: {stacked.levels[0]} != {flat}",
                        program,
                    )
                tier = stacked.tiers[0]
                if (
                    tier.hits != flat.hits
                    or tier.lookups != flat.accesses
                    or tier.fetches_below != flat.misses
                    or tier.writebacks_below != flat.writebacks
                    or stacked.offchip_transfers != flat.offchip_transfers
                ):
                    return self.fail(
                        f"{where}: tier accounting differs from flat "
                        f"stats: {tier} vs {flat}",
                        program,
                    )
                energy = (
                    flat.hits * hier.tiers[0].energy_pj
                    + flat.offchip_transfers * hier.offchip_energy_pj
                )
                if abs(stacked.energy_pj - energy) > 1e-6:
                    return self.fail(
                        f"{where}: one-tier energy {stacked.energy_pj} != "
                        f"hits*E + transfers*E_back = {energy}",
                        program,
                    )
        return None


@register
class HierarchyCapacityMonotone(Oracle):
    name = "hierarchy-capacity-monotone"
    kind = "metamorphic"
    paper = (
        "Belady is a stack algorithm: misses and dirty evictions are "
        "non-increasing in capacity, every boundary simulates at a "
        "cumulative capacity, and the constructor requires per-access "
        "costs non-decreasing with depth — so growing any tier (costs "
        "fixed) can only shift hits toward cheaper tiers: no boundary's "
        "transfers, nor the total energy/latency, may increase."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.memory.hierarchy import simulate_hierarchy

        hier = _seed_hierarchy(seed)
        rng = random.Random(seed * 15485863 + 3)
        index = rng.randrange(hier.depth)
        delta = rng.randint(1, 32)
        grown = hier.resized(
            index, hier.tiers[index].capacity_words + delta
        )
        base = simulate_hierarchy(program, hier)
        more = simulate_hierarchy(program, grown)
        where = f"tier {index} of {hier.spec()['tiers']} grown by {delta}"
        for level, (before, after) in enumerate(zip(base.levels, more.levels)):
            if after.offchip_transfers > before.offchip_transfers:
                return self.fail(
                    f"{where}: boundary {level} transfers grew "
                    f"{before.offchip_transfers} -> "
                    f"{after.offchip_transfers}",
                    program,
                )
        if more.offchip_transfers > base.offchip_transfers:
            return self.fail(
                f"{where}: off-chip transfers grew "
                f"{base.offchip_transfers} -> {more.offchip_transfers}",
                program,
            )
        if more.energy_pj > base.energy_pj + 1e-6:
            return self.fail(
                f"{where}: energy grew {base.energy_pj} -> "
                f"{more.energy_pj}",
                program,
            )
        if more.latency_ns > base.latency_ns + 1e-6:
            return self.fail(
                f"{where}: latency grew {base.latency_ns} -> "
                f"{more.latency_ns}",
                program,
            )
        return None


@register
class HierarchyBoundAdmissible(Oracle):
    name = "hierarchy-bound-admissible"
    kind = "cross"
    paper = (
        "Hong & Kung's phase argument and the cold-traffic floor hold "
        "for any replacement policy, so transfer_lower_bound must never "
        "exceed the transfers any simulation reports — Belady or LRU, "
        "native or transformed order, whole program or one array, flat "
        "buffer or tier stack at its total capacity."
    )
    config = GeneratorConfig(depth=2, min_trip=2, max_trip=6)

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.estimation.bounds import transfer_lower_bound
        from repro.memory.hierarchy import simulate_hierarchy
        from repro.memory.scratchpad import simulate_scratchpad

        t = _seed_transformation(program, seed)
        rng = random.Random(seed * 32452843 + 17)
        capacities = [rng.randint(1, 8), rng.randint(9, 64)]
        for transformation in (None, t):
            for policy in ("belady", "lru"):
                for capacity in capacities:
                    lb = transfer_lower_bound(
                        program, capacity, None, transformation
                    )
                    sim = simulate_scratchpad(
                        program, capacity,
                        transformation=transformation, policy=policy,
                    )
                    if lb > sim.offchip_transfers:
                        return self.fail(
                            f"capacity {capacity} ({policy}): bound {lb} "
                            f"> simulated transfers "
                            f"{sim.offchip_transfers}",
                            program,
                        )
            for array in program.arrays:
                capacity = capacities[0]
                lb = transfer_lower_bound(
                    program, capacity, array, transformation
                )
                sim = simulate_scratchpad(
                    program, capacity, array=array,
                    transformation=transformation,
                )
                if lb > sim.offchip_transfers:
                    return self.fail(
                        f"array {array} at capacity {capacity}: bound "
                        f"{lb} > simulated transfers "
                        f"{sim.offchip_transfers}",
                        program,
                    )
        hier = _seed_hierarchy(seed)
        stacked = simulate_hierarchy(program, hier)
        lb = transfer_lower_bound(program, hier.total_capacity)
        if lb > stacked.offchip_transfers:
            return self.fail(
                f"stack {hier.spec()['tiers']}: bound {lb} at total "
                f"capacity {hier.total_capacity} > simulated off-chip "
                f"transfers {stacked.offchip_transfers}",
                program,
            )
        return None


# ----------------------------------------------------------------------
# tile footprints: the array code against a per-point reference
# ----------------------------------------------------------------------

def tile_footprints_reference(
    program: Program,
    tile_sizes,
    transformation: IntMatrix | None = None,
):
    """Per-point reference for :func:`repro.transform.tiling.tile_footprints`.

    Walks every iteration point in Python: transforms it, bins it into
    the tile grid anchored at the lexicographic-min transformed point,
    and collects each cell's touched and written elements in sets.  For
    valid arguments (a depth-long tile, an ``n x n`` ``T``) it returns
    what the production function returns; it validates nothing itself.
    """
    points = list(program.nest.iterate())
    return _reference_footprints(
        program,
        tuple(tile_sizes),
        _reference_transformed(points, transformation),
        _reference_elements(program, points),
    )


def _reference_transformed(points: list, transformation: IntMatrix | None) -> list:
    if transformation is None:
        return points
    return [transformation.apply(p) for p in points]


def _reference_elements(program: Program, points: list) -> list:
    """``[(array, is_write, [element per point])]`` per reference."""
    return [
        (ref.array, ref.is_write, [ref.element(p) for p in points])
        for ref in program.references
    ]


def _reference_footprints(
    program: Program, tile: tuple, transformed: list, per_ref: list
):
    from repro.transform.tiling import TileFootprints

    origin = min(transformed)
    cells = [
        tuple((x - o) // s for x, o, s in zip(point, origin, tile))
        for point in transformed
    ]
    touched: dict[tuple, dict[str, set]] = {}
    written: dict[tuple, dict[str, set]] = {}
    for array, is_write, elements in per_ref:
        for cell, element in zip(cells, elements):
            touched.setdefault(cell, {}).setdefault(array, set()).add(element)
            if is_write:
                written.setdefault(cell, {}).setdefault(array, set()).add(
                    element
                )
    per_array = {a: 0 for a in program.arrays}
    written_per_array = {a: 0 for a in program.arrays}
    fetch = {a: 0 for a in program.arrays}
    writeback = {a: 0 for a in program.arrays}
    total = 0
    for cell, by_array in touched.items():
        total = max(total, sum(len(v) for v in by_array.values()))
        for array, elements in by_array.items():
            per_array[array] = max(per_array[array], len(elements))
            fetch[array] += len(elements)
        for array, elements in written.get(cell, {}).items():
            written_per_array[array] = max(
                written_per_array[array], len(elements)
            )
            writeback[array] += len(elements)
    return TileFootprints(
        tile=tile,
        n_cells=len(touched),
        total=total,
        per_array=per_array,
        written_per_array=written_per_array,
        fetch_words=fetch,
        writeback_words=writeback,
    )


def _seed_skew(depth: int, seed: int) -> IntMatrix:
    """A deterministic unimodular skew: two composed elementary skews
    (a reversal for a 1-deep nest, which has nothing to skew by)."""
    from repro.transform.elementary import reversal, skew

    if depth == 1:
        return reversal(1, 0)
    rng = random.Random(seed * 6151 + depth)
    out = IntMatrix.identity(depth)
    for _ in range(2):
        target, source = rng.sample(range(depth), 2)
        factor = rng.choice((-3, -2, -1, 1, 2, 3))
        out = skew(depth, target, source, factor) @ out
    return out


@register
class TileFootprintsReference(Oracle):
    name = "tile-footprints-reference"
    kind = "cross"
    paper = (
        "Section 4.1 tiles the transformed nest for block transfers; a "
        "tile's footprint is the set of distinct elements its points "
        "touch, so the array code must equal a point-by-point walk of "
        "the same grid field for field: cells, worst tile, per-array "
        "worst and summed fetch/writeback words."
    )
    config = GeneratorConfig(min_trip=2, max_trip=7)

    def generate(self, seed: int) -> Program:
        return random_program(seed, replace(self.config, depth=1 + seed % 3))

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform.hierarchy_search import (
            default_candidates,
            tile_candidates,
        )
        from repro.transform.tiling import tile_footprints

        rng = random.Random(seed * 49157 + 5)
        trips = program.nest.trip_counts
        boxes = [
            tuple(rng.randint(1, 2 * max(trips)) for _ in trips)
            for _ in range(2)
        ]
        points = list(program.nest.iterate())
        per_ref = _reference_elements(program, points)
        candidates = default_candidates(program)
        candidates.append(_seed_skew(program.nest.depth, seed))
        for t in candidates:
            transformed = _reference_transformed(points, t)
            for tile in tile_candidates(program, t) + boxes:
                expected = _reference_footprints(
                    program, tile, transformed, per_ref
                )
                got = tile_footprints(program, tile, t)
                if got != expected:
                    where = "native" if t is None else f"T={t.rows}"
                    return self.fail(
                        f"{where} tile {tile}: {got} != reference {expected}",
                        program,
                    )
        return None


# ----------------------------------------------------------------------
# the access trace: the array code against a per-point reference
# ----------------------------------------------------------------------

def access_stream_reference(
    program: Program,
    array: str | None = None,
    transformation: IntMatrix | None = None,
) -> list[tuple[tuple, bool]]:
    """Per-point reference for :func:`repro.memory.scratchpad.access_stream`.

    Walks every iteration point in Python, in the order of ``T.apply``,
    and lists each reference's ``((array, coordinates), is_write)`` in
    ``program.references`` order.  Its elements are coordinate tuples
    where the production trace has int ids, so the two agree up to a
    relabeling of elements; it validates nothing itself.
    """
    points = list(program.nest.iterate())
    return _reference_trace(
        _reference_elements(program, points),
        array,
        _reference_order(points, transformation),
    )


def _reference_order(points: list, transformation: IntMatrix | None):
    """Native point indices in execution order."""
    if transformation is None:
        return range(len(points))
    return sorted(range(len(points)), key=lambda p: transformation.apply(points[p]))


def _reference_trace(per_ref: list, array: str | None, order) -> list:
    refs = [
        (name, is_write, elements)
        for name, is_write, elements in per_ref
        if array is None or name == array
    ]
    if not refs:
        raise KeyError(array)
    return [
        ((name, elements[p]), is_write)
        for p in order
        for name, is_write, elements in refs
    ]


def _first_occurrence_labels(elements) -> list[int]:
    """Each element renamed to the rank of its first occurrence, so two
    traces with the same partition of accesses into elements compare
    equal whatever their element names."""
    labels: dict = {}
    return [labels.setdefault(e, len(labels)) for e in elements]


def _reference_next_use(elements: list) -> list[int]:
    """The index of each access's next access to its element (or end)."""
    next_use = [len(elements)] * len(elements)
    last_seen: dict = {}
    for idx in range(len(elements) - 1, -1, -1):
        next_use[idx] = last_seen.get(elements[idx], len(elements))
        last_seen[elements[idx]] = idx
    return next_use


@register
class AccessTraceReference(Oracle):
    name = "access-trace-reference"
    kind = "cross"
    paper = (
        "MWS is the minimum on-chip memory because an optimally managed "
        "buffer replaying the nest's access trace needs no more; every "
        "buffer model here replays one array-coded trace, so it must "
        "equal a point-by-point walk of the same execution order up to "
        "element names: length, write flags, the partition of accesses "
        "into elements, next uses, and Belady and LRU buffer stats."
    )
    config = GeneratorConfig(min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        return random_program(
            seed,
            replace(
                self.config, depth=1 + seed % 3, uniform_only=seed % 2 == 0
            ),
        )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.memory.scratchpad import (
            access_stream,
            next_use_chain,
            simulate_stream,
        )
        from repro.transform.hierarchy_search import default_candidates

        rng = random.Random(seed * 7919 + 13)
        capacities = (rng.randint(1, 8), rng.randint(9, 64))
        points = list(program.nest.iterate())
        per_ref = _reference_elements(program, points)
        candidates = default_candidates(program)
        candidates.append(_seed_skew(program.nest.depth, seed))
        for t in candidates:
            order = _reference_order(points, t)
            for array in (None, *program.arrays):
                where = (
                    ("native" if t is None else f"T={t.rows}")
                    + ("" if array is None else f", array {array}")
                )
                expected = _reference_trace(per_ref, array, order)
                elements, writes = access_stream(program, array, t)
                if len(elements) != len(expected):
                    return self.fail(
                        f"{where}: {len(elements)} accesses != reference "
                        f"{len(expected)}",
                        program,
                    )
                flags = [is_write for _, is_write in expected]
                if writes.tolist() != flags:
                    return self.fail(
                        f"{where}: write flags differ from the reference",
                        program,
                    )
                labels = _first_occurrence_labels(e for e, _ in expected)
                if _first_occurrence_labels(elements.tolist()) != labels:
                    return self.fail(
                        f"{where}: accesses group into elements differently "
                        f"from the reference",
                        program,
                    )
                next_use = next_use_chain(elements)
                reference_next = _reference_next_use(labels)
                if next_use.tolist() != reference_next:
                    return self.fail(
                        f"{where}: next-use chain differs from the reference",
                        program,
                    )
                reference = (np.array(labels), np.array(flags))
                for policy in ("belady", "lru"):
                    for capacity in capacities:
                        got = simulate_stream(
                            (elements, writes), next_use, capacity, policy
                        )
                        want = simulate_stream(
                            reference, np.array(reference_next),
                            capacity, policy,
                        )
                        if got != want:
                            return self.fail(
                                f"{where}, capacity {capacity} ({policy}): "
                                f"{got} != reference {want}",
                                program,
                            )
        return None


# ----------------------------------------------------------------------
# the lifetime table's consumers: array code against per-point walks
# ----------------------------------------------------------------------

def lifetime_stats_reference(
    program: Program, array: str, transformation: IntMatrix | None = None
):
    """Per-point reference for :func:`repro.window.lifetime.lifetime_stats`:
    the statistics of :func:`repro.window.simulator.element_lifetimes`."""
    from repro.window.lifetime import LifetimeStats
    from repro.window.simulator import element_lifetimes

    spans = [
        last - first
        for first, last in element_lifetimes(
            program, array, transformation
        ).values()
    ]
    return LifetimeStats(
        array=array,
        touched_elements=len(spans),
        max_lifetime=max(spans),
        mean_lifetime=sum(spans) / len(spans),
        single_use_elements=sum(1 for s in spans if s == 0),
    )


def address_lifetimes_reference(
    program: Program,
    array: str,
    layout,
    transformation: IntMatrix | None = None,
) -> list[tuple[int, int, int]]:
    """``(address, first, last)`` per touched element, from
    :func:`repro.window.simulator.element_lifetimes`."""
    from repro.window.simulator import element_lifetimes

    decl = program.decl(array)
    return [
        (layout.address(decl, element), first, last)
        for element, (first, last) in element_lifetimes(
            program, array, transformation
        ).items()
    ]


def allocate_window_reference(
    program: Program,
    array: str,
    transformation: IntMatrix | None = None,
    layout=None,
):
    """Per-point reference for
    :func:`repro.transform.window_allocation.allocate_window`: the peak
    closed-interval live count by an event sweep over the walked
    lifetimes, then the upward scan of ``modulo_is_valid``."""
    from repro.layout import RowMajorLayout
    from repro.transform.window_allocation import (
        ModuloAllocation,
        modulo_is_valid,
    )
    from repro.window.simulator import max_window_size_reference

    lifetimes = address_lifetimes_reference(
        program, array, layout or RowMajorLayout(), transformation
    )
    declared = program.decl(array).declared_size
    events: dict[int, int] = {}
    for _, first, last in lifetimes:
        events[first] = events.get(first, 0) + 1
        events[last + 1] = events.get(last + 1, 0) - 1
    peak = current = 0
    for t in sorted(events):
        current += events[t]
        peak = max(peak, current)
    modulus = max(1, peak)
    while modulus < declared and not modulo_is_valid(lifetimes, modulus):
        modulus += 1
    mws = max_window_size_reference(program, array, transformation)
    return ModuloAllocation(array, modulus, mws, declared)


def line_lifetimes_reference(
    program: Program,
    array: str,
    layout,
    line_size: int,
    transformation: IntMatrix | None = None,
) -> dict[int, tuple[int, int]]:
    """Each touched line's ``(first, last)`` execution time, walking every
    point in the order of ``T.apply``: the reference for
    :func:`repro.layout.max_line_window` (its peak by
    :func:`repro.window.simulator._peak_live`) and
    :func:`repro.layout.line_window_profile`."""
    decl = program.decl(array)
    refs = program.refs_to(array)
    points = list(program.nest.iterate())
    lifetimes: dict[int, tuple[int, int]] = {}
    for time, p in enumerate(_reference_order(points, transformation)):
        for ref in refs:
            line = layout.address(decl, ref.element(points[p])) // line_size
            lifetimes[line] = (lifetimes.get(line, (time,))[0], time)
    return lifetimes


def live_sizes_reference(lifetimes, total: int) -> tuple[int, ...]:
    """Live count after each of ``total`` times, for ``(first, last)``
    half-open intervals."""
    deltas = [0] * (total + 1)
    for first, last in lifetimes:
        if last > first:
            deltas[first] += 1
            deltas[last] -= 1
    return tuple(itertools.accumulate(deltas[:total]))


def simulate_cache_reference(
    program: Program,
    config,
    layout=None,
    transformation: IntMatrix | None = None,
):
    """Per-point reference for :func:`repro.memory.simulate_cache`: every
    access's laid-out line, point by point in the order of ``T.apply``,
    through the same set-associative LRU."""
    from collections import OrderedDict

    from repro.memory.cachesim import CacheStats, allocate_arrays

    bases, layout = allocate_arrays(program, layout)
    points = list(program.nest.iterate())
    sets: list[OrderedDict] = [OrderedDict() for _ in range(config.n_sets)]
    hits = accesses = 0
    for p in _reference_order(points, transformation):
        for ref in program.references:
            address = bases[ref.array] + layout.address(
                program.decl(ref.array), ref.element(points[p])
            )
            line = address // config.line_size
            ways = sets[line % config.n_sets]
            accesses += 1
            if line in ways:
                hits += 1
                ways.move_to_end(line)
            else:
                ways[line] = None
                if len(ways) > config.associativity:
                    ways.popitem(last=False)
    return CacheStats(config, accesses, hits, accesses - hits)


@register
class LifetimeConsumersReference(Oracle):
    name = "lifetime-consumers-reference"
    kind = "cross"
    paper = (
        "Section 2.3's window is a function of each element's first and "
        "last access; the window profile, lifetime statistics, line "
        "windows, modulo buffers and the cache model all read the dense "
        "engine's one lifetime table, so each must equal a point-by-point "
        "walk of the same execution order: under row-major, column-major "
        "and blocked layouts, four line sizes and three cache geometries."
    )
    config = GeneratorConfig(min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        return random_program(
            seed,
            replace(
                self.config, depth=1 + seed % 3, uniform_only=seed % 2 == 0
            ),
        )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.layout import (
            BlockedLayout,
            ColumnMajorLayout,
            RowMajorLayout,
            line_window_profile,
            max_line_window,
        )
        from repro.memory.cachesim import CacheConfig, simulate_cache
        from repro.transform.elementary import signed_permutations
        from repro.transform.window_allocation import allocate_window
        from repro.window.lifetime import lifetime_stats
        from repro.window.simulator import (
            _peak_live,
            window_profile,
            window_profile_reference,
        )

        depth = program.nest.depth
        total = program.nest.total_iterations
        permutations = list(signed_permutations(depth))
        permutation = permutations[
            random.Random(seed * 104729 + 3).randrange(len(permutations))
        ]
        for t in (None, permutation, _seed_skew(depth, seed)):
            checks = []
            for array in program.arrays:
                checks += [
                    (
                        f"lifetime_stats({array})",
                        lifetime_stats(program, array, t),
                        lifetime_stats_reference(program, array, t),
                    ),
                    (
                        f"window_profile({array})",
                        window_profile(program, array, t),
                        window_profile_reference(program, array, t),
                    ),
                ]
                rank = program.decl(array).rank
                for layout in (
                    RowMajorLayout(),
                    ColumnMajorLayout(),
                    BlockedLayout((2,) * rank),
                ):
                    checks.append((
                        f"allocate_window({array}, {layout})",
                        allocate_window(program, array, t, layout),
                        allocate_window_reference(program, array, t, layout),
                    ))
                    for size in (1, 2, 3, 8):
                        lines = line_lifetimes_reference(
                            program, array, layout, size, t
                        ).values()
                        checks += [
                            (
                                f"max_line_window({array}, {layout}, {size})",
                                max_line_window(
                                    program, array, layout, size, t
                                ),
                                _peak_live(lines),
                            ),
                            (
                                f"line_window_profile({array}, {layout}, "
                                f"{size})",
                                line_window_profile(
                                    program, array, layout, size, t
                                ).sizes,
                                live_sizes_reference(lines, total),
                            ),
                        ]
            for config in (
                CacheConfig(4, 2, 2),
                CacheConfig(8, 4, 4),
                CacheConfig(16, 1, 1),
            ):
                for layout in (RowMajorLayout(), ColumnMajorLayout()):
                    checks.append((
                        f"simulate_cache({config}, {layout})",
                        simulate_cache(program, config, layout, t),
                        simulate_cache_reference(program, config, layout, t),
                    ))
            where = "native" if t is None else f"T={t.rows}"
            for label, got, want in checks:
                if got != want:
                    return self.fail(
                        f"{where}: {label} = {got} != reference {want}",
                        program,
                    )
        return None


# ----------------------------------------------------------------------
# candidate screens: the stacks and array screens against per-matrix code
# ----------------------------------------------------------------------

_TILING = "tiling: T d < 0 for a reuse distance"
_ROW_TILING = "tiling: a*d1 + b*d2 < 0 for a reuse distance"
_LEGALITY = "legality: reverses a lex-positive dependence"


@functools.lru_cache(maxsize=None)
def unimodular_matrices_reference(n: int, bound: int) -> np.ndarray:
    """Per-matrix reference for :func:`repro.transform.elementary.unimodular_stack`.

    Walks ``itertools.product`` of the entries and keeps each matrix
    whose determinant is +-1 (closed forms for n = 2, 3, Bareiss
    beyond).  Cached as an int64 ``(K, n, n)`` array: n = 3, bound 2 is
    1,953,125 determinant checks.
    """
    entries = range(-bound, bound + 1)
    kept: list = []
    if n == 2:
        for a, b, c, d in itertools.product(entries, repeat=4):
            if a * d - b * c in (1, -1):
                kept.append(((a, b), (c, d)))
    elif n == 3:
        for flat in itertools.product(entries, repeat=9):
            a, b, c, d, e, f, g, h, i = flat
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            if det in (1, -1):
                kept.append((flat[0:3], flat[3:6], flat[6:9]))
    else:
        for flat in itertools.product(entries, repeat=n * n):
            m = IntMatrix([list(flat[k * n:(k + 1) * n]) for k in range(n)])
            if m.det() in (1, -1):
                kept.append(m.rows)
    return np.array(kept, dtype=np.int64).reshape(len(kept), n, n)


@functools.lru_cache(maxsize=None)
def signed_permutations_reference(n: int) -> np.ndarray:
    """Per-matrix reference for
    :func:`repro.transform.elementary.signed_permutation_stack`."""
    kept = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = []
            for target, sign in zip(perm, signs):
                row = [0] * n
                row[target] = sign
                rows.append(row)
            kept.append(rows)
    return np.array(kept, dtype=np.int64).reshape(len(kept), n, n)


def screen_reference(
    matrices, window_distances, order_distances
) -> tuple[list[bool], list[bool], list[int], list[int]]:
    """Per-matrix reference for :func:`repro.transform.legality.screen_stack`:
    ``(tileable, legal, min_level, level_sum)`` lists, one ``T.apply(d)``
    per matrix and distance."""
    from repro.dependence.distance import is_lex_positive, lex_level

    out: tuple[list, list, list, list] = ([], [], [], [])
    for t in matrices:
        moved = [t.apply(d) for d in window_distances]
        levels = [lex_level(v) or (t.n_rows + 1) for v in moved]
        out[0].append(all(c >= 0 for v in moved for c in v))
        out[1].append(all(is_lex_positive(t.apply(d)) for d in order_distances))
        out[2].append(min(levels, default=0))
        out[3].append(sum(levels))
    return out


def screened_reference(matrices, window_distances, order_distances, tiling, jr):
    """Per-matrix reference for ``repro.transform.search._screened``: the
    enumerate loop, one journal record per matrix as it is tested."""
    from repro.transform.legality import is_legal, is_tileable

    kept = []
    for k, t in enumerate(matrices):
        if tiling and not is_tileable(t, window_distances):
            if jr is not None:
                jr.record("enumerate", t.rows, "rejected", reason=_TILING)
            continue
        if not is_legal(t, order_distances):
            if jr is not None:
                jr.record("enumerate", t.rows, "rejected", reason=_LEGALITY)
            continue
        kept.append(k)
        if jr is not None:
            jr.record("enumerate", t.rows, "candidate")
    return kept


def level_leaders_reference(seed, matrices, window_distances, verify_top):
    """Per-matrix reference for ``repro.transform.search._level_leaders``:
    the seed first, then the matrices, by one stable sort on the level
    key; the first ``verify_top``."""
    from repro.dependence.distance import lex_level

    def level_key(t: IntMatrix) -> tuple:
        levels = [
            lex_level(t.apply(d)) or (t.n_rows + 1) for d in window_distances
        ]
        weight = sum(abs(v) for row in t.rows for v in row)
        return (-min(levels, default=0), -sum(levels), weight)

    candidates = ([] if seed is None else [seed]) + list(matrices)
    candidates.sort(key=level_key)
    return candidates[:verify_top]


def tileable_rows_reference(bound, window_distances, jr):
    """Per-row reference for ``repro.transform.search._tileable_rows``."""
    from repro.transform.search import _coprime_rows

    kept = []
    for a, b in _coprime_rows(bound):
        if any(a * d1 + b * d2 < 0 for d1, d2 in window_distances):
            if jr is not None:
                jr.record("enumerate", ((a, b),), "rejected", reason=_ROW_TILING)
            continue
        kept.append((a, b))
    return kept


def _matrices(stack: np.ndarray) -> list[IntMatrix]:
    return [IntMatrix(rows) for rows in stack.tolist()]


@contextlib.contextmanager
def per_matrix_screens():
    """Run the transformation searches on the per-matrix reference.

    Inside the block :mod:`repro.transform.search` enumerates with the
    ``itertools`` references, screens and journals one matrix at a time,
    ranks with a Python sort and filters 2-D rows one at a time — the
    searches as they were before the array screens.  Restored on exit.
    """
    import repro.transform.search as search

    def screened(stack, window_distances, order_distances, tiling, jr):
        kept = screened_reference(
            _matrices(stack), window_distances, order_distances, tiling, jr
        )
        return np.array(kept, dtype=np.intp), None

    def leaders(seed, stack, survivors, verdict, window_distances, verify_top):
        return level_leaders_reference(
            seed, _matrices(stack[survivors]), window_distances, verify_top
        )

    patches = {
        "unimodular_stack": unimodular_matrices_reference,
        "signed_permutation_stack": signed_permutations_reference,
        "_screened": screened,
        "_level_leaders": leaders,
        "_tileable_rows": tileable_rows_reference,
    }
    saved = {name: getattr(search, name) for name in patches}
    try:
        for name, fn in patches.items():
            setattr(search, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(search, name, fn)


def _journaled(search_fn, *args, **kwargs):
    """``(result or error, journal records)`` of one search from cold caches."""
    from repro.transform import journal
    from repro.transform.search import clear_exact_cache

    clear_exact_cache()
    jr = journal.enable()
    try:
        result = search_fn(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        result = f"{type(exc).__name__}: {exc}"
    finally:
        journal.disable()
    return result, jr.records


def _screen_spaces(depth: int) -> list[tuple[str, int | None]]:
    """``(space, bound)`` pairs screened at this depth: the signed
    permutations always, bounded unimodular matrices at bounds 1 and 2
    while their per-matrix enumeration stays affordable (n <= 3)."""
    spaces: list[tuple[str, int | None]] = [("signed", None)]
    if depth <= 3:
        spaces += [("unimodular", 1), ("unimodular", 2)]
    return spaces


@register
class CandidateScreenReference(Oracle):
    name = "candidate-screen-reference"
    kind = "cross"
    paper = (
        "Sections 4.2-4.3 rank the legal, tileable unimodular "
        "transformations by where they move reuse; screening a whole "
        "enumerated space as array code is a re-association of the same "
        "per-matrix tests, so the stacks, masks, level keys, leaders and "
        "search journals must equal a one-matrix-at-a-time walk."
    )
    config = GeneratorConfig(min_trip=2, max_trip=6)

    def generate(self, seed: int) -> Program:
        depth = 1 + seed % 4
        # Depth 4 keeps three access rows: fewer leave a kernel of
        # dimension >= 3, whose dependence grid search takes seconds.
        return random_program(
            seed,
            replace(
                self.config,
                depth=depth,
                uniform_only=(seed // 4) % 2 == 0,
                array_rank=3 if depth == 4 else None,
            ),
        )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        from repro.transform import search
        from repro.transform.elementary import (
            signed_permutation_stack,
            unimodular_stack,
        )
        from repro.transform.legality import ordering_distances, reuse_distances

        n = program.nest.depth
        arrays = [a for a in program.arrays if program.is_uniformly_generated(a)]
        program_order: dict = {}
        for a in arrays:
            program_order.update(dict.fromkeys(ordering_distances(program, a)))
        distance_sets = [("program", (), list(program_order))] + [
            (a, reuse_distances(program, a), ordering_distances(program, a))
            for a in arrays
        ]
        # Bound 2 at depth 3 is 135,408 matrices a walk, so each case
        # takes one array's distances over an eighth of that stack, both
        # rotating with the seed (depth-3 seeds are 4 apart).
        heavy = arrays[(seed // 4) % len(arrays)] if arrays else None
        for space, bound in _screen_spaces(n):
            if space == "signed":
                stack, reference = (
                    signed_permutation_stack(n), signed_permutations_reference(n)
                )
            else:
                stack, reference = (
                    unimodular_stack(n, bound),
                    unimodular_matrices_reference(n, bound),
                )
            where = f"{space}" + ("" if bound is None else f" bound {bound}")
            if stack.shape != reference.shape or not np.array_equal(
                stack, reference
            ):
                return self.fail(
                    f"{where}: stack {stack.shape} differs from the "
                    f"reference enumeration {reference.shape}",
                    program,
                )
            heavy_only = n == 3 and bound == 2
            if heavy_only:
                start = (seed // 4) % 8
                stack = stack[start::8]
                where += f" rows {start}::8"
            matrices = _matrices(stack)
            for label, window, order in distance_sets:
                if heavy_only and label != heavy:
                    continue
                detail = self._screens(
                    stack, matrices, window, order, space == "unimodular",
                    with_stages=label != "program",
                )
                if detail is not None:
                    return self.fail(
                        f"{where}, {label} distances: {detail}", program
                    )
        runs = []
        for array in arrays:
            if n == 2:
                runs.append((search.search_mws_2d, (program, array), {}))
            elif n == 3:
                runs.append(
                    (search.search_mws_3d, (program, array), {"bound": 1})
                )
            else:
                runs.append((search.search_general, (program, array), {}))
            if n <= 2:
                runs.append(
                    (
                        search.exhaustive_search, (program, array),
                        {"bound": 1, "tileable_only": seed % 2 == 0},
                    )
                )
        for fn, args, kwargs in runs:
            got = _journaled(fn, *args, **kwargs)
            with per_matrix_screens():
                want = _journaled(fn, *args, **kwargs)
            label = f"{fn.__name__}({args[1]!r}, {kwargs})"
            if got[0] != want[0]:
                return self.fail(
                    f"{label}: {got[0]} != reference {want[0]}", program
                )
            if got[1] != want[1]:
                k = next(
                    (k for k, (x, y) in enumerate(zip(got[1], want[1])) if x != y),
                    min(len(got[1]), len(want[1])),
                )
                mine = got[1][k] if k < len(got[1]) else None
                theirs = want[1][k] if k < len(want[1]) else None
                return self.fail(
                    f"{label}: journal record {k} is {mine}, reference "
                    f"{theirs} ({len(got[1])} vs {len(want[1])} records)",
                    program,
                )
        return None

    @staticmethod
    def _screens(stack, matrices, window, order, tiling, with_stages):
        """What differs between the array screen and the per-matrix walk
        over one stack and distance set, or ``None``: masks and keys,
        then (``with_stages``) the search stages built on them — the
        enumerate journal and survivors of ``_screened`` and the
        ``_level_leaders`` ranking."""
        from repro.transform import search
        from repro.transform.journal import SearchJournal
        from repro.transform.legality import screen_stack

        verdict = screen_stack(stack, window, order)
        got = (
            verdict.tileable.tolist(), verdict.legal.tolist(),
            verdict.min_level.tolist(), verdict.level_sum.tolist(),
        )
        want = screen_reference(matrices, window, order)
        for field, mine, theirs in zip(
            ("tileable", "legal", "min_level", "level_sum"), got, want
        ):
            if mine != theirs:
                k = next(k for k, (x, y) in enumerate(zip(mine, theirs)) if x != y)
                return (
                    f"{field} of T={matrices[k].rows} is {mine[k]}, "
                    f"reference {theirs[k]}"
                )
        if not with_stages:
            return None
        mine_jr, their_jr = SearchJournal(), SearchJournal()
        kept, verdict = search._screened(stack, window, order, tiling, mine_jr)
        theirs = screened_reference(matrices, window, order, tiling, their_jr)
        if mine_jr.records != their_jr.records or kept.tolist() != theirs:
            return (
                f"tiling={tiling}: {len(kept)} survivors and "
                f"{len(mine_jr)} journal records differ from the "
                f"reference's {len(theirs)} and {len(their_jr)}"
            )
        leaders = search._level_leaders(None, stack, kept, verdict, window, 4)
        reference = level_leaders_reference(
            None, [matrices[k] for k in theirs], window, 4
        )
        if leaders != reference:
            return (
                f"leaders {[t.rows for t in leaders]} != reference "
                f"{[t.rows for t in reference]}"
            )
        return None


# ----------------------------------------------------------------------
# the search cache
# ----------------------------------------------------------------------

#: Record kinds holding a whole answer (one record per answer).
_WHOLE_ANSWER_KINDS = ("answer", "hierarchy")


def _logging_store(root):
    """A :class:`repro.store.ResultStore` that lists the record files
    of the whole answers it is asked for (``store.read``)."""
    from repro.store import ResultStore

    class LoggingStore(ResultStore):
        def __init__(self, root) -> None:
            super().__init__(root)
            self.read: list = []

        def get(self, kind, key):
            if kind in _WHOLE_ANSWER_KINDS:
                self.read.append(self.record_path(kind, key))
            return super().get(kind, key)

    return LoggingStore(root)


def _small_tcm():
    """The ``tcm`` preset shrunk to 8 + 32 words, so generated nests
    overflow it and the hierarchy search prunes."""
    from repro.memory.hierarchy import preset

    return preset("tcm").resized(0, 8).resized(1, 32)


def search_cache_answers(
    program: Program, store, cold: bool = False
) -> list[tuple[str, object]]:
    """Every whole answer the search cache serves for ``program``, in a
    fixed order: the per-array search of each uniform array and
    ``optimize_program`` (memoized only), ``search_hierarchy`` with
    ``prune`` on and off (depth <= 3, on :func:`_small_tcm`), and every
    api kind as ``(field, value)`` lists, so field order counts —
    ``search`` and ``mws`` once per array (``mws`` for the total too),
    so a key that drops the array shows, and ``param`` on 2-deep nests.  The caller's own name reads
    ``"<caller>"``, so any other name shows; an error is an answer too.
    ``cold`` empties the memos before each answer, so that none is
    served from another's cache entry."""
    from repro.api import evaluate_kind
    from repro.core.optimizer import optimize_program
    from repro.transform.hierarchy_search import search_hierarchy
    from repro.transform.search import search_best_transformation

    def named(value):
        if getattr(value, "program", None) == program.name:
            return replace(value, program="<caller>")
        if isinstance(value, dict):
            return [
                (k, "<caller>" if k == "program" and v == program.name else v)
                for k, v in value.items()
            ]
        return value

    calls = [
        (f"search {array}",
         functools.partial(search_best_transformation, program, array))
        for array in program.arrays if program.is_uniformly_generated(array)
    ]
    calls.append(("optimize", functools.partial(optimize_program, program)))
    if program.nest.depth <= 3:
        calls += [
            (f"hierarchy prune={prune}",
             functools.partial(
                 search_hierarchy, program, _small_tcm(), prune=prune, store=store
             ))
            for prune in (True, False)
        ]
    kinds = [
        ("optimize", None), ("analyze", None), ("hierarchy", None),
        ("mws", None),
        *((kind, array) for kind in ("search", "mws") for array in program.arrays),
    ]
    if program.nest.depth == 2:
        # Deeper generated nests can take 10-20 s to derive a closed form.
        kinds.append(("param", None))
    calls += [
        (f"kind {kind} {array or ''}".rstrip(),
         functools.partial(evaluate_kind, kind, program, array, store))
        for kind, array in kinds
    ]
    answers: list[tuple[str, object]] = []
    for label, call in calls:
        if cold:
            _clear_memos()
        try:
            answers.append((label, named(call())))
        except (ValueError, KeyError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            answers.append((label, error.replace(program.name, "<caller>")))
    return answers


def _clear_memos() -> None:
    """Empty the whole-result, window and parametric memos."""
    from repro.estimation.parametric import clear_param_cache
    from repro.transform.search import clear_exact_cache

    clear_exact_cache()
    clear_param_cache()


@register
class SearchCacheRoundtrip(Oracle):
    name = "search-cache-roundtrip"
    kind = "cross"
    paper = (
        "Section 4's search result, and every api answer built on it, is "
        "a pure function of the loop nest and the knobs it reads, so "
        "serving it from the in-process memo or the store, under any "
        "program name, or recomputing it past a corrupt record must give "
        "exactly the storeless answer."
    )
    config = GeneratorConfig(min_trip=2, max_trip=5)

    def generate(self, seed: int) -> Program:
        depth = 2 + seed % 3
        # Depth 4 keeps three access rows, as in candidate-screen-reference.
        return random_program(
            seed,
            replace(
                self.config,
                depth=depth,
                uniform_only=(seed // 3) % 2 == 0,
                array_rank=3 if depth == 4 else None,
            ),
        )

    def check(self, program: Program, seed: int = 0) -> Violation | None:
        import json
        import tempfile

        renamed = _rebuild(program, name=f"{program.name}-renamed")
        want = search_cache_answers(renamed, None, cold=True)
        with tempfile.TemporaryDirectory() as root:
            store = _logging_store(root)
            for label, subject in (
                ("fresh store", program),
                ("warm store, memos cleared", renamed),
                ("one record truncated", renamed),
            ):
                _clear_memos()
                store.drop_memory()
                if label == "one record truncated":
                    # A record the warm pass read, so this pass reads it.
                    read = sorted(p for p in set(store.read) if p.exists())
                    victim = read[seed % len(read)]
                    text = victim.read_text(encoding="utf-8")
                    victim.write_text(text[: len(text) // 2], encoding="utf-8")
                store.read = []
                got = search_cache_answers(subject, store)
                for (what, mine), (_, theirs) in zip(got, want):
                    if mine != theirs:
                        return self.fail(
                            f"{label}: {what} answered {mine}, storeless "
                            f"{theirs}",
                            program,
                        )
            try:
                json.loads(victim.read_text(encoding="utf-8"))
            except ValueError:
                return self.fail(
                    f"truncated record {victim.parent.name}/{victim.name} "
                    f"was not rewritten by the recompute",
                    program,
                )
        return None
