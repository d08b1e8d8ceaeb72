"""Regenerate the seeded regression corpus (idempotent).

Run from the repo root::

    PYTHONPATH=src python tests/corpus/regenerate.py

Each entry is a *fixed* bug or a hand-minimized conformance pin: the
corpus replay test asserts every file passes its oracle, so
reintroducing one of these bugs turns the replay red with the smallest
known witness.  New entries normally arrive via ``repro check --corpus
tests/corpus`` on a failing run; this script only rebuilds the curated
seeds (stale files for the same oracle+program hash are overwritten in
place, renamed sources produce new files).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.check.runner import replay_file, write_repro  # noqa: E402
from repro.ir import parse_program  # noqa: E402

CORPUS = Path(__file__).resolve().parent

SEEDS = [
    dict(
        oracle="estimate-brackets-exact",
        seed=0,
        source=(
            "for i1 = 1 to 2 { for i2 = 1 to 2 { A0[i1][i2] = A0[i1][i2] } }"
        ),
        detail=(
            "PR-3 d==n offset-dedup bug: duplicate-offset references "
            "inflated r in r*total - reuse while contributing no reuse "
            "distance, so the formula claimed A_d = 8 'exactly' where "
            "enumeration counts 4.  Fixed by collapsing duplicate offsets "
            "before counting r (estimation/distinct.py)."
        ),
        note="minimized witness of the PR-3 exactness bug",
    ),
    dict(
        oracle="permutation-preserves-semantics",
        seed=182141,
        source="for i1 = 1 to 2 { for i2 = 1 to 2 { A0[2*i1] = A0[2*i1 + 2] } }",
        detail=(
            "PR-4 legality bug: for a singular access row [2, 0] the "
            "anti-dependence family is (1, t); the canonical "
            "representative pinned t to 0 and the endpoint walk only went "
            "in the +t direction, so the in-bounds member (1, -1) was "
            "never emitted and loop interchange was declared legal while "
            "changing execution results.  Fixed by emitting both extreme "
            "in-bounds family members (dependence/analysis.py)."
        ),
        note="shrunk by repro check from fuzz seed 182141",
    ),
    dict(
        oracle="legality-exact",
        seed=31,
        source=(
            "for i1 = 1 to 3 { for i2 = 1 to 4 { for i3 = 1 to 3 { "
            "A0[2*i1 - 3*i2 - 2*i3 - 4] = A0[2*i1 - 3*i2 - 2*i3 - 1] "
            "} } }"
        ),
        detail=(
            "Kernel-dimension-2 legality bug: one access row in a 3-deep "
            "nest leaves a 2-D kernel, where the endpoint emission added "
            "no family members and a radius-64 grid, blind to the loop "
            "bounds, picked (0, 2, -3) for the write's output family, a "
            "distance no two iterations have.  The in-bounds output "
            "distance (1, 0, 1) went unseen, and optimize_program chose "
            "T=((0, 1, 0), (-1, 0, 0), (0, 0, 1)), which maps it to "
            "(0, -1, 1), reporting a window of 7 for an illegal order "
            "(legal optimum 10).  Fixed by one exact in-box family "
            "enumeration (dependence/analysis.py: family_in_box)."
        ),
        note=(
            "GeneratorConfig(depth=3, min_trip=3, max_trip=5) at seed 31, "
            "pinned unshrunk"
        ),
    ),
    dict(
        oracle="nonuniform-bounds-bracket",
        seed=0,
        source="for i1 = 1 to 6 { for i2 = 1 to 4 { A0[2*i1] = A0[i1 + i2] } }",
        detail=(
            "Section 3.2 interval-bound pin: non-uniform 1-D references "
            "(stride-2 write vs. skewed read) where the true union count "
            "must stay below UB_max - LB_min + 1."
        ),
        note="conformance pin for the non-uniform bounds path",
    ),
    dict(
        oracle="parametric-mws-conformance",
        seed=0,
        source=(
            "for i1 = 1 to 25 { for i2 = 1 to 10 { "
            "A0[2*i1 + 5*i2] = A0[2*i1 + 5*i2] } }"
        ),
        detail=(
            "Example 8 parametric pin: eq. (2) estimates 50 at (25, 10) "
            "but the exact window is 40 = 5*N2 - 10; the derived closed "
            "form must reproduce the exact engines, not the estimate, at "
            "every sampled bound vector."
        ),
        note="conformance pin for the parametric MWS derivation",
    ),
    dict(
        oracle="parametric-mws-conformance",
        seed=1060,
        source=(
            "for i1 = 1 to 3 { for i2 = 1 to 3 { "
            "A0[-i1 - i2] = A0[-i1 - i2 + 4] } }"
        ),
        detail=(
            "Diagonal-regime bug: under the seed-derived skewing order "
            "T=((1,-1),(-1,0)) the exact MWS switches regime along "
            "N1 == N2; the asymmetric derivation box (6,12)+spread sat "
            "entirely on one side of that diagonal, so the degree-1 fit "
            "2*N1 + 2 passed held-out verification yet overcounted by "
            "one from (12,12) on.  Fixed by also verifying on the "
            "square corners at max(base) (estimation/parametric.py)."
        ),
        note="shrunk by repro check from fuzz seed 1060",
    ),
    dict(
        oracle="parametric-mws-conformance",
        seed=1254,
        source=(
            "array A0[-6:5][-13:3]\n"
            "for i1 = 1 to 5 {\n"
            "  for i2 = 1 to 3 {\n"
            "    S1: A0[i1 - i2][-2*i1 + i2 + 1]\n"
            "    S2: A0[i1 - i2 - 4][-2*i1 + i2 - 4] = "
            "A0[i1 - i2 + 1][-2*i1 + i2 + 2]\n"
            "  }\n"
            "}\n"
        ),
        detail=(
            "Lex-orientation bug in the pairwise derivation base: "
            "dependence_distance keeps only the lex-positive family "
            "member, and with a nonsingular access matrix (empty "
            "kernel) the solution of one pair orientation is "
            "lex-negative and was dropped — here S1's read and S2's "
            "write solve to d = (9, 13), so the base stayed at (6, 8) "
            "and the deg-1 fit 2*N2 - 3 verified entirely below the "
            "regime entering at (10, 14), undercounting the window by "
            "the (N1 - 9)(N2 - 13) overlap.  Fixed by folding both "
            "orientations of every pair (estimation/parametric.py)."
        ),
        note="fuzz seed 1254, pinned unshrunk (already 2 statements)",
    ),
    dict(
        oracle="parametric-distinct-conformance",
        seed=1007,
        source=(
            "array A0[1:1][-5:3][0:0]\n"
            "for i1 = 1 to 1 {\n"
            "  for i2 = 1 to 1 {\n"
            "    for i3 = 1 to 1 {\n"
            "      S1: A0[i3][-2*i1 + i3 - 4][0] = 0\n"
            "      S2: A0[-i1 + 2*i3][-2*i1 + 2*i3 + 3][-2*i1 + 2*i3] = 0\n"
            "    }\n"
            "  }\n"
            "}\n"
        ),
        detail=(
            "Regime-blindness bug: the two writes have different access "
            "matrices, so their images first intersect at N3 = 9 — a "
            "regime boundary derivation_base cannot see from reuse "
            "distances (the same fuzz range also caught the uniform "
            "variant: pairwise A d = Δb solutions between references "
            "with no common sink were dropped, leaving the base at its "
            "floor).  The deg-1 fit verified entirely inside the "
            "clamped regime and overcounted beyond it.  Fixed by "
            "folding every pairwise distance into derivation_base, "
            "uncapping it in favor of a derivation_feasible decline, "
            "and refusing derivation outright for non-uniformly "
            "generated multi-reference arrays "
            "(estimation/parametric.py: derivation_supported)."
        ),
        note="shrunk by repro check from fuzz seed 1007",
    ),
    dict(
        oracle="parametric-distinct-conformance",
        seed=0,
        source=(
            "for i1 = 1 to 10 { for i2 = 1 to 10 { "
            "A0[i1][i2] = A0[i1 - 1][i2 + 2] } }"
        ),
        detail=(
            "Section 3 parametric pin: A_d = N1*N2 + 2*N1 + N2 - 2 for "
            "the (1, -2) kernel-reuse stencil; the derived form must "
            "match enumeration at every sampled bound vector, including "
            "the per-axis corners where the reuse clamps."
        ),
        note="conformance pin for the parametric distinct-access derivation",
    ),
    dict(
        oracle="hierarchy-degenerate-flat",
        seed=3,
        source=(
            "for i1 = 1 to 4 { for i2 = 1 to 4 { "
            "A0[i1 + i2] = A0[i1 + i2 + 1] } }"
        ),
        detail=(
            "Degenerate-hierarchy pin: a one-tier stack is definitionally "
            "the flat scratchpad, so its only boundary level must equal "
            "simulate_scratchpad field for field (both policies, native "
            "and seed-transformed order) and its energy must decompose as "
            "hits*E_tier + transfers*E_back."
        ),
        note="conformance pin for the stacked hierarchy simulation",
    ),
    dict(
        oracle="hierarchy-capacity-monotone",
        seed=7,
        source=(
            "for i1 = 1 to 5 { for i2 = 1 to 5 { "
            "A0[i1][i2] = A0[i1 - 1][i2 + 1] + A0[i1][i2 - 2] } }"
        ),
        detail=(
            "Stack-property pin: growing any tier of the seed-derived "
            "stack (costs fixed) may not increase any boundary's "
            "transfers nor the total energy/latency — Belady's inclusion "
            "property lifted through the cumulative-capacity simulation."
        ),
        note="conformance pin for hierarchy capacity monotonicity",
    ),
    dict(
        oracle="hierarchy-bound-admissible",
        seed=11,
        source=(
            "for i1 = 1 to 6 { for i2 = 1 to 6 { "
            "A0[2*i1 + i2] = A0[2*i1 + i2 + 3] } }"
        ),
        detail=(
            "Admissibility pin: the phase/cold-traffic lower bound may "
            "never exceed simulated transfers — whole program or one "
            "array, Belady or LRU, native or transformed order, flat "
            "buffer or a tier stack at its total capacity."
        ),
        note="conformance pin for the transfer lower bound",
    ),
    dict(
        oracle="access-trace-reference",
        seed=5,
        source=(
            "for i1 = 1 to 4 { for i2 = 1 to 3 { "
            "A0[i1 + i2] = A0[2*i1] + B0[i2][i1] } }"
        ),
        detail=(
            "Trace-identity pin: A0's write and read are not uniformly "
            "generated and B0 shares the trace's id space only through "
            "its per-array offset, so under every legal signed "
            "permutation and the seed's skew, for the whole program and "
            "each array, the array-coded access_stream must match the "
            "per-point walk up to element names: length, write flags, "
            "the partition of accesses into elements, next uses, and "
            "Belady and LRU stats at two capacities."
        ),
        note="conformance pin for the array-coded access trace",
    ),
    dict(
        oracle="candidate-screen-reference",
        seed=10,
        source=(
            "for i = 1 to 3 { for j = 1 to 4 { for k = 1 to 3 { "
            "A[i][j] = A[i][j - 1] + B[k][j] } } }"
        ),
        detail=(
            "Leader-order pin for the 3-D level search: no bound-1 "
            "matrix tiles A's reuse distances, so its embedded "
            "seed ((1, 0, 0), (0, 1, 0), (0, 2, 1)) ranks alone, while "
            "B's seed ((0, 0, 1), (0, 1, 0), (1, 0, 0)) is also one of "
            "its 2,088 tileable stack matrices with the same level key, "
            "and the stable sort must keep the seed first.  Masks, keys, "
            "leaders and journal records (on an eighth of the bound-2 "
            "stack too) must match the per-matrix walk."
        ),
        note="conformance pin for the array candidate screens",
    ),
    dict(
        oracle="candidate-screen-reference",
        seed=2,
        source=(
            "for i = 1 to 3 { for j = 1 to 3 { for k = 1 to 3 { "
            "A[2*i + 1] = A[2*i - 1] } } }"
        ),
        detail=(
            "Level-sum pin for the 3-D leaders: A's two reuse distances "
            "(0, 0, 1) and (1, -2, -2) leave many bound-1 matrices at "
            "the same deepest minimum level, and the level sum decides "
            "which four are simulated.  While a radius-64 grid gave "
            "(1, -64, -64) instead of the in-box (1, -2, -2), ranking the "
            "sum the wrong way round picked "
            "T=((1, -1, 1), (0, -1, 0), (1, 0, 0)) with exact MWS 4 where "
            "the per-matrix sort finds T=((1, 0, 0), (0, -1, 0), "
            "(0, -1, 1)) with MWS 2; the signed-permutation pin below "
            "witnesses that mutation now."
        ),
        note="conformance pin for the 3-D leaders' level-sum key",
    ),
    dict(
        oracle="candidate-screen-reference",
        seed=10,
        source=(
            "for i1 = 1 to 1 { for i2 = 1 to 2 { for i3 = 1 to 2 { "
            "S1: A1[-3*i1 + i2]\n S2: A1[-3*i1 + i2 - 1] } } }"
        ),
        detail=(
            "Level-sum pin on in-box distances: A1's reuse distances "
            "(0, 0, 1) and (0, 1, -1) tie the signed permutations that "
            "keep i1 outermost at one minimum level, so the level sum "
            "orders the four leaders; ranking it the wrong way round "
            "puts i3 before i2."
        ),
        note="mutation witness: level-sum sign flipped in the lexsort key",
    ),
    dict(
        oracle="engines-agree-2d",
        seed=0,
        source=(
            "for i1 = 1 to 6 { for i2 = 1 to 6 { "
            "A0[i1 + i2] = A0[i1 + i2 + 1] + A0[i1 + i2 + 2] } }"
        ),
        detail=(
            "Cross-engine pin: all four engines must agree on the diagonal "
            "stencil natively and under the seed-derived transformed "
            "order.  At seed 0 the oracle streams it in blocks of one "
            "point, so the streaming answer merges 36 block results."
        ),
        note="conformance pin for the four window engines",
    ),
    dict(
        oracle="statement-order-exact",
        seed=0,
        source=(
            "for i = 1 to 4 { for j = 1 to 4 { "
            "S1: T[i + j] = A[i][j]\n S2: B[i][j] = T[i + j] } }"
        ),
        detail=(
            "Fusion bug: can_fuse refused a cross-nest family only when "
            "its box-free smallest member was lex-negative with no "
            "lex-positive one, so T[i + j], whose family (1, -1) has "
            "members both ways, passed.  Fusing S1's nest with S2's "
            "accepted a fusion in which S2 at (1, 2) reads T[3] before "
            "S1 writes it at (2, 1), so 9 elements of B differ from the "
            "two nests run in sequence.  Fixed by one exact test on the "
            "fused body (dependence/analysis.py: pair_order)."
        ),
        note="the fusion of S1's nest and S2's nest is refused",
    ),
    dict(
        oracle="statement-order-exact",
        seed=0,
        source="for i = 1 to 8 { S1: B[i] = A[i - 1]\n S2: A[i] = C[i] }",
        detail=(
            "Fusion bug: can_fuse only paired the first nest's writes "
            "with the second nest's references, so the anti dependence "
            "from S1's read of A[i - 1] to S2's write of A[i] went "
            "unseen.  Fusing S1's nest with S2's lets S2 at i - 1 "
            "overwrite A[i - 1] before S1 reads it at i, so 7 elements "
            "of B differ from the two nests run in sequence.  Fixed by "
            "testing every reference pair with a write "
            "(transform/fusion.py: can_fuse)."
        ),
        note="the fusion of S1's nest and S2's nest is refused",
    ),
]


def main() -> int:
    failures = 0
    for entry in SEEDS:
        program = parse_program(entry["source"], name="repro")
        path = write_repro(
            CORPUS,
            entry["oracle"],
            program,
            entry["seed"],
            entry["detail"],
            note=entry["note"],
        )
        violation = replay_file(path)
        status = "PASS" if violation is None else f"FAIL ({violation.detail})"
        print(f"{path.name}: {status}")
        if violation is not None:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
