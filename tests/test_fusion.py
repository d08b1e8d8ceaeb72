"""Tests for loop fusion across nest sequences."""

import pytest

from repro.check.oracles import fusion_truth
from repro.ir import parse_program
from repro.ir.interpreter import (
    differing_elements,
    execute,
    initial_state,
    states_equal,
)
from repro.ir.program import Program
from repro.ir.sequence import ProgramSequence, sequence_memory_report
from repro.transform.fusion import (
    FusionError,
    can_fuse,
    fuse,
    fusion_memory_report,
)
from repro.window import max_total_window


def producer(name="produce"):
    return parse_program(
        "for i = 1 to 16 { for j = 1 to 16 { P1: T[i][j] = A[i][j] } }",
        name=name,
    )


def consumer(name="consume"):
    return parse_program(
        "for i = 1 to 16 { for j = 1 to 16 { C1: B[i][j] = T[i][j] + T[i-1][j] } }",
        name=name,
    )


class TestCanFuse:
    def test_legal_chain(self):
        ok, reason = can_fuse(producer(), consumer())
        assert ok, reason

    def test_mismatched_bounds(self):
        other = parse_program(
            "for i = 1 to 8 { for j = 1 to 16 { C1: B[i][j] = T[i][j] } }"
        )
        ok, reason = can_fuse(producer(), other)
        assert not ok and "nests differ" in reason

    def test_duplicate_labels(self):
        a = parse_program("for i = 1 to 4 { S1: T[i] = A[i] }")
        b = parse_program("for i = 1 to 4 { S1: B[i] = T[i] }")
        ok, reason = can_fuse(a, b)
        assert not ok and "labels" in reason

    def test_fusion_preventing_forward_read(self):
        # The consumer reads T[i+1], produced later: illegal to fuse.
        a = parse_program("for i = 1 to 8 { P1: T[i] = A[i] }")
        b = parse_program("for i = 1 to 8 { C1: B[i] = T[i+1] }")
        ok, reason = can_fuse(a, b)
        assert not ok and "fusion-preventing" in reason

    def test_same_iteration_flow_is_fusable(self):
        a = parse_program("for i = 1 to 8 { P1: T[i] = A[i] }")
        b = parse_program("for i = 1 to 8 { C1: B[i] = T[i] }")
        ok, _ = can_fuse(a, b)
        assert ok


#: name -> (first nest, second nest, elements the fused body changes).
#: Each of these fusions is legal exactly when it changes none.
VERDICTS = {
    "family-with-members-both-ways": (
        "for i = 1 to 4 { for j = 1 to 4 { S1: T[i + j] = A[i][j] } }",
        "for i = 1 to 4 { for j = 1 to 4 { S2: B[i][j] = T[i + j] } }",
        9,
    ),
    "anti-dependence": (
        "for i = 1 to 8 { S1: B[i] = A[i - 1] }",
        "for i = 1 to 8 { S2: A[i] = C[i] }",
        7,
    ),
    "distance-outside-the-box": (
        "for i = 1 to 6 { S1: T[i] = A[i] }",
        "for i = 1 to 6 { S2: B[i] = T[i + 9] }",
        0,
    ),
    "non-uniform": (
        "for i = 1 to 6 { S1: T[2*i] = A[i] }",
        "for i = 1 to 6 { S2: B[i] = T[i] }",
        0,
    ),
}


class TestExactVerdict:
    @pytest.mark.parametrize(
        "first,second,changed", VERDICTS.values(), ids=list(VERDICTS)
    )
    def test_verdict_equals_enumeration(self, first, second, changed):
        a, b = parse_program(first, name="a"), parse_program(second, name="b")
        ok, reason = can_fuse(a, b)
        assert ok == fusion_truth(a, b) == (changed == 0), reason
        merged = Program(a.nest, a.statements + b.statements)
        state = initial_state(merged)
        sequence = execute(b, state=execute(a, state=state))
        interleaved = execute(merged, state=state)
        assert len(differing_elements(interleaved, sequence)) == changed
        if ok:
            assert states_equal(execute(fuse(a, b), state=state), sequence)
        else:
            assert "fusion-preventing" in reason

    def test_inconsistent_ranks_are_refused(self):
        a = parse_program("for i = 1 to 6 { S1: B[i] = A[i] }")
        b = parse_program("for i = 1 to 6 { S2: C[i] = A[i][i] }")
        ok, reason = can_fuse(a, b)
        assert not ok and "inconsistent ranks" in reason
        with pytest.raises(FusionError, match="inconsistent ranks"):
            fuse(a, b)


class TestFuse:
    def test_fused_structure(self):
        fused = fuse(producer(), consumer())
        assert len(fused.statements) == 2
        assert fused.nest == producer().nest
        assert fused.name == "produce+consume"

    def test_fuse_rejects_illegal(self):
        a = parse_program("for i = 1 to 8 { P1: T[i] = A[i] }")
        b = parse_program("for i = 1 to 8 { C1: B[i] = T[i+1] }")
        with pytest.raises(FusionError):
            fuse(a, b)

    def test_fusion_preserves_semantics(self):
        # The fused program computes the same final arrays as the chain.
        a, b = producer(), consumer()
        fused = fuse(a, b)
        state = initial_state(fused)
        chained = execute(b, state=execute(a, state=state))
        as_fused = execute(fused, state=state)
        assert states_equal(chained, as_fused)

    def test_fusion_shrinks_intermediate_window(self):
        report = fusion_memory_report(producer(), consumer())
        # Unfused: the whole 16x16 T crosses the boundary (256 elements).
        assert report.unfused_requirement >= 256
        # Fused: only a row of T stays live.
        assert report.fused_requirement <= 2 * 16 + 8
        assert report.saving > 0.8

    def test_fused_window_matches_direct_measure(self):
        fused = fuse(producer(), consumer())
        report = fusion_memory_report(producer(), consumer())
        assert report.fused_requirement == max_total_window(fused)

    def test_sequence_report_consistency(self):
        seq = ProgramSequence([producer(), consumer()])
        seq_report = sequence_memory_report(seq)
        fusion_report = fusion_memory_report(producer(), consumer())
        assert fusion_report.unfused_requirement == seq_report.requirement


class TestMergedDeclarations:
    """An array both nests use is declared over the bounding box of the
    two nests' declarations."""

    def test_dsp_chain_intermediate_allocates(self):
        """With only the smoothing nest's declaration, T[1:32][1:32],
        allocation raised IndexError on the gradient's T[i][j - 1] at
        j = 1."""
        import runpy
        from pathlib import Path

        from repro.transform.window_allocation import allocate_window

        example = runpy.run_path(
            str(Path(__file__).resolve().parents[1] / "examples" / "dsp_chain.py")
        )
        fused = fuse(
            parse_program(example["PRODUCE"], name="smooth"),
            parse_program(example["CONSUME"], name="gradient"),
        )
        decl = fused.decl("T")
        assert (decl.origins, decl.extents) == ((1, 0), (32, 33))
        allocation = allocate_window(fused, "T")
        assert allocation.mws == 1

    def test_disjoint_ranges_are_covered(self):
        a = parse_program("for i = 1 to 6 { T[i] = A[i] }", name="a")
        b = parse_program("for i = 1 to 6 { S2: B[i] = T[i + 9] }", name="b")
        decl = fuse(a, b).decl("T")
        assert (decl.origins, decl.extents) == ((1,), (15,))
