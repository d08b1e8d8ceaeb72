"""Example 10 / Section 4.3: three-level nests and the embedding trick.

Paper: reuse vector (1, 3, -3) for A[3i+k][j+k] on a 10x20x30 nest; the
worked arithmetic gives MWS 540 (the printed formula carries a "+1",
giving 541 — the exact simulator arbitrates: 540); embedding the access
matrix as the leading rows of T reduces the MWS to 1.
"""

BENCH_NAME = "example10_3d"

from conftest import record

from repro.dependence import self_reuse_distance
from repro.ir import parse_program
from repro.linalg import IntMatrix
from repro.transform import search_mws_3d
from repro.window import max_window_size, mws_3d_for_ref

EXAMPLE_10 = """
for i = 1 to 10 {
  for j = 1 to 20 {
    for k = 1 to 30 {
      A[3*i + k][j + k]
    }
  }
}
"""


def test_example10_reuse_vector(benchmark):
    program = parse_program(EXAMPLE_10)
    vector = benchmark(
        self_reuse_distance, program.refs_to("A")[0], program.nest.spans
    )
    assert vector == (1, 3, -3)  # paper prints (1, 3, 3) unsigned
    record(benchmark, reuse_vector=str(vector))


def test_example10_mws_formula(benchmark):
    program = parse_program(EXAMPLE_10)
    ref = program.refs_to("A")[0]
    estimate = benchmark(mws_3d_for_ref, ref, program.nest)
    assert estimate == 541  # formula as printed (with its +1)
    record(benchmark, paper_arithmetic=540, formula_with_plus1=estimate)


def test_example10_mws_exact(benchmark):
    program = parse_program(EXAMPLE_10)
    mws = benchmark(max_window_size, program, "A")
    assert mws == 540  # matches the paper's worked arithmetic
    record(benchmark, paper=540, measured=mws)


def test_example10_embedding_transformation(benchmark):
    """T with the access matrix as its leading rows drives MWS to 1."""
    program = parse_program(EXAMPLE_10)
    t = IntMatrix([[3, 0, 1], [0, 1, 1], [1, 0, 0]])
    mws = benchmark(max_window_size, program, "A", t)
    assert mws == 1  # paper: "the maximum window size reduces to one"
    record(benchmark, paper=1, measured=mws)


def test_example10_search_finds_embedding(benchmark):
    program = parse_program(EXAMPLE_10)
    result = benchmark(search_mws_3d, program, "A")
    assert result.exact_mws == 1
    assert result.transformation.row(0) == (3, 0, 1)
    assert result.transformation.row(1) == (0, 1, 1)
    record(benchmark, mws=result.exact_mws, T=str(result.transformation.rows))


def test_example10_reuse_level_pushed_inward(benchmark):
    """Paper: the reuse vector's level goes from 1 to 3 under T."""
    from repro.dependence import reuse_level

    program = parse_program(EXAMPLE_10)
    t = IntMatrix([[3, 0, 1], [0, 1, 1], [1, 0, 0]])
    vector = self_reuse_distance(program.refs_to("A")[0], program.nest.spans)

    def run():
        return reuse_level(vector), reuse_level(t.apply(vector))

    before, after = benchmark(run)
    assert before == 1 and after == 3
    record(benchmark, level_before=before, level_after=after)
