"""Figure 1 / Examples 1(a), 1(b): the reuse area of a dependence.

The paper's Figure 1 shades the region of a 10x10 iteration space whose
points are sinks of the dependence (3, 2): area (10-3)(10-2) = 56.  Both
Example 1(a) (2-D array, dependence between two references) and Example
1(b) (1-D array, self reuse along the kernel) share that count.
"""

BENCH_NAME = "figure1_reuse_area"

from conftest import record

from repro.dependence import array_distance_vectors, self_reuse_distance
from repro.estimation import reuse_from_distances
from repro.ir import parse_program

EXAMPLE_1A = """
for i = 1 to 10 {
  for j = 1 to 10 {
    A[i][j] = A[i-3][j+2]
  }
}
"""

EXAMPLE_1B = """
for i = 1 to 10 {
  for j = 1 to 10 {
    A[2*i + 3*j]
  }
}
"""


def test_example_1a_reuse_area(benchmark):
    program = parse_program(EXAMPLE_1A)

    def run():
        distances = array_distance_vectors(program, "A")
        return reuse_from_distances(program.nest.trip_counts, distances[:1]), distances

    reuse, distances = benchmark(run)
    assert (3, -2) in distances
    assert reuse == 56  # the paper's shaded area
    record(benchmark, paper_reuse=56, measured_reuse=reuse)


def test_example_1b_reuse_area(benchmark):
    program = parse_program(EXAMPLE_1B)
    ref = program.refs_to("A")[0]

    def run():
        vector = self_reuse_distance(ref, program.nest.spans)
        return vector, reuse_from_distances(program.nest.trip_counts, [vector])

    vector, reuse = benchmark(run)
    assert vector == (3, -2)  # kernel of [2, 3], lex-positive
    assert reuse == 56
    record(benchmark, paper_reuse=56, measured_reuse=reuse)


def test_example_1_total_reuse_equal(benchmark):
    """The paper: 'the total reuse is the same in both examples' (= 56)."""
    p1a = parse_program(EXAMPLE_1A)
    p1b = parse_program(EXAMPLE_1B)

    def run():
        from repro.estimation import exact_distinct_accesses

        a = 2 * p1a.nest.total_iterations - exact_distinct_accesses(p1a, "A")
        b = p1b.nest.total_iterations - exact_distinct_accesses(p1b, "A")
        return a, b

    reuse_a, reuse_b = benchmark(run)
    assert reuse_a == reuse_b == 56
    record(benchmark, reuse_1a=reuse_a, reuse_1b=reuse_b)
