"""Dense exact integer matrices.

``IntMatrix`` is deliberately small and dependency-free: the matrices in
this problem domain are access matrices (``d x n`` with ``n <= 4``) and
transformation matrices (``n x n``), so asymptotic performance is
irrelevant while exactness and clarity are everything.  All arithmetic is
over Python ints; any float input is rejected.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence


class IntMatrix:
    """An immutable matrix of Python integers.

    Rows are stored as tuples of ints.  Supports the linear algebra the
    paper needs: products, determinants (Bareiss, fraction-free), exact
    inverses of unimodular matrices, and structural queries.

    >>> m = IntMatrix([[1, 2], [3, 4]])
    >>> m.det()
    -2
    >>> (m @ m.identity(2)) == m
    True
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        materialized = tuple(map(tuple, rows))
        for row in materialized:
            for v in row:
                if type(v) is not int:
                    self._check_int(v)
        if not materialized:
            raise ValueError("IntMatrix must have at least one row")
        width = len(materialized[0])
        if width == 0:
            raise ValueError("IntMatrix must have at least one column")
        if any(len(row) != width for row in materialized):
            raise ValueError("ragged rows in IntMatrix")
        self.rows: tuple[tuple[int, ...], ...] = materialized

    @staticmethod
    def _check_int(value: int) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"IntMatrix entries must be ints, got {value!r}")
        return value

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        """The ``n x n`` identity matrix."""
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "IntMatrix":
        """The ``n_rows x n_cols`` zero matrix."""
        return cls([[0] * n_cols for _ in range(n_rows)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        """Alias constructor for readability at call sites."""
        return cls(rows)

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        """A single-column matrix from a vector."""
        return cls([[v] for v in values])

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.rows[i][j]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = ", ".join(str(list(row)) for row in self.rows)
        return f"IntMatrix([{body}])"

    def pretty(self) -> str:
        """A multi-line right-aligned rendering for reports."""
        width = max(len(str(v)) for row in self.rows for v in row)
        lines = ["[ " + "  ".join(str(v).rjust(width) for v in row) + " ]" for row in self.rows]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-v for v in row] for row in self.rows])

    def scale(self, k: int) -> "IntMatrix":
        """Scalar multiple ``k * self``."""
        return IntMatrix([[k * v for v in row] for row in self.rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        other_cols = [other.col(j) for j in range(other.n_cols)]
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in other_cols]
                for row in self.rows
            ]
        )

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product ``self @ vector`` as a tuple.

        This is the workhorse for transforming iteration and dependence
        vectors.
        """
        if len(vector) != self.n_cols:
            raise ValueError(f"vector length {len(vector)} != n_cols {self.n_cols}")
        return tuple(sum(map(operator.mul, row, vector)) for row in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.col(j) for j in range(self.n_cols)])

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # ------------------------------------------------------------------
    # determinant / inverse / rank
    # ------------------------------------------------------------------
    def det(self) -> int:
        """Exact determinant via the Bareiss fraction-free algorithm."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.n_rows
        m = [list(row) for row in self.rows]
        sign = 1
        prev_pivot = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
                if pivot_row is None:
                    return 0
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev_pivot
                m[i][k] = 0
            prev_pivot = m[k][k]
        return sign * m[n - 1][n - 1]

    def rank(self) -> int:
        """Rank over the rationals (equals rank over Z for our purposes)."""
        m = [list(row) for row in self.rows]
        n_rows, n_cols = self.shape
        rank = 0
        row = 0
        for col in range(n_cols):
            pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            for r in range(n_rows):
                if r != row and m[r][col] != 0:
                    # Fraction-free elimination: scale then subtract.
                    a, b = m[row][col], m[r][col]
                    m[r] = [a * x - b * y for x, y in zip(m[r], m[row])]
            rank += 1
            row += 1
            if row == n_rows:
                break
        return rank

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse, valid only when ``abs(det) == 1``.

        Uses the adjugate: ``inv(A) = adj(A) / det(A)``, which stays
        integral exactly when the matrix is unimodular.
        """
        d = self.det()
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular (det={d})")
        return self.adjugate().scale(d)  # dividing by det == multiplying, since det is +-1

    def adjugate(self) -> "IntMatrix":
        """The transposed cofactor matrix: ``A @ adj(A) == det(A) * I``.

        >>> IntMatrix([[2, 1], [1, 3]]).adjugate()
        IntMatrix([[3, -1], [-1, 2]])
        """
        n = self.n_rows
        cof = [
            [((-1) ** (i + j)) * self._minor(i, j).det() if n > 1 else 1 for j in range(n)]
            for i in range(n)
        ]
        return IntMatrix(cof).transpose()

    def _minor(self, drop_row: int, drop_col: int) -> "IntMatrix":
        return IntMatrix(
            [
                [v for j, v in enumerate(row) if j != drop_col]
                for i, row in enumerate(self.rows)
                if i != drop_row
            ]
        )

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def is_identity(self) -> bool:
        return self.is_square() and self == IntMatrix.identity(self.n_rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def to_lists(self) -> list[list[int]]:
        """Mutable copy as nested lists (for interop with numpy/sympy)."""
        return [list(row) for row in self.rows]
