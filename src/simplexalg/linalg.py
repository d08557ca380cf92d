"""Exact dense linear algebra over the rationals.

One Gaussian elimination with exact rational pivots, ``SpanBasis``, serves
the generator rank, solve and inverse: nothing rounds, so there is no
tolerance parameter anywhere.  Matrices are small (desk scale), so plain
division-based elimination is the right tool; results are exact because the
scalars are.  The suites only add and compare matrices; products, differences
and scalings live with the oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatch, SingularSystem
from .scalar import as_rat, rat_str


class ExactMatrix:
    """A rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        data = [[as_rat(v) for v in row] for row in entries]
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, rows: int, cols: int, entries: list) -> "ExactMatrix":
        """Trusted constructor: ``entries`` is a rows x cols list of lists of
        ``Rat`` (internal use)."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls([])
        rows = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    # -- basics -----------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix._raw(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def _check_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- elimination ------------------------------------------------------

    def solve(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Exact solution X of self @ X = rhs.

        The rows [self | rhs] go into one ``SpanBasis``; a reduced row whose
        pivot lies in rhs reads 0 = nonzero.  Raises SingularSystem when the
        system is inconsistent or the solution is not unique (free columns);
        the exception carries the rank.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"rhs has {rhs.rows} rows, expected {self.rows}")
        span = SpanBasis(self.cols + rhs.cols)
        for row, extra in zip(self.entries, rhs.entries):
            span.add(row + extra)
        solution = {p: row[self.cols :] for row, p in zip(span.rows, span.pivots) if p < self.cols}
        rank = len(solution)
        if rank < span.dim:
            raise SingularSystem("inconsistent system", rank, self.rows, self.cols)
        if rank < self.cols:
            raise SingularSystem("underdetermined system", rank, self.rows, self.cols)
        return ExactMatrix._raw(self.cols, rhs.cols, [solution[c] for c in range(self.cols)])

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        return self.solve(ExactMatrix.identity(self.rows))

    def to_json(self) -> list:
        return [[rat_str(v) for v in row] for row in self.entries]

    def __repr__(self) -> str:
        return "[" + "; ".join(" ".join(rat_str(v) for v in row) for row in self.entries) + "]"


class SpanBasis:
    """Incrementally maintained row space in reduced echelon form.

    Used for exact rank growth: ``add`` returns True iff the vector enlarged
    the span.
    """

    def __init__(self, length: int):
        self.length = length
        self.rows: list = []
        self.pivots: list = []  # pivot column of each stored row

    def _reduce(self, vector: list) -> list:
        v = [as_rat(x) for x in vector]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                factor = v[p]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def add(self, vector) -> bool:
        v = self._reduce(list(vector))
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = 1 / v[pivot]
        v = [x * inv for x in v]
        for i, (row, p) in enumerate(zip(self.rows, self.pivots)):
            if row[pivot] != 0:
                factor = row[pivot]
                self.rows[i] = [a - factor * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(pivot)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)
