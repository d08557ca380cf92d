import random

import pytest

from oracles import RingMatrix
from simplexalg.errors import DimensionMismatch, SingularSystem
from simplexalg.linalg import ExactMatrix, SpanBasis
from simplexalg.scalar import Rat


def column(values) -> ExactMatrix:
    return ExactMatrix([[v] for v in values])


def test_identity_solve():
    eye = ExactMatrix.identity(3)
    b = column([Rat(1, 2), 3, Rat(-7, 5)])
    assert eye.solve(b) == b


def test_diagonal_solve():
    a = ExactMatrix([[2, 0], [0, 3]])
    assert a.solve(column([1, 1])) == column([Rat(1, 2), Rat(1, 3)])


def test_homogeneous_nonsingular():
    a = ExactMatrix([[1, 1], [1, -1]])
    assert a.solve(column([0, 0])) == column([0, 0])


def test_singular_reports_rank():
    a = ExactMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularSystem) as err:
        a.solve(column([1, 0]))
    assert err.value.rank == 1


def test_singular_messages_and_overdetermined_solve():
    a = ExactMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularSystem, match="underdetermined system") as err:
        a.solve(column([1, 2]))
    assert err.value.rank == 1
    with pytest.raises(SingularSystem, match="inconsistent system"):
        a.solve(column([1, 0]))
    # three consistent equations in two unknowns, one of them redundant
    tall = ExactMatrix([[1, 1], [1, -1], [2, 0]])
    assert tall.solve(ExactMatrix([[3, 0], [1, 2], [4, 2]])) == ExactMatrix([[2, 1], [1, -1]])


@pytest.mark.parametrize("size", [1, 4, 13, 50])
def test_solve_round_trip(size):
    rng = random.Random(1000 + size)
    while True:
        a = RingMatrix(
            [
                [Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
                for _ in range(size)
            ]
        )
        if a.rank() == size:
            break
    v = [Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
    assert a.solve(column(a.matvec(v))) == column(v)


def test_rank_and_nullspace():
    a = RingMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert a.rank() == 2
    # rank 2 of 3 columns: the kernel is the line through (1, -2, 1)
    assert a.matvec([1, -2, 1]) == [0, 0, 0]
    assert RingMatrix.zeros(2, 3).rank() == 0


def test_inverse():
    a = RingMatrix([[1, 2], [3, Rat(1, 5)]])
    assert a @ a.inverse() == ExactMatrix.identity(2)


def test_matrix_algebra():
    a = RingMatrix([[1, 2], [3, 4]])
    b = RingMatrix([[0, 1], [1, 0]])
    assert a + b - b == a
    assert (a @ b) @ a == a @ (b @ a)
    assert a.scale(2) == a + a
    assert (a - a).is_zero() and not a.is_zero()


def test_product_by_entries():
    # the product skips zero entries; pin its values, its order and a
    # rectangular shape against the textbook row-times-column sums
    a = RingMatrix([[1, 0, Rat(2, 3)], [0, 0, 0]])
    b = RingMatrix([[0, 5], [7, 0], [Rat(-3, 2), 1]])
    assert a @ b == ExactMatrix([[-1, Rat(17, 3)], [0, 0]])
    assert b @ a == ExactMatrix([[0, 0, 0], [7, 0, Rat(14, 3)], [Rat(-3, 2), 0, -1]])
    with pytest.raises(DimensionMismatch):
        a @ a


def test_span_basis_growth():
    span = SpanBasis(3)
    assert span.add([1, 0, 0])
    assert span.add([1, 1, 0])
    assert not span.add([3, 5, 0])
    assert span.add([0, 0, Rat(2, 7)])
    assert span.dim == 3
