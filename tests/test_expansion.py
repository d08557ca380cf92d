"""Expansion in the Jacobi basis by lex-triangular substitution, against the
dense-inverse oracle and the unit-vector property."""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import coefficient, dense_expand_oracle
from simplexalg.diffops import l_operator
from simplexalg.errors import InvariantViolation
from simplexalg.jacobi import graded_indices, lex_lead
from simplexalg.params import ParamVector, check_gamma
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext

RECIPROCAL_PRIMES = (2, 3, 5, 7, 11, 13)

CELLS = {
    "G0_2": (2, 1, (0, 0, 0)),
    "zero-d2": (2, 3, (0, 0, 0)),
    "zero-d3": (3, 2, (0, 0, 0, 0)),
    "primes-d2": (2, 3, tuple(Rat(1, p) for p in RECIPROCAL_PRIMES[:3])),
    "primes-d3": (3, 3, tuple(Rat(1, p) for p in RECIPROCAL_PRIMES[:4])),
    "primes-d4": (4, 3, tuple(Rat(1, p) for p in RECIPROCAL_PRIMES[:5])),
    "primes-d5": (5, 2, tuple(Rat(1, p) for p in RECIPROCAL_PRIMES[:6])),
    "wrong-fail": (3, 2, (Rat(5, 3), Rat(1, 2), Rat(-5, 4), Rat(-5, 4))),
    "escape": (2, 2, (Rat(-1, 2), Rat(-5, 2), Rat(5, 2))),
}


def _random_poly(rng: random.Random, d: int, n: int) -> MultiPoly:
    monomials = graded_indices(n, d)
    chosen = rng.sample(monomials, rng.randint(1, len(monomials)))
    return MultiPoly(d, {m: Rat(rng.randint(-9, 9), rng.randint(1, 9)) for m in chosen})


@pytest.mark.parametrize("label", sorted(CELLS))
def test_triangular_expansion_equals_dense_inverse(label):
    d, n, gamma = CELLS[label]
    ctx = ModuleContext(d, n, ParamVector(gamma))
    generators = [l_operator(i, j, d, ctx.gamma) for i, j in combinations(range(1, d + 2), 2)]
    for mu in ctx.graded:
        for op in generators:
            image = op.apply(ctx.polys[mu])
            assert ctx.expand(image) == dense_expand_oracle(ctx, image), (mu, op)
    rng = random.Random(f"expand-{label}")
    for _ in range(8):
        poly = _random_poly(rng, d, n)
        assert ctx.expand(poly) == dense_expand_oracle(ctx, poly)


def test_lex_lead_rejects_a_polynomial_without_the_triangular_lead():
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert lex_lead((0, 1), x1 + x2.scale(2)) == 2
    with pytest.raises(InvariantViolation, match="lex order"):
        lex_lead((1, 0), x1 + x2)  # x2 is lex-smaller than x1
    with pytest.raises(InvariantViolation, match="lex order"):
        lex_lead((1, 1), x1 + x2)  # wrong degree


def test_expand_raises_on_a_nonzero_remainder():
    ctx = ModuleContext(2, 2, ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 5)]))
    ctx._leads[(1, 1)] *= 2  # a wrong lead leaves half of P_(1,1) behind
    with pytest.raises(InvariantViolation, match="remainder"):
        ctx.expand(ctx.polys[(1, 1)])


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    n=st.integers(0, 3),
    fractions=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=5, max_size=5
    ),
)
def test_every_family_member_is_lex_triangular_and_expands_to_a_unit_vector(d, n, fractions):
    # gammas drawn like the CLI's sample_gamma
    gamma = [Rat(num, den) for num, den in fractions[: d + 1]]
    assume(not check_gamma(gamma, d))
    ctx = ModuleContext(d, n, gamma)
    for position, nu in enumerate(ctx.graded):
        assert lex_lead(nu, ctx.polys[nu]) == coefficient(ctx.polys[nu], nu)
        unit = [Rat(int(i == position)) for i in range(len(ctx.graded))]
        assert ctx.expand(ctx.polys[nu]) == unit
