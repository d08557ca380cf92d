"""Expansion in the Jacobi basis by the integer inverse that ``ModuleContext``
builds one monomial at a time, against the dense-inverse and
forward-substitution oracles and the unit-vector property; the family
itself against the Fraction oracle."""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    coefficient,
    dense_expand_oracle,
    forward_substitution_oracle,
    jacobi_simplex_oracle,
    sample_valid_gammas,
)
from simplexalg import verify
from simplexalg.diffops import l_operator
from simplexalg.errors import InvariantViolation
from simplexalg.jacobi import graded_indices, jacobi_simplex, lex_lead
from simplexalg.params import ParamVector, check_gamma
from simplexalg.poly import MultiPoly, _pack
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext, verify_difference_action

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
    rng = random.Random(f"expand-{label}")
    images = [op.apply(ctx.polys[mu]) for mu in ctx.graded for op in generators]
    for poly in images + [_random_poly(rng, d, n) for _ in range(8)]:
        expected = dense_expand_oracle(ctx, poly)
        assert ctx.expand(poly) == expected
        assert forward_substitution_oracle(ctx, poly) == expected


@pytest.mark.parametrize("label", sorted(CELLS))
def test_jacobi_family_equals_the_fraction_oracle(label):
    d, n, gamma = CELLS[label]
    for nu in graded_indices(n, d):
        assert dict(jacobi_simplex(nu, gamma).terms) == jacobi_simplex_oracle(nu, gamma).terms, nu


def test_lex_lead_rejects_a_polynomial_without_the_triangular_lead():
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert lex_lead((0, 1), x1 + x2.scale(2)) == 2
    with pytest.raises(InvariantViolation, match="lex order"):
        lex_lead((1, 0), x1 + x2)  # x2 is lex-smaller than x1
    with pytest.raises(InvariantViolation, match="lex order"):
        lex_lead((1, 1), x1 + x2)  # wrong degree


def test_context_build_raises_when_a_member_misses_its_unit_vector(monkeypatch):
    # a wrong lead while the inverse is built leaves half of P_(1,1) behind
    lead = verify.lex_lead

    def doubled(nu, poly):
        return lead(nu, poly) * (2 if nu == (1, 1) else 1)

    monkeypatch.setattr(verify, "lex_lead", doubled)
    with pytest.raises(InvariantViolation, match=r"P_\(1, 1\) does not expand to its unit vector"):
        ModuleContext(2, 2, ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 5)]))


def test_a_wrong_inverse_entry_makes_racah_fail():
    gamma = sample_valid_gammas(27, 3, 1, positive=True)[0]
    assert verify_difference_action(ModuleContext(3, 2, gamma)).status == "pass"
    ctx = ModuleContext(3, 2, gamma)
    alpha = ctx.level[0]  # x^(2,0,0): its own row is a row of the level
    row = ctx.graded.index(alpha)
    column = ctx._inverse[_pack(alpha)]
    column[:] = [(i, v + 1 if i == row else v) for i, v in column]
    result = verify_difference_action(ctx)
    assert result.status == "fail", result


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
