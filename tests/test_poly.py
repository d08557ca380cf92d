import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deriv_multi, poly_value
from simplexalg.errors import DimensionMismatch
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat


def x(i, dim=2):
    return MultiPoly.variable(dim, i)


def test_additive_inverse_gives_zero():
    assert (x(0) + (-x(0))).is_zero()


def test_difference_of_squares():
    left = (x(0) + x(1)) * (x(0) - x(1))
    right = x(0) * x(0) - x(1) * x(1)
    assert left == right


def test_scale():
    p = x(0) * x(1)
    assert p.scale(Rat(3, 2)) == MultiPoly(2, {(1, 1): Rat(3, 2)})
    assert p.scale(0).is_zero()


def test_canonical_form_drops_zero_terms():
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = x(0) + x(1) - x(1)
    assert set(q.terms) == {(1, 0)}


def test_degree_of_product_adds():
    p = x(0) ** 3 + 1
    q = x(1) ** 2 + x(0)
    assert (p * q).total_degree() == 5
    assert MultiPoly.zero(2).total_degree() == -1


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        x(0, 2) + MultiPoly.variable(3, 0)


def test_grlex_leading_term():
    p = x(0) ** 2 + x(0) * x(1) + x(1) ** 2 + x(0)
    assert repr(p) == "x1^2 + x1*x2 + x2^2 + x1"


def test_deriv_and_apply_chain():
    p = x(0) ** 2 * x(1)
    assert p.deriv(0) == (x(0) * x(1)).scale(2)
    assert p.deriv(0, 2) == x(1).scale(2)
    assert deriv_multi(p, (2, 1)) == MultiPoly.const(2, 2)
    assert p.deriv(1, 2).is_zero()


def test_evaluate():
    p = x(0) ** 2 + x(1).scale(Rat(1, 3))
    assert poly_value(p, [Rat(1, 2), 3]) == Rat(1, 4) + 1


def test_substitutions_agree():
    p = (x(0) + x(1)) ** 3 + x(0) ** 2
    replacement = x(0).scale(-2) + MultiPoly.const(2, Rat(1, 3))
    assert p.subs_var(0, replacement) == p.subs_affine(0, -2, Rat(1, 3))
    value = Rat(5, 7)
    direct = p.subs_value(0, value)
    via_var = p.subs_var(0, MultiPoly.const(2, value))
    assert direct == via_var


def test_pow():
    p = x(0) + 1
    assert p ** 0 == MultiPoly.const(2, 1)
    assert p ** 3 == p * p * p


small_rat = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, small_rat, max_size=5).map(
    lambda terms: MultiPoly(2, terms)
)


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(polys, polys)
def test_derivation_leibniz(a, b):
    assert (a * b).deriv(0) == a.deriv(0) * b + a * b.deriv(0)
