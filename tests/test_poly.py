import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, deriv_multi, poly_value
from simplexalg.errors import DimensionMismatch, PackingOverflow
from simplexalg.poly import FIELD_MAX, MultiPoly
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


# -- the integer form against the Fraction oracle ----------------------------


def _random_terms(rng: random.Random, d: int) -> dict:
    """Up to six terms of degree <= 3 per variable; some coefficients are 0."""
    return {
        tuple(rng.randint(0, 3) for _ in range(d)): Rat(rng.randint(-9, 9), rng.randint(1, 12))
        for _ in range(rng.randint(0, 6))
    }


def _same(poly: MultiPoly, oracle: FractionPoly) -> bool:
    """Equal coefficients, and the canonical form of the oracle's terms."""
    return dict(poly.terms) == oracle.terms and poly == MultiPoly(poly.dim, oracle.terms)


@pytest.mark.parametrize("d", range(6))
def test_integer_form_agrees_with_the_fraction_oracle(d):
    rng = random.Random(f"poly-{d}")
    for _ in range(12):
        terms_a, terms_b = _random_terms(rng, d), _random_terms(rng, d)
        a, b = MultiPoly(d, terms_a), MultiPoly(d, terms_b)
        fa, fb = FractionPoly(d, terms_a), FractionPoly(d, terms_b)
        assert _same(a, fa) and _same(b, fb)
        assert _same(a + b, fa + fb) and _same(a - b, fa - fb) and _same(a * b, fa * fb)
        value = Rat(rng.randint(-5, 5), rng.randint(1, 6))
        assert _same(a + value, fa + value) and _same(value - a, value - fa)
        assert _same(a.scale(value), fa.scale(value)) and _same(a * value, fa * value)
        power = rng.randint(0, 3)
        assert _same(a ** power, fa ** power)
        assert a.total_degree() == fa.total_degree()
        assert (a == b) == (fa == fb) and a == (a + b) - b
        assert hash(a) == hash((a + b) - b) == hash(MultiPoly(d, dict(fa.terms)))
        for index in range(d):
            for order in range(3):
                assert _same(a.deriv(index, order), fa.deriv(index, order))
            replacement = _random_terms(rng, d)
            assert _same(
                a.subs_var(index, MultiPoly(d, replacement)),
                fa.subs_var(index, FractionPoly(d, replacement)),
            )
            p, q = (Rat(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(2))
            assert _same(a.subs_affine(index, p, q), fa.subs_affine(index, p, q))
            assert _same(a.subs_value(index, q), fa.subs_value(index, q))


# Every way to make an exponent above FIELD_MAX, and a product whose tops
# pass it while its entries do not; run as a script, so that it runs under
# python -O too.
POLY_OVERFLOW_PROBE = """
from simplexalg.errors import PackingOverflow
from simplexalg.poly import MultiPoly

x, y = MultiPoly.monomial(2, (200, 0)), MultiPoly.monomial(2, (0, 200))
cases = {
    "exponent 256": lambda: MultiPoly.monomial(2, (256, 0)),
    "product 200 + 56": lambda: x * MultiPoly.monomial(2, (56, 1)),
    "power 128 * 2": lambda: MultiPoly.monomial(1, (128,)) ** 2,
    "x^200 y^200": lambda: x * y,
    "subs t^5 -> t^51 + 1": lambda: MultiPoly.monomial(1, (5,)).subs_var(
        0, MultiPoly.monomial(1, (51,)) + 1
    ),
}
for name, build in cases.items():
    try:
        build()
    except PackingOverflow:
        print(name, "raises")
    else:
        print(name, "returns")
"""
POLY_OVERFLOW_OUTCOMES = [
    "exponent 256 raises",
    "product 200 + 56 raises",
    "power 128 * 2 raises",
    "x^200 y^200 returns",
    "subs t^5 -> t^51 + 1 returns",
]


def test_an_exponent_above_the_field_raises(capsys):
    exec(POLY_OVERFLOW_PROBE, {})
    assert capsys.readouterr().out.splitlines() == POLY_OVERFLOW_OUTCOMES
    edge = MultiPoly.monomial(2, (FIELD_MAX, 0)) * MultiPoly.monomial(2, (0, FIELD_MAX))
    assert dict(edge.terms) == {(FIELD_MAX, FIELD_MAX): 1}
    with pytest.raises(PackingOverflow):
        edge * MultiPoly.variable(2, 1)
    # 5·51 = 255 fits; the substitution forms no sixth power of t^51 + 1
    t = MultiPoly.variable(1, 0)
    assert MultiPoly.monomial(1, (5,)).subs_var(0, t**51 + 1) == (t**51 + 1) ** 5


def test_an_exponent_above_the_field_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", POLY_OVERFLOW_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == POLY_OVERFLOW_OUTCOMES
