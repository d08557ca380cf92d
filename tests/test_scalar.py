from fractions import Fraction

import pytest

from simplexalg.scalar import Rat, as_rat, is_int_leq, pochhammer, rat_str


def test_as_rat_accepts_exact_forms():
    assert as_rat(3) == 3
    assert as_rat("7/2") == Rat(7, 2)
    assert as_rat("-3") == -3
    assert as_rat(Fraction(2, 4)) == Rat(1, 2)
    assert as_rat(Rat(5, 3)) == Rat(5, 3)


def test_as_rat_rejects_floats_and_decimals():
    with pytest.raises(TypeError):
        as_rat(0.5)
    with pytest.raises(ValueError):
        as_rat("0.5")
    with pytest.raises(ValueError):
        as_rat("1e-3")


def test_as_rat_names_a_zero_denominator():
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        as_rat("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        as_rat(" -3/00 ")


def test_rat_str_lowest_terms():
    assert rat_str(as_rat("4/8")) == "1/2"
    assert rat_str(as_rat("-6/3")) == "-2"
    assert rat_str(as_rat(5)) == "5"


def test_pochhammer():
    assert pochhammer(Rat(1, 2), 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Rat(-3, 2), 2) == Rat(-3, 2) * Rat(-1, 2)
    assert pochhammer(-2, 4) == 0  # hits zero at a + 2
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_integer_predicates():
    assert is_int_leq(-1, -1)
    assert is_int_leq(-5, -1)
    assert not is_int_leq(0, -1)
    assert not is_int_leq(Rat(-3, 2), -1)
