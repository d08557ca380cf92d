import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexalg.diffops import l_operator
from simplexalg.errors import DimensionMismatch, InvalidParameter
from simplexalg.moments import inner_product, simplex_moment
from simplexalg.params import ParamVector, check_gamma, check_jacobi_params, require_valid
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat


def test_param_vector_accessors():
    g = ParamVector(["1/2", "1/3", "1/4", "1/5"])
    assert g.d == 3
    assert g[1] == Rat(1, 2)
    assert g.tail_sum(3) == Rat(1, 4) + Rat(1, 5)
    assert g.tail_sum(5) == 0
    assert g.tail_sum(1) == sum(g.gamma)


def test_param_valid_two_variable_conditions():
    assert check_gamma([Rat(1, 2), Rat(1, 2), Rat(1, 2)]) == []
    bad = check_gamma([-1, Rat(1, 2), Rat(1, 2)])
    assert bad and "gamma_1" in bad[0]
    # gamma_2 + gamma_3 = -2 is an excluded integer
    assert check_gamma([Rat(1, 2), Rat(-3, 2), Rat(-1, 2)])
    # the total may not be an integer <= -3
    assert check_gamma([-1 - 1, Rat(1, 2), Rat(-3, 2)])


def test_param_valid_three_variable_conditions():
    assert check_gamma([0, 0, 0, 0]) == []
    assert check_gamma([0, 0, -2, 0])
    assert check_gamma([0, 0, Rat(-1, 2), Rat(-3, 2)])  # g3+g4 = -2
    assert check_gamma([0, Rat(1, 2), Rat(-3, 2), -2 + Rat(-1, 1) + Rat(-1, 2)])


def test_require_valid_raises_with_all_violations():
    with pytest.raises(InvalidParameter) as err:
        require_valid([-1, -2, 0])
    message = str(err.value)
    assert "gamma_1" in message and "gamma_2" in message


def test_require_valid_checks_each_d_and_repeats_its_message():
    # validity is cached per (gamma, d); a repeated call must still raise the
    # same message, and a vector valid for its own d is still refused for another
    bad = ParamVector([-1, -2, 0])
    messages = set()
    for _ in range(2):
        with pytest.raises(InvalidParameter) as err:
            require_valid(bad)
        messages.add(str(err.value))
    assert len(messages) == 1
    good = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 5)])
    assert require_valid(good, 2) is good
    with pytest.raises(InvalidParameter, match="expected 4 parameters, got 3"):
        require_valid(good, 3)
    with pytest.raises(InvalidParameter, match="expected 4 parameters, got 3"):
        l_operator(1, 2, 3, good)


def test_jacobi_param_conditions():
    assert check_jacobi_params(Rat(1, 2), Rat(1, 2)) == []
    assert check_jacobi_params(-1, 0)
    assert check_jacobi_params(0, -3)
    assert check_jacobi_params(Rat(-1, 2), Rat(-3, 2))  # sum = -2


def test_moment_normalization_and_examples():
    g = ParamVector([0, 0, 0])
    assert simplex_moment((0, 0, 0), g) == 1
    assert simplex_moment((1, 0, 0), g) == Rat(1, 3)
    assert simplex_moment((1, 1, 0), g) == Rat(1, 12)


def test_moment_rejects_bad_input():
    g = ParamVector([0, 0, 0])
    with pytest.raises(ValueError):
        simplex_moment((-1, 0, 0), g)
    with pytest.raises(DimensionMismatch):
        simplex_moment((1, 0), g)
    with pytest.raises(InvalidParameter):
        simplex_moment((0, 0, 0), [-1, 0, 0])


def test_moment_memo_keys_on_gamma_and_d():
    m = (1, 0, 0)
    for _ in range(2):
        assert simplex_moment(m, ParamVector([0, 0, 0])) == Rat(1, 3)
        assert simplex_moment(m, ParamVector([1, 0, 0])) == Rat(1, 2)
        assert simplex_moment(m, [0, 1, 0]) == Rat(1, 4)
        assert simplex_moment(m + (0,), ParamVector([0, 0, 0, 0])) == Rat(1, 4)
        assert simplex_moment((1, 0), ParamVector([0, 0])) == Rat(1, 2)


def test_moment_validation_runs_on_every_call():
    g = ParamVector([0, 0, 0])
    for _ in range(2):
        assert simplex_moment((1, 0, 0), g) == Rat(1, 3)
        with pytest.raises(ValueError):
            simplex_moment((-1, 0, 0), g)
        with pytest.raises(DimensionMismatch):
            simplex_moment((1, 0), g)
        with pytest.raises(InvalidParameter):
            simplex_moment((0, 0, 0), [-1, 0, 0])


from oracles import oracle_moment


@pytest.mark.parametrize(
    "gamma_ints",
    [(0, 0, 0), (1, 0, 2), (2, 1, 0), (0, 0, 0, 0), (1, 2, 0, 1)],
)
def test_moment_matches_literal_integration(gamma_ints):
    d = len(gamma_ints) - 1
    gamma = ParamVector(gamma_ints)
    indices = []
    for total in range(0, 7, 2):
        for first in range(0, total + 1, 2):
            m = [0] * (d + 1)
            m[0] = first
            m[1] = (total - first) // 2
            m[-1] = total - first - m[1]
            indices.append(tuple(m))
    indices += [(1, 0) + (0,) * (d - 1), (1, 1) + (0,) * (d - 1), (2, 1, 1) + (0,) * (d - 2)]
    for m in indices:
        if sum(m) > 6:
            continue
        assert simplex_moment(m, gamma) == oracle_moment(m, gamma_ints), m


def test_inner_product_examples():
    g = ParamVector([0, 0, 0])
    one = MultiPoly.const(2, 1)
    assert inner_product(one, one, g) == 1
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    assert inner_product(x1, x2, g) == Rat(1, 12)
    # orthogonality of the first-degree family, by explicit expansion
    p10 = x1.scale(3) - one
    p01 = x1 + x2.scale(2) - one
    assert inner_product(p10, p01, g) == 0


small_rat = st.fractions(min_value=-2, max_value=2, max_denominator=3)
polys2 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rat, max_size=4
).map(lambda t: MultiPoly(2, t))


@settings(max_examples=25, deadline=None)
@given(polys2, polys2, polys2, small_rat)
def test_inner_product_symmetric_bilinear(p, q, r, c):
    g = ParamVector([Rat(1, 2), Rat(1, 3), Rat(2, 5)])
    assert inner_product(p, q, g) == inner_product(q, p, g)
    left = inner_product(p.scale(c) + r, q, g)
    right = c * inner_product(p, q, g) + inner_product(r, q, g)
    assert left == right


def test_require_valid_checks_a_vector_once(monkeypatch):
    import simplexalg.params as params

    calls = []
    check = params.check_gamma
    monkeypatch.setattr(params, "check_gamma", lambda *args: calls.append(args) or check(*args))
    gamma = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 5)])
    for _ in range(3):
        assert require_valid(gamma) is gamma
        assert require_valid(gamma, 2) is gamma
    assert len(calls) == 1
