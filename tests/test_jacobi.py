from collections import Counter
from math import comb

import pytest

from oracles import (
    RingMatrix,
    coordinates,
    jacobi1d,
    jacobi_simplex_oracle,
    three_var_reference,
    two_var_reference,
)
from simplexalg import jacobi
from simplexalg.errors import InvalidParameter
from simplexalg.jacobi import (
    a_param,
    graded_indices,
    jacobi_simplex,
    level_indices,
    lex_lead,
)
from simplexalg.moments import inner_product
from simplexalg.params import ParamVector
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext

GAMMAS_2 = [
    ParamVector([0, 0, 0]),
    ParamVector([Rat(1, 2), Rat(1, 2), Rat(1, 2)]),
    ParamVector([Rat(1, 3), Rat(2, 5), Rat(3, 7)]),
    ParamVector([Rat(-1, 2), Rat(5, 3), Rat(1, 7)]),
]
GAMMAS_3 = [
    ParamVector([0, 0, 0, 0]),
    ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)]),
    ParamVector([Rat(2, 3), Rat(-1, 3), Rat(1, 5), Rat(3, 2)]),
]


def test_jacobi1d_base_cases():
    t = MultiPoly.variable(1, 0)
    assert jacobi1d(0, Rat(1, 2), Rat(1, 3)) == MultiPoly.const(1, 1)
    assert jacobi1d(1, 0, 0) == t
    assert jacobi1d(2, 0, 0) == (t * t).scale(Rat(3, 2)) - MultiPoly.const(1, Rat(1, 2))


def test_jacobi1d_degree_exact():
    for n in range(6):
        assert jacobi1d(n, Rat(1, 2), Rat(-1, 3)).total_degree() == n


def test_jacobi1d_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        jacobi1d(2, -1, 0)
    with pytest.raises(InvalidParameter):
        jacobi1d(2, 0, -2)
    with pytest.raises(InvalidParameter):
        jacobi1d(2, Rat(-1, 2), Rat(-3, 2))


def test_jacobi1d_orthogonality_via_one_variable_simplex():
    # d = 1: P_n(x) = p_n^{(g2, g1)}(2x - 1) and the moment functional gives
    # the weight x^{g1} (1-x)^{g2}, so distinct degrees are orthogonal.
    gamma = ParamVector([Rat(1, 2), Rat(1, 3)])
    polys = [jacobi_simplex((n,), gamma) for n in range(5)]
    for a in range(5):
        for b in range(a + 1, 5):
            assert inner_product(polys[a], polys[b], gamma) == 0


def test_simplex_base_cases():
    g = ParamVector([0, 0, 0])
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    one = MultiPoly.const(2, 1)
    assert jacobi_simplex((0, 0), g) == one
    assert jacobi_simplex((0, 1), g) == x1 + x2.scale(2) - one
    assert jacobi_simplex((1, 0), g) == x1.scale(3) - one


@pytest.mark.parametrize("gamma", GAMMAS_2)
def test_two_variable_reduction(gamma):
    for n in range(5):
        for nu in level_indices(n, 2):
            assert jacobi_simplex(nu, gamma) == two_var_reference(nu, gamma), nu


@pytest.mark.parametrize("gamma", GAMMAS_3)
def test_three_variable_reduction(gamma):
    for n in range(4):
        for nu in level_indices(n, 3):
            assert jacobi_simplex(nu, gamma) == three_var_reference(nu, gamma), nu


@pytest.mark.parametrize("gamma", [GAMMAS_2[1], GAMMAS_2[2]])
def test_orthogonality_two_variables(gamma):
    polys = [(nu, jacobi_simplex(nu, gamma)) for nu in graded_indices(4, 2)]
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            assert inner_product(polys[a][1], polys[b][1], gamma) == 0


def test_orthogonality_three_variables():
    gamma = ParamVector([Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11)])
    polys = [jacobi_simplex(nu, gamma) for nu in graded_indices(3, 3)]
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            assert inner_product(polys[a], polys[b], gamma) == 0


def test_degree_and_leading_coefficient():
    gamma = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)])
    for n in range(4):
        for nu in level_indices(n, 3):
            p = jacobi_simplex(nu, gamma)
            assert p.total_degree() == n
            assert lex_lead(nu, p) != 0


def test_a_param_matches_low_dimensional_parameters():
    g2 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4)])
    assert a_param(1, (2, 3), g2) == g2[2] + g2[3] + 2 * 3 + 1
    assert a_param(2, (2, 3), g2) == g2[3]
    g3 = ParamVector([0, Rat(1, 2), Rat(1, 3), Rat(1, 4)])
    assert a_param(1, (1, 2, 3), g3) == g3[2] + g3[3] + g3[4] + 2 * 5 + 2
    assert a_param(2, (1, 2, 3), g3) == g3[3] + g3[4] + 2 * 3 + 1
    assert a_param(3, (1, 2, 3), g3) == g3[4]


def test_level_enumeration_descending_lex():
    assert level_indices(1, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert level_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(level_indices(3, 4)) == comb(3 + 3, 3)  # 20 elements
    assert graded_indices(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("d", range(1, 5))
def test_negative_degree_has_no_indices(d):
    assert level_indices(-1, d) == []
    assert level_indices(-3, d) == []


def test_basis_build_and_rank():
    gamma = ParamVector([Rat(1, 2), Rat(1, 2), Rat(1, 2)])
    ctx = ModuleContext(2, 3, gamma)
    assert len(ctx.level) == comb(3 + 1, 1)
    assert ctx.level == level_indices(3, 2)
    index = {m: i for i, m in enumerate(graded_indices(3, 2))}
    matrix = RingMatrix.from_columns([coordinates(ctx.polys[nu], index) for nu in ctx.level])
    assert matrix.rank() == len(ctx.level)


def test_graded_family_has_full_rank():
    gamma = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)])
    n = 3
    monos = graded_indices(n, 3)
    index = {m: i for i, m in enumerate(monos)}
    columns = []
    for nu in graded_indices(n, 3):
        p = jacobi_simplex(nu, gamma)
        col = [Rat(0)] * len(monos)
        for e, c in p.terms.items():
            col[index[e]] = c
        columns.append(col)
    assert RingMatrix.from_columns(columns).rank() == comb(n + 3, 3)


def test_family_members_share_their_factors(monkeypatch):
    # factor k of P_nu depends on gamma, k, nu_k and |nu_{>k}| alone, so one
    # gamma builds each factor once, whichever member needs it first
    built = Counter()
    factor = jacobi._factor

    def counted(d, k, n_k, alpha, beta):
        built[(k, n_k, alpha)] += 1
        return factor(d, k, n_k, alpha, beta)

    monkeypatch.setattr(jacobi, "_factor", counted)
    gamma = GAMMAS_3[2]
    for nu in graded_indices(3, 3):
        assert dict(jacobi_simplex(nu, gamma).terms) == jacobi_simplex_oracle(nu, gamma).terms, nu
    keys = {
        (k, nu[k - 1], sum(nu[k:])) for nu in graded_indices(3, 3) for k in (1, 2, 3) if nu[k - 1]
    }
    assert set(built.values()) == {1}
    assert len(built) == len(keys)
