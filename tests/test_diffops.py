import random
from itertools import combinations
from math import comb

import pytest

from oracles import (
    compose_oracle,
    generator_rank_oracle,
    l_total_closed_form,
    relations_oracle,
    sample_valid_gammas,
)
from simplexalg.diffops import (
    DiffOp,
    commutator,
    f_combination,
    jm_relations,
    l_operator,
    l_total,
    m_operator,
    pair_counts,
)
from simplexalg.jacobi import graded_indices
from simplexalg.params import ParamVector
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext, generator_rank

G0 = ParamVector([0, 0, 0])
G3 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)])
G4 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7)])


def x(i, dim=2):
    return MultiPoly.variable(dim, i)


def test_generators_kill_constants():
    one = MultiPoly.const(2, 1)
    assert l_operator(1, 2, 2, G0).apply(one).is_zero()
    assert l_operator(1, 3, 2, G0).apply(one).is_zero()
    assert l_total(2, G0).apply(one).is_zero()


def test_generator_first_order_action():
    assert l_operator(1, 2, 2, G0).apply(x(0)) == x(1) - x(0)
    expected = MultiPoly.const(2, 1) - x(0).scale(2) - x(1)
    assert l_operator(1, 3, 2, G0).apply(x(0)) == expected
    assert l_total(2, G0).apply(x(0)) == MultiPoly.const(2, 1) - x(0).scale(3)
    p10 = x(0).scale(3) - MultiPoly.const(2, 1)
    assert l_operator(1, 2, 2, G0).apply(p10) == (x(1) - x(0)).scale(3)


def test_generator_is_index_symmetric():
    assert l_operator(1, 2, 2, G0) == l_operator(2, 1, 2, G0)
    assert l_operator(2, 4, 3, G3) == l_operator(4, 2, 3, G3)


def test_generator_index_validation():
    with pytest.raises(ValueError):
        l_operator(1, 1, 2, G0)
    with pytest.raises(ValueError):
        l_operator(1, 4, 2, G0)


def test_total_operator_second_order_coefficient():
    total = l_total(2, G0)
    assert total.terms[(2, 0)] == x(0) * (MultiPoly.const(2, 1) - x(0))


G5 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7), Rat(1, 11)])


def test_total_equals_pair_sum():
    for d, gamma in ((2, G0), (3, G3), (4, G4), (5, G5)):
        summed = DiffOp.zero(d)
        for i, j in combinations(range(1, d + 2), 2):
            summed = summed + l_operator(i, j, d, gamma)
        assert l_total(d, gamma) == summed
        assert l_total_closed_form(d, gamma) == summed


def test_apply_zero_polynomial():
    assert l_operator(1, 2, 2, G0).apply(MultiPoly.zero(2)).is_zero()


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4)])
def test_kohno_drinfeld_relations(d, gamma):
    ops = {
        (i, j): l_operator(i, j, d, gamma) for i, j in combinations(range(1, d + 2), 2)
    }
    for (i, j), (k, l) in combinations(ops, 2):
        if len({i, j, k, l}) == 4:
            assert commutator(ops[(i, j)], ops[(k, l)]).is_zero()
    for i, j, k in combinations(range(1, d + 2), 3):
        pair = lambda a, b: ops[(min(a, b), max(a, b))]
        assert commutator(pair(i, j), pair(i, k) + pair(j, k)).is_zero()


def test_commutator_with_self_is_zero():
    op = l_operator(1, 2, 2, G0)
    assert commutator(op, op).is_zero()


def test_jm_family_low_dimensional_names():
    assert m_operator(3, 3, G3) == l_operator(3, 4, 3, G3)
    l123 = l_operator(1, 2, 3, G3) + l_operator(1, 3, 3, G3) + l_operator(2, 3, 3, G3)
    assert m_operator(2, 3, G3, "minus") == l123
    l134 = l_operator(1, 3, 3, G3) + l_operator(1, 4, 3, G3) + l_operator(3, 4, 3, G3)
    assert m_operator(2, 3, G3, "plus") == l134
    assert m_operator(3, 3, G3, "minus") == l_operator(2, 3, 3, G3)
    assert m_operator(2, 2, G0, "minus") == l_operator(1, 2, 2, G0)
    for variant in ("plain", "plus", "minus"):
        assert m_operator(1, 2, G0, variant) == l_total(2, G0)


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4)])
def test_jm_family_commutes(d, gamma):
    ops = [m_operator(j, d, gamma) for j in range(1, d + 1)]
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            assert commutator(ops[a], ops[b]).is_zero()


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4)])
def test_jm_dependence_identity(d, gamma):
    identity = (
        m_operator(1, d, gamma)
        - m_operator(2, d, gamma)
        - m_operator(2, d, gamma, "minus")
        + (m_operator(3, d, gamma, "minus") if d >= 3 else DiffOp.zero(d))
        - m_operator(d, d, gamma, "plus")
    )
    assert identity.is_zero()


@pytest.mark.parametrize("d,gamma", [(3, G3), (4, G4)])
def test_jm_recovery(d, gamma):
    # every recovery formula, both for L_{1,d+1}, as a DiffOp sum of M_j^variant
    result = relations_oracle(ModuleContext(d, 1, gamma))
    assert result.status == "pass", result.details


@pytest.mark.parametrize("d", range(2, 8))
def test_jm_relations_hold_on_index_pairs(d):
    rows = jm_relations(d)
    kinds = [kind for kind, _, _ in rows]
    assert kinds == ["recovery"] * (2 * d) + ["dependence"] + ["closure"] * (4 if d == 3 else 0)
    targets = [target for kind, target, _ in rows if kind == "recovery"]
    assert targets.count((1, d + 1)) == 2
    assert set(targets) == {(1, j) for j in range(2, d + 2)} | {(i, d + 1) for i in range(1, d + 1)}
    for kind, target, terms in rows:
        assert pair_counts(terms, d) == ({target: 1} if target else {}), (kind, target)


def test_pair_counts_of_the_low_dimensional_names():
    assert pair_counts([(1, 1, "plain")], 3) == {pair: 1 for pair in combinations(range(1, 5), 2)}
    assert pair_counts([(1, 2, "plus")], 3) == {(1, 3): 1, (1, 4): 1, (3, 4): 1}
    assert pair_counts([(1, 3, "minus"), (-1, 3, "minus")], 3) == {}
    assert pair_counts([(1, 4, "plain"), (1, 5, "minus")], 3) == {}


def test_recovery_convention_collapses():
    # the last recovery reduces to a single commuting-family element
    [terms] = [terms for kind, target, terms in jm_relations(3) if target == (3, 4)]
    assert pair_counts(terms, 3) == pair_counts([(1, 3, "plain")], 3) == {(3, 4): 1}
    assert m_operator(3, 3, G3) == l_operator(3, 4, 3, G3)


def test_compose_leibniz_against_direct_action():
    a = l_operator(1, 2, 2, G0)
    b = l_operator(2, 3, 2, G0)
    composed = a @ b
    for exponent in graded_indices(3, 2):
        p = MultiPoly.monomial(2, exponent)
        assert composed.apply(p) == a.apply(b.apply(p))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_compose_agrees_with_leibniz_oracle(d):
    # products and commutators of generators, and third-order products of
    # commutators (fourth-order left factors, as inside F)
    gamma = sample_valid_gammas(40 + d, d, 1)[0]
    generators = [l_operator(i, j, d, gamma) for i, j in combinations(range(1, d + 2), 2)]
    for a in generators:
        for b in generators:
            assert a @ b == compose_oracle(a, b)
    rng = random.Random(d)
    for _ in range(6):
        a, b, c = (rng.choice(generators) for _ in range(3))
        ab = commutator(a, b)
        assert ab == compose_oracle(a, b) - compose_oracle(b, a)
        assert ab @ c == compose_oracle(ab, c)
        assert c @ ab == compose_oracle(c, ab)


@pytest.mark.parametrize(
    "d,gamma,indices",
    [
        (3, G3, (2, 3, 1, 4)),
        (3, G3, (1, 4, 2, 3)),
        (4, G4, (2, 3, 1, 5)),
        (4, G4, (1, 2, 3, 4)),
    ],
)
def test_f_relation_operator_identity(d, gamma, indices):
    i, j, k, l = indices
    factor = (1 - gamma[k] ** 2) * (1 - gamma[l] ** 2)
    assert f_combination(i, j, k, l, d, gamma) == l_operator(i, j, d, gamma).scale(factor)


def test_f_relation_action_on_low_degree(subtests=None):
    i, j, k, l = 2, 3, 1, 4
    gamma = G3
    f_op = f_combination(i, j, k, l, 3, gamma)
    target = l_operator(i, j, 3, gamma).scale((1 - gamma[k] ** 2) * (1 - gamma[l] ** 2))
    for exponent in graded_indices(3, 3):
        p = MultiPoly.monomial(3, exponent)
        assert f_op.apply(p) == target.apply(p)


def test_f_rejects_repeated_indices():
    with pytest.raises(ValueError):
        f_combination(1, 2, 2, 4, 3, G3)


def test_f_annihilates_constants():
    assert f_combination(2, 3, 1, 4, 3, G3).apply(MultiPoly.const(3, 1)).is_zero()


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4)])
def test_degree_preservation(d, gamma):
    ops = [l_operator(i, j, d, gamma) for i, j in combinations(range(1, d + 2), 2)]
    for op in ops + [l_total(d, gamma)]:
        for exponent in graded_indices(4, d):
            image = op.apply(MultiPoly.monomial(d, exponent))
            assert image.total_degree() <= sum(exponent), exponent


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4)])
def test_generators_linearly_independent(d, gamma):
    assert generator_rank(d, gamma) == comb(d + 1, 2)


@pytest.mark.parametrize("d,gamma", [(2, G0), (3, G3), (4, G4), (5, G5)])
def test_rank_agrees_with_monomial_oracle(d, gamma):
    assert generator_rank(d, gamma) == generator_rank_oracle(d, gamma) == comb(d + 1, 2)
