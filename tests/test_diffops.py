import gc
import os
import random
import subprocess
import sys
from itertools import chain, combinations, permutations
from math import comb, gcd, lcm
from pathlib import Path

import pytest

from oracles import (
    FAULT_GAMMAS,
    OracleOp,
    apply_oracle,
    combination_oracle,
    compose_oracle,
    fold_terms,
    generator_rank_oracle,
    l_total_closed_form,
    relations_oracle,
    sample_valid_gammas,
)
from simplexalg.diffops import (
    FIELD_MAX,
    OPERATOR_CACHE_SIZE,
    DiffOp,
    commutator,
    f_combination,
    f_formula,
    generator_table,
    jm_relations,
    l_operator,
    l_total,
    m_operator,
    pair_counts,
)
from simplexalg.errors import PackingOverflow
from simplexalg.jacobi import graded_indices, jacobi_simplex
from simplexalg.params import ParamVector
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext, _f_index_choices, generator_rank, verify_kd

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


TWO_PRODUCT_GAMMAS = [
    pytest.param(gamma, id=f"seeded-d{d}-{k}")
    for d in (3, 4)
    for k, gamma in enumerate(sample_valid_gammas(80 + d, d, 2))
] + [pytest.param(gamma, id="fault-" + ",".join(gamma.to_json())) for gamma in FAULT_GAMMAS]


@pytest.mark.parametrize("gamma", TWO_PRODUCT_GAMMAS)
def test_fused_products_and_f_agree_with_two_products(gamma):
    # every ordered pair of generators, and F at every index choice evaluated
    # in the ring whose every product is compose_oracle (F needs d >= 3)
    d = gamma.d
    table = generator_table(d, gamma)
    for a in table.values():
        for b in table.values():
            assert_fused_products_agree(a, b)
    oracle_generator = lambda a, b: OracleOp(table[min(a, b), max(a, b)])
    for i, j, k, l in _f_index_choices(d) if d >= 3 else ():
        expected = fold_terms(f_formula(oracle_generator, i, j, k, l, gamma)).op
        assert f_combination(i, j, k, l, d, gamma) == expected, (i, j, k, l)


def test_one_right_factor_serves_several_left_factors():
    # the right factor memoizes its derivatives d^delta across products with
    # left factors of other orders, and in both orders
    rng = random.Random(31)
    right = DiffOp(3, {(0, 1, 1): random_poly(rng, 3, degree=4), (2, 0, 0): random_poly(rng, 3)})
    lefts = [random_op(rng, 3, order) for order in (1, 4, 2, 3)] + [right]
    for left in lefts:
        assert left @ right == compose_oracle(left, right)
        assert right @ left == compose_oracle(right, left)
        assert_fused_products_agree(left, right)
        assert_fused_products_agree(right, left)


def test_generator_table_memos_stay_within_the_cache_size(fresh_caches):
    # the kd verdict composes the table's generators as right factors, so
    # their memos live as long as the table of their gamma is cached
    gammas = sample_valid_gammas(66, 3, OPERATOR_CACHE_SIZE + 3)
    for gamma in gammas:
        assert verify_kd(3, gamma).status == "pass"
    gc.collect()
    memoized = [obj for obj in gc.get_objects() if isinstance(obj, DiffOp) and obj._derived]
    generators = {
        gamma: [l_operator(i, j, 3, gamma) for i, j in combinations(range(1, 5), 2)]
        for gamma in gammas
    }
    owners = {gamma for op in memoized for gamma, ops in generators.items() if op in ops}
    assert owners == set(gammas[-OPERATOR_CACHE_SIZE:])
    assert generator_table.cache_info().currsize == OPERATOR_CACHE_SIZE


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


@pytest.mark.parametrize("d,gamma", [(3, G3), (4, G4)])
def test_f_relation_on_every_ordered_quadruple(d, gamma):
    # 24 quadruples at d = 3 and 120 at d = 4
    for i, j, k, l in permutations(range(1, d + 2), 4):
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


# -- the integer form against MultiPoly arithmetic -----------------------------

#: Denominators of random coefficients: pairwise coprime, so that sums and
#: products of operators meet several primes.
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)
G2 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4)])


def random_vector(rng, d, total):
    vector = [0] * d
    for _ in range(rng.randint(0, total)):
        vector[rng.randrange(d)] += 1
    return tuple(vector)


def random_poly(rng, d, degree=3, terms=3):
    return MultiPoly(
        d,
        {
            random_vector(rng, d, degree): Rat(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            for _ in range(terms)
        },
    )


def random_op(rng, d, order=4):
    return DiffOp(d, {random_vector(rng, d, order): random_poly(rng, d) for _ in range(3)})


def terms_combination(a, b, sign):
    """a + sign * b on the MultiPoly view, coefficient by coefficient."""
    out = dict(a.terms)
    for deriv, coefficient in b.terms.items():
        out[deriv] = out.get(deriv, MultiPoly.zero(a.dim)) + coefficient.scale(sign)
    return {deriv: coefficient for deriv, coefficient in out.items() if coefficient}


def assert_fused_products_agree(a, b):
    """The commutator, the anticommutator and the product in both orders
    against two whole products of ``compose_oracle``."""
    two = OracleOp(a), OracleOp(b)
    assert a.commutator(b) == two[0].commutator(two[1]).op
    assert a.anticommutator(b) == two[0].anticommutator(two[1]).op
    assert a.both_orders(b) == tuple(x.op for x in two[0].both_orders(two[1]))
    for op in (a.commutator(b), a.anticommutator(b), *a.both_orders(b)):
        assert_canonical(op)


def assert_canonical(op):
    # the one denominator is the lcm of the view's and shares no factor with
    # every numerator, so equal operators have equal data
    values = [c for poly in op.terms.values() for c in poly.terms.values()]
    assert op.den == lcm(*(c.denominator for c in values))
    assert gcd(op.den, *chain.from_iterable(m.values() for m in op.nums.values())) == 1
    assert all(chain.from_iterable(m.values() for m in op.nums.values()))


@pytest.mark.parametrize("d", range(1, 6))
def test_integer_form_agrees_with_multipoly_arithmetic(d):
    rng = random.Random(500 + d)
    for _ in range(6):
        a, b = random_op(rng, d), random_op(rng, d)
        r = Rat(rng.choice((-1, 1)) * rng.randint(1, 30), rng.choice(DENOMINATORS))
        composed = a @ b
        assert composed == compose_oracle(a, b)
        assert_fused_products_agree(a, b)
        pairs = [(r, a), (-1, b), (Rat(2, 3), composed), (1, a.scale(-r))]
        assert DiffOp.combination(d, pairs) == combination_oracle(d, pairs)
        assert DiffOp.combination(d, []) == DiffOp.zero(d)
        assert dict((a + b).terms) == terms_combination(a, b, 1)
        assert dict((a - b).terms) == terms_combination(a, b, -1)
        assert dict(a.scale(r).terms) == {deriv: c.scale(r) for deriv, c in a.terms.items()}
        assert a.scale(0).is_zero() and (a - a).is_zero()
        assert DiffOp(d, a.terms) == a and a + b - b == a
        assert (a.scale(r) == a) == (r == 1)
        for op in (a, composed, a + b, a - b, a.scale(r)):
            assert_canonical(op)


@pytest.mark.parametrize("d", range(1, 6))
def test_apply_agrees_with_oracle_on_random_polynomials(d):
    rng = random.Random(600 + d)
    for _ in range(6):
        op, poly = random_op(rng, d), random_poly(rng, d, degree=5, terms=6)
        assert op.apply(poly) == apply_oracle(op, poly)


@pytest.mark.parametrize("gamma", [G2, G3], ids=["G_2", "G_3"])
def test_apply_agrees_with_oracle_on_the_graded_family(gamma):
    d = gamma.d
    rng = random.Random(700 + d)
    ops = [l_operator(i, j, d, gamma) for i, j in combinations(range(1, d + 2), 2)]
    ops += [m_operator(j, d, gamma, v) for j in range(1, d + 1) for v in ("plain", "plus", "minus")]
    ops += [random_op(rng, d) for _ in range(4)]
    for nu in graded_indices(3, d):
        poly = jacobi_simplex(nu, gamma)
        for op in ops:
            assert op.apply(poly) == apply_oracle(op, poly), (nu, op)


def test_operators_a_tiny_rational_apart_are_unequal():
    # equal numerators over different denominators, and one coefficient
    # moved by 10^-12 on a generator, both compare unequal
    third, quarter = DiffOp(1, {(1,): Rat(1, 3)}), DiffOp(1, {(1,): Rat(1, 4)})
    assert third.nums == quarter.nums and third != quarter
    op = l_operator(1, 2, 3, G3)
    nudge = DiffOp(3, {(1, 0, 0): MultiPoly.monomial(3, (0, 1, 0), Rat(1, 10**12))})
    assert op + nudge != op and not (op + nudge - op).is_zero()
    assert (op + nudge - nudge) == op


# Every way to reach a key entry above FIELD_MAX; run as a script, so that it
# runs under python -O too.
OVERFLOW_PROBE = """
from simplexalg.diffops import DiffOp
from simplexalg.errors import PackingOverflow
from simplexalg.poly import MultiPoly

from simplexalg import diffops

# every key of a product or an image is formed in the Leibniz kernel
kernel, entered = diffops._leibniz, []
diffops._leibniz = lambda *args, **kwargs: entered.append(1) or kernel(*args, **kwargs)
high = DiffOp(2, {(128, 0): MultiPoly.monomial(2, (0, 128))})
cases = {
    "derivative order 256": lambda: DiffOp(2, {(256, 0): 1}),
    "exponent 300": lambda: DiffOp(1, {(0,): MultiPoly.monomial(1, (300,))}),
    "composed orders 128 + 128": lambda: high @ high,
    "image exponents 128 + 128": lambda: high.apply(MultiPoly.monomial(2, (128, 128))),
    "commutator of orders 128 + 128": lambda: high.commutator(high),
    "anticommutator of orders 128 + 128": lambda: high.anticommutator(high),
    "both orders of orders 128 + 128": lambda: high.both_orders(high),
    "combination of orders 128 + 128": lambda: DiffOp.combination(2, [(1, high), (1, high @ high)]),
}
for name, build in cases.items():
    try:
        build()
    except PackingOverflow:
        print(name, "raises")
    else:
        print(name, "returns")
print("kernel entered", len(entered), "times")
"""
OVERFLOW_RAISES = [
    "derivative order 256 raises",
    "exponent 300 raises",
    "composed orders 128 + 128 raises",
    "image exponents 128 + 128 raises",
    "commutator of orders 128 + 128 raises",
    "anticommutator of orders 128 + 128 raises",
    "both orders of orders 128 + 128 raises",
    "combination of orders 128 + 128 raises",
    "kernel entered 0 times",
]


def test_packing_overflow_raises_a_named_error(capsys):
    exec(OVERFLOW_PROBE, {})
    assert capsys.readouterr().out.splitlines() == OVERFLOW_RAISES
    # the largest entry a field holds packs and reads back
    edge = DiffOp(2, {(FIELD_MAX, 0): MultiPoly.monomial(2, (0, FIELD_MAX))})
    assert dict(edge.terms) == {(FIELD_MAX, 0): MultiPoly.monomial(2, (0, FIELD_MAX))}
    with pytest.raises(PackingOverflow):
        DiffOp(1, {(1,): 1}) @ DiffOp(1, {(FIELD_MAX,): 1})


def test_packing_overflow_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OVERFLOW_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == OVERFLOW_RAISES
