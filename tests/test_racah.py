import os
import random
import subprocess
import sys
from itertools import product
from math import prod
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FAULT_GAMMAS,
    folded_fractions,
    folded_value,
    fraction_value,
    fractions_equal,
    involution_image,
    numerator_first_value,
    racah_matrix_oracle,
    racah_operator,
    sample_valid_gammas,
    shift_ops_equal,
    unshared_limit,
)
from simplexalg import cli, racah, verify
from simplexalg.diffops import DiffOp
from simplexalg.errors import DegenerateParameter, InvariantViolation
from simplexalg.jacobi import level_indices
from simplexalg.linalg import ExactMatrix
from simplexalg.params import ParamVector
from simplexalg.poly import MultiPoly
from simplexalg.racah import (
    PRINTED_OPERATORS,
    FormFactor,
    PrintedCoefficient,
    RacahOp,
    RacahTerm,
    Summand,
    ZFraction,
    b12_operator,
    b123_operator,
    b134_operator,
    b23_operator,
    certificate_2d,
    parameter_maps,
    predicted_m_action,
    racah_coefficient,
    _b_denominator,
    _b_entry,
    _kernel,
    _link,
)
from simplexalg.scalar import Rat
from simplexalg.verify import (
    ModuleContext,
    ModuleInvarianceError,
    run_suites,
    verify_difference_action,
)

G0_2 = ParamVector([0, 0, 0])
G0_3 = ParamVector([0, 0, 0, 0])
G_2 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4)])
G_3 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)])


# -- explicit operators -------------------------------------------------------


def test_b12_printed_values():
    op = b12_operator(G0_2)
    assert op.coefficient((-1, 1), (1, 0)) == Rat(3, 2)
    assert op.coefficient((0, 0), (1, 0)) == Rat(-3, 2)
    assert op.coefficient((1, -1), (0, 1)) == Rat(1, 2)
    assert op.coefficient((0, 0), (0, 1)) == Rat(-1, 2)


def test_b12_boundary_factors_vanish():
    op = b12_operator(G_2)
    for n2 in range(4):
        assert op.coefficient((-1, 1), (0, n2)) == 0
    for n1 in range(4):
        assert op.coefficient((1, -1), (n1, 0)) == 0


def test_b12_matrix_is_the_pinned_two_by_two():
    from simplexalg.linalg import ExactMatrix

    matrix = b12_operator(G0_2).matrix_on_level(1)
    assert matrix == ExactMatrix([[Rat(-3, 2), Rat(1, 2)], [Rat(3, 2), Rat(-1, 2)]])


def test_b23_printed_value():
    op = b23_operator(G0_3)
    assert op.coefficient((0, -1, 1), (0, 1, 0)) == Rat(3, 2)


def test_b123_structural_zeroes():
    op = b123_operator(G_3)
    for nu in [(2, 0, 1), (1, 1, 1), (3, 1, 0)]:
        assert op.coefficient((1, -2, 1), nu) == 0
    assert op.coefficient((1, -2, 1), (0, 2, 1)) != 0


def test_b134_structural_zeroes():
    op = b134_operator(G_3)
    for n2 in range(3):
        for n3 in range(3):
            assert op.coefficient((-1, 1, 0), (0, n2, n3)) == 0


def test_shift_conservation_enforced():
    with pytest.raises(ValueError):
        RacahOp(2, "bad", [RacahTerm((1, 0), None)])


def test_matrix_on_level_structure():
    op = b23_operator(G_3)
    for n in range(4):
        matrix = op.matrix_on_level(n)
        assert matrix.rows == matrix.cols == len(level_indices(n, 3))


def test_numerator_first_rule():
    # numerator vanishes together with the denominator -> the summand is 0
    # and the denominator must never be touched
    coef = PrintedCoefficient(
        "probe",
        [
            Summand(
                Rat(1),
                (FormFactor("nu1", lambda v: v[0], structural=True),),
                (FormFactor("nu1", lambda v: v[0]),),
            )
        ],
    )
    assert coef.eval((0, 5)) == 0
    # nonzero numerator over a vanishing denominator is degenerate
    bad = PrintedCoefficient(
        "probe2",
        [
            Summand(
                Rat(1),
                (FormFactor("one", lambda v: 1),),
                (FormFactor("nu1", lambda v: v[0]),),
            )
        ],
    )
    with pytest.raises(DegenerateParameter):
        bad.eval((0, 5))
    assert bad.eval((2, 5)) == Rat(1, 2)
    # a numerator factor that names a parameter resolves nothing: its zero
    # over a vanishing denominator is a 0/0 whose limit can be nonzero
    unresolved = PrintedCoefficient(
        "probe3",
        [
            Summand(
                Rat(1),
                (FormFactor("g1+nu1", lambda v: v[0]),),
                (FormFactor("nu1", lambda v: v[0]),),
            )
        ],
    )
    with pytest.raises(DegenerateParameter, match="denominator form nu1 vanishes"):
        unresolved.eval((0, 5))
    assert unresolved.eval((3, 5)) == 1


def test_strict_scan_flags_b123_at_integer_parameters():
    # gamma = 0 makes (g34 + 2 nu3) vanish at nu3 = 0 while the structural
    # index factors do not; the level loop stops at the first such coefficient
    with pytest.raises(DegenerateParameter) as refused:
        b123_operator(G0_3).matrix_on_level(2)
    assert str(refused.value) == (
        "shift (-1, 1, 0) at nu=(2, 0, 0): denominator form g34+2nu3 vanishes"
    )
    # g2 + g3 = -1 makes (g2+g3+2nu2+1) vanish at nu2 = 0
    with pytest.raises(DegenerateParameter) as refused:
        b12_operator(ParamVector([0, Rat(-1, 2), Rat(-1, 2)])).matrix_on_level(2)
    assert str(refused.value) == (
        "shift (-1, 1) at nu=(2, 0): denominator form g2+g3+2nu2+1 vanishes"
    )
    b12_operator(G0_2).matrix_on_level(4)
    b123_operator(G_3).matrix_on_level(4)


def test_certificate_values():
    assert certificate_2d((1, 1), G0_2) == Rat(40, 3)
    assert certificate_2d((1, 1), ParamVector([Rat(1, 2)] * 3)) != 0
    with pytest.raises(ValueError):
        certificate_2d((0, 1), G0_2)
    for nu in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        assert certificate_2d(nu, G_2) != 0


# -- kernels and general coefficients ----------------------------------------


def _b_value(i, bit, z_i, beta):
    """b_i^bit at z_i, from its constant and its monic linear factors."""
    const, factors = _b_denominator(i, bit, beta)
    return const * prod(z_i - root for _, root in factors)


def test_kernel_values():
    # B_0^{0,0}(z_0 = 0, z_1 = 1) with beta = (0, 2)
    assert _kernel(0, 0, Rat(0), Rat(1), Rat(0), Rat(2)) == Rat(7, 2)
    beta = [Rat(0), Rat(2), Rat(0)]
    assert _b_value(1, 0, Rat(1), beta) == Rat(15, 2)
    assert _b_value(1, 1, Rat(1), beta) == 5 * 4
    # B^{1,0} carries the factor (z_{i+1} - z_i)
    assert _kernel(1, 0, Rat(3), Rat(3), Rat(1, 2), Rat(1, 3)) == 0


def test_racah_coefficient_matches_paper_product():
    # C_{1,(0)} = B_0^{00} B_1^{00} / b_1^0 as a rational function
    beta = [Rat(1, 2), Rat(1, 3), Rat(1, 5)]
    frac = racah_coefficient(1, (0,), beta)
    z = [Rat(3), Rat(7)]

    def b0(a, b):
        return _kernel(a, b, Rat(0), z[0], beta[0], beta[1])

    def b1(a, b):
        return _kernel(a, b, z[0], z[1], beta[1], beta[2])

    assert fraction_value(frac, z) == b0(0, 0) * b1(0, 0) / _b_value(1, 0, z[0], beta)
    # C_{1,(1)} = B_0^{01} B_1^{10} / b_1^1
    frac1 = racah_coefficient(1, (1,), beta)
    assert fraction_value(frac1, z) == b0(0, 1) * b1(1, 0) / _b_value(1, 1, z[0], beta)


def test_involution_is_an_involution():
    beta = [Rat(1, 2), Rat(1, 3), Rat(1, 5)]
    frac = racah_coefficient(1, (1,), beta)
    twice = frac.involution(1, beta[1]).involution(1, beta[1])
    assert fractions_equal(twice, frac)
    # and C_{1,(-1)} is the involution image of C_{1,(1)}
    assert fractions_equal(racah_coefficient(1, (-1,), beta), frac.involution(1, beta[1]))


def test_zfraction_reduce_and_add():
    z1 = MultiPoly.variable(2, 0)
    one = MultiPoly.const(2, 1)
    frac = ZFraction(2, (z1 - one) * (z1 + one)).div_linear(1, 1)
    reduced = frac.reduce()
    assert not reduced.den
    assert reduced.num == z1 + one
    with_pole = ZFraction(2, one).div_linear(1, 1)
    total = with_pole.add(ZFraction(2, one))
    assert fraction_value(total, [3, 0]) == Rat(1, 2) + 1
    with pytest.raises(DegenerateParameter):
        fraction_value(with_pole, [1, 0])
    with pytest.raises(ValueError):
        with_pole.subs_const(1, 5)


def test_i_invariance_of_the_general_family():
    beta = [Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7)]
    op = racah_operator(2, beta)
    for k in (1, 2):
        assert shift_ops_equal(involution_image(op, k), op)
    op1 = racah_operator(1, beta[:3])
    assert shift_ops_equal(involution_image(op1, 1), op1)


def _eval_padded(frac, point, memo):
    """Evaluate at a lattice point, padding spectator variables with 0; the
    values are memoized per (fraction, point) in ``memo``."""
    key = (id(frac), point)
    if key not in memo:
        values = list(point)[: frac.nvars]
        values += [Rat(0)] * (frac.nvars - len(values))
        memo[key] = fraction_value(frac, values)
    return memo[key]


def _compose_on_delta(a, b, src, dst, memo):
    """<delta_dst | a b | delta_src> on the integer lattice."""
    total = Rat(0)
    for sigma_a, frac_a in a.terms.items():
        mid = tuple(d + s for d, s in zip(dst, sigma_a + (0,) * (len(dst) - len(sigma_a))))
        coeff_a = _eval_padded(frac_a, dst, memo)
        if coeff_a == 0:
            continue
        sigma_b = tuple(s - m for s, m in zip(src, mid))
        if any(v != 0 for v in sigma_b[b.j :]) or any(abs(v) > 1 for v in sigma_b[: b.j]):
            continue
        frac_b = b.terms.get(sigma_b[: b.j])
        if frac_b is None:
            continue
        total += coeff_a * _eval_padded(frac_b, mid, memo)
    return total


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3)])
def test_pairwise_commutativity_on_grid(pair):
    beta = [Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11)]
    ja, jb = pair
    a = racah_operator(ja, beta[: ja + 2])
    b = racah_operator(jb, beta[: jb + 2])
    dims = jb  # lattice dimension of the larger operator
    if dims == 2:
        grid = [(u, v) for u in range(4, 10) for v in range(11, 17)]
    else:
        grid = [(u, v, w) for u in range(4, 7) for v in range(8, 11) for w in range(12, 15)]
    memo = {}  # a and b keep every fraction alive, so its id is a stable key
    for src in grid:
        for dst in grid:
            if sum(abs(x - y) for x, y in zip(src, dst)) > 4:
                continue
            left = _compose_on_delta(a, b, src, dst, memo)
            right = _compose_on_delta(b, a, src, dst, memo)
            assert left == right, (src, dst)


def test_general_operator_term_counts():
    beta = [Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7)]
    assert len(racah_operator(1, beta[:3]).terms) <= 3
    assert len(racah_operator(2, beta).terms) <= 9


def test_commutator_with_diagonal_has_printed_off_diagonal_terms():
    # [diag(lambda_2), B12] keeps only the two shifts, with coefficients
    # (lambda_2(nu_2 +- 1) - lambda_2(nu_2)) times the B12 coefficients
    from simplexalg.verify import eigenvalue

    gamma = G_2
    n = 4
    op = b12_operator(gamma)
    basis = level_indices(n, 2)
    index = {nu: i for i, nu in enumerate(basis)}
    b_matrix = op.matrix_on_level(n)
    diag = [eigenvalue(2, nu, gamma) for nu in basis]
    size = len(basis)
    comm = [
        [diag[r] * b_matrix[(r, c)] - b_matrix[(r, c)] * diag[c] for c in range(size)]
        for r in range(size)
    ]
    lam = lambda n2: -n2 * (n2 + gamma[2] + gamma[3] + 1)
    for c, nu in enumerate(basis):
        for r in range(size):
            expected = Rat(0)
            target = basis[r]
            if target == (nu[0] - 1, nu[1] + 1):
                expected = (lam(nu[1] + 1) - lam(nu[1])) * op.coefficient((-1, 1), nu)
            elif target == (nu[0] + 1, nu[1] - 1):
                expected = (lam(nu[1] - 1) - lam(nu[1])) * op.coefficient((1, -1), nu)
            assert comm[r][c] == expected, (target, nu)


# -- parameter maps and the predicted actions --------------------------------


def test_parameter_maps():
    plus, minus = parameter_maps(G0_3, 2, 3)
    assert list(minus.values) == [0, 1, 2, 3]
    # beta+_j = -(tail sum) - 2n - d + j = j - 7 here, with beta+_0 = gamma_1
    assert list(plus.values) == [0, -6, -5, -4]
    plus2, _ = parameter_maps(G_3, 1, 3)
    assert plus2.values[0] == G_3[1]
    assert plus2.values[1] == -(G_3[2] + G_3[3] + G_3[4]) - 2 - 3 + 1


def test_predicted_action_validation():
    with pytest.raises(ValueError):
        predicted_m_action("sideways", 2, 1, 2, G_2)
    with pytest.raises(ValueError):
        predicted_m_action("plus", 1, 1, 2, G_2)
    with pytest.raises(ValueError):
        predicted_m_action("plus", 3, 1, 2, G_2)


# shuffled reciprocal primes, checked besides G_2 and G_3 (whose cases keep
# their plain ids)
SHUFFLED_2 = [ParamVector.parse(t) for t in ("1/5,1/2,1/3", "1/3,1/7,1/2", "1/7,1/5,1/3")]
SHUFFLED_3 = [
    ParamVector.parse(t) for t in ("1/7,1/2,1/5,1/3", "1/3,1/11,1/2,1/7", "1/5,1/3,1/7,1/2")
]
EXPLICIT_3D = [("B23", "minus", 3), ("B123", "minus", 2), ("B134", "plus", 2)]


def _gamma_id(gamma) -> str:
    return ",".join(gamma.to_json())


@pytest.mark.parametrize(
    "gamma,n",
    [pytest.param(G_2, n, id=str(n)) for n in range(5)]
    + [pytest.param(g, n, id=f"{_gamma_id(g)}-{n}") for g in SHUFFLED_2 for n in range(5)],
)
def test_predicted_minus_reproduces_b12(gamma, n):
    pred = predicted_m_action("minus", 2, n, 2, gamma)
    assert pred.matrix_on_level(n) == b12_operator(gamma).matrix_on_level(n)


@pytest.mark.parametrize(
    "which,variant,j,gamma",
    [pytest.param(*case, G_3, id="-".join(map(str, case))) for case in EXPLICIT_3D]
    + [
        pytest.param(*case, g, id="-".join(map(str, case)) + f"-{_gamma_id(g)}")
        for case in EXPLICIT_3D
        for g in SHUFFLED_3
    ],
)
def test_predicted_reproduces_explicit_3d(which, variant, j, gamma):
    explicit = PRINTED_OPERATORS[which][1](gamma)
    for n in range(4):
        pred = predicted_m_action(variant, j, n, 3, gamma)
        assert pred.matrix_on_level(n) == explicit.matrix_on_level(n), n


def test_predicted_coefficients_match_shift_by_shift():
    explicit = b23_operator(G_3)
    pred = predicted_m_action("minus", 3, 3, 3, G_3)
    shifts = {t.shift for t in explicit.terms} | {t.shift for t in pred.terms}
    for nu in level_indices(3, 3):
        for shift in shifts:
            assert explicit.coefficient(shift, nu) == pred.coefficient(shift, nu), (
                nu,
                shift,
            )


@pytest.mark.parametrize("gamma", [G0_2, G_2, G0_3, G_3], ids=["G0_2", "G_2", "G0_3", "G_3"])
def test_printed_rule_agrees_with_numerator_first_oracle(gamma):
    """Wherever the rule resolves a printed coefficient, its value is the
    numerator-first value."""
    resolved = 0
    for name, (d, builder) in PRINTED_OPERATORS.items():
        if d != gamma.d:
            continue
        op = builder(gamma)
        for n in range(4):
            for nu in level_indices(n, d):
                for term in op.terms:
                    try:
                        value = term.coef.eval(nu)
                    except DegenerateParameter:
                        continue
                    assert value == numerator_first_value(term.coef, nu), (name, nu, term.shift)
                    resolved += 1
    assert resolved


# -- pointwise product form, its limits and the reduced fractions ------------

# d = 4 gammas on which factors of the unreduced denominator vanish, so that
# limits are taken with m = 3
LIMIT_GAMMAS_4 = tuple(
    ParamVector.parse(text)
    for text in ("0,0,0,0,0", "1/2,1/2,-1/2,-1/2,1/2", "-1/2,1/2,1/2,-1/2,-1/2")
)


def _general_ops(n, gamma):
    d = gamma.d
    for j in range(2, d + 1):
        for variant in ("plus", "minus"):
            yield j, variant, predicted_m_action(variant, j, n, d, gamma)


def _count_limits(monkeypatch) -> list:
    """Count the coefficients that take the Q[t] path from now on."""
    calls = []
    limit = racah._FoldedFamily._limit

    def counted(family, sigma, z):
        calls.append(sigma)
        return limit(family, sigma, z)

    monkeypatch.setattr(racah._FoldedFamily, "_limit", counted)
    return calls


def _outcome(evaluate):
    try:
        return evaluate()
    except DegenerateParameter as exc:
        return f"DegenerateParameter: {exc}"


def _oracle_gammas():
    gammas = [G_2, G_3, G0_2, G0_3]
    for d in (2, 3, 4):
        gammas += sample_valid_gammas(31 + d, d, 2)
    return gammas + list(FAULT_GAMMAS)


@pytest.mark.parametrize("gamma", _oracle_gammas(), ids=lambda g: ",".join(g.to_json()))
def test_product_form_agrees_with_reduced_fractions(gamma, monkeypatch):
    """Every coefficient value equals that of the folded, reduced fraction,
    the limits at G0_2 and G0_3 included.  At the fault gammas the reduced
    fractions can be wrong, so there every R+/-:j matrix is compared with
    the differential M_j^+/- matrix instead."""
    limits = _count_limits(monkeypatch)
    d = gamma.d
    for n in range(4):
        ctx = ModuleContext(d, n, gamma) if gamma in FAULT_GAMMAS else None
        for j, variant, op in _general_ops(n, gamma):
            if ctx is not None:
                assert op.matrix_on_level(n) == ctx.m_matrix(j, variant), (op.name, n)
                continue
            folded = folded_fractions(op.terms[0].coef.family)  # one family per op
            for term in op.terms:
                coef = term.coef
                reduced = folded[coef.sigma]
                for nu in level_indices(n, d):
                    expected = _outcome(lambda: fraction_value(reduced, coef.family.z_of_nu(nu)))
                    assert _outcome(lambda: coef.eval(nu)) == expected, (op.name, n, term.shift, nu)
    if gamma in (G0_2, G0_3) + FAULT_GAMMAS:
        assert limits


@pytest.mark.parametrize(
    "gamma", (G0_2, G0_3) + FAULT_GAMMAS + LIMIT_GAMMAS_4, ids=lambda g: ",".join(g.to_json())
)
def test_limit_does_not_depend_on_the_direction(gamma, monkeypatch):
    """Every R+/-:j matrix, limits taken, equals the differential M_j^+/-
    matrix, and the same along another direction."""
    levels = range(3) if gamma.d == 4 else range(4)

    def matrices():
        return [op.matrix_on_level(n) for n in levels for _, _, op in _general_ops(n, gamma)]

    limits = _count_limits(monkeypatch)
    along_v = matrices()
    assert limits
    contexts = {n: ModuleContext(gamma.d, n, gamma) for n in levels}
    assert along_v == [
        contexts[n].m_matrix(j, variant) for n in levels for j, variant, _ in _general_ops(n, gamma)
    ]
    # v' = (2/5, 3/13, 5/17, ...): another set of positive rationals whose
    # nonempty sums never vanish
    other = tuple(Rat(p, q) for p, q in ((2, 5), (3, 13), (5, 17), (7, 29), (11, 37)))
    monkeypatch.setattr(racah, "_direction", lambda size: other[:size])
    assert matrices() == along_v


@pytest.mark.parametrize(
    "gamma", FAULT_GAMMAS + LIMIT_GAMMAS_4, ids=lambda g: ",".join(g.to_json())
)
def test_shared_limit_kernels_equal_the_unshared_ones(gamma, monkeypatch):
    """Each limit a column takes, reading the Q[t] kernels that the sigmas of
    its z share, equals the limit with every kernel built for its own sigma."""
    taken = []
    limit = racah._FoldedFamily._limit

    def recorded(family, sigma, z):
        value = limit(family, sigma, z)
        taken.append((family, sigma, z, value))
        return value

    monkeypatch.setattr(racah._FoldedFamily, "_limit", recorded)
    monkeypatch.setattr(racah, "_RACAH_CACHE", {})  # no column built before
    for n in (1, 2):
        for _, _, op in _general_ops(n, gamma):
            op.matrix_on_level(n)
    assert taken
    for family, sigma, z, value in taken:
        assert value == unshared_limit(family, sigma, z), (sigma, z)


def test_limit_refuses_a_pole_and_a_vanishing_denominator():
    t = MultiPoly.variable(1, 0)
    one = MultiPoly.const(1, 1)
    assert racah._limit_at_zero(t * (t + 3), t.scale(2) * (t + 1)) == Rat(3, 2)
    assert racah._limit_at_zero(MultiPoly.zero(1), t) == 0
    assert racah._limit_at_zero(t + 2, one.scale(4)) == Rat(1, 2)
    with pytest.raises(InvariantViolation, match="pole"):
        racah._limit_at_zero(t + 1, t * t)
    with pytest.raises(InvariantViolation, match="identically"):
        racah._limit_at_zero(one, MultiPoly.zero(1))


def test_cli_cells_never_build_the_reduced_family(monkeypatch):
    builds = []

    def refuse(*args):
        builds.append(args)
        raise AssertionError("the reduced family was built")

    monkeypatch.setattr(racah, "_build_racah_operator", refuse)
    monkeypatch.setattr(racah, "_RACAH_CACHE", {})
    for gamma in (G_2, G_3, G0_2, G0_3) + FAULT_GAMMAS:
        for mode in ("strict", "lenient"):
            argv = ["verify", "--gamma", ",".join(gamma.to_json()), "--n", "1,2", "--suite", "racah"]
            code = cli.main(argv + ["--mode", mode])
            assert code in (cli.EXIT_PASS, cli.EXIT_DEGENERATE), (gamma, mode, code)
    assert builds == []


def test_generic_cells_never_take_the_limit(monkeypatch):
    limits = _count_limits(monkeypatch)
    for gamma in (G_2, G_3):
        for n in range(4):
            for _, _, op in _general_ops(n, gamma):
                op.matrix_on_level(n)
    assert limits == []


# -- the column evaluator ----------------------------------------------------


def test_integer_tables_are_the_scaled_kernels_and_denominators():
    rng = random.Random(5)
    for _ in range(200):
        D = rng.randint(1, 60)
        P, Q, a, b = (rng.randint(-50, 50) for _ in range(4))
        x, y = Rat(P, D), Rat(Q, D)
        beta = [Rat(0), Rat(a, D), Rat(b, D)]
        for s, t in product((-1, 0, 1), repeat=2):
            kernel = _kernel(abs(s), abs(t), x, y, beta[1], beta[2])
            assert _link(s, t, P, Q, a, b, D) == 2 * D * D * kernel, (D, P, Q, a, b, s, t)
        for s in (-1, 0, 1):
            assert _b_entry(s, P, a, D) == 4 * D * D * _b_value(1, abs(s), x, beta), (D, P, a, s)


def _column_cells():
    cells = []
    for d in range(2, 8):
        for gamma in sample_valid_gammas(40 + d, d, 1):
            cells.append(pytest.param(gamma, range(3) if d >= 6 else range(4), id=f"seeded-d{d}"))
    for gamma in (G0_2, G0_3) + FAULT_GAMMAS + LIMIT_GAMMAS_4:
        cells.append(pytest.param(gamma, range(4), id=",".join(gamma.to_json())))
    return cells


@pytest.mark.parametrize("gamma, levels", _column_cells())
def test_column_agrees_with_the_per_sigma_oracle(gamma, levels, monkeypatch):
    """Every C_sigma of every R+/-:j column equals the per-sigma product
    form, the limits included, and the column takes its limits at exactly
    the (sigma, z) pairs where the oracle does.  Both reach a limit through
    the same ``_limit``, so the oracle reuses the column's value there (the
    limits themselves are checked against the differential matrices)."""
    calls = {"column": [], "oracle": []}
    source = "column"
    limit = racah._FoldedFamily._limit
    taken = {}

    def counted(family, sigma, z):
        calls[source].append((sigma, z))
        key = (id(family), sigma, z)
        if key not in taken:
            taken[key] = limit(family, sigma, z)
        return taken[key]

    monkeypatch.setattr(racah._FoldedFamily, "_limit", counted)
    for n in levels:
        for j, variant, op in _general_ops(n, gamma):
            family = op.terms[0].coef.family  # one family per op
            patterns = list(product((-1, 0, 1), repeat=family.m))
            for z in dict.fromkeys(map(family.z_of_nu, level_indices(n, gamma.d))):
                source = "column"
                column = family.column(z)
                source = "oracle"
                expected = [folded_value(family, sigma, z) for sigma in patterns]
                assert column == expected, (op.name, n, z)
    assert calls["column"] == calls["oracle"]
    if gamma in (G0_2, G0_3) + FAULT_GAMMAS + LIMIT_GAMMAS_4:
        assert calls["column"]


@pytest.mark.parametrize(
    "gamma", [G_3, sample_valid_gammas(55, 5, 1)[0]], ids=["G_3", "seeded-d5"]
)
def test_column_table_mutants_fail_the_racah_check(gamma, monkeypatch):
    ctx = ModuleContext(gamma.d, 2, gamma)
    assert verify_difference_action(ctx).status == "pass"
    link = racah._link

    def without_d(s, t, P, Q, a, b, D):
        # the (1,1) entry 2(Q+P+b)(Q+P+b+D) without its + D
        value = link(s, t, P, Q, a, b, D)
        return value - 2 * (Q + P + b) * D if s and t else value

    with monkeypatch.context() as patch:
        patch.setattr(racah, "_link", without_d)
        assert verify_difference_action(ctx).status == "fail"
    tables = racah._FoldedFamily._tables

    def perturbed(family, z):
        links, b_table = tables(family, z)
        b_table[0][2] += 1  # 4D²·b_1^1 at s_1 = +1
        return links, b_table

    with monkeypatch.context() as patch:
        patch.setattr(racah._FoldedFamily, "_tables", perturbed)
        assert verify_difference_action(ctx).status == "fail"
    assert verify_difference_action(ctx).status == "pass"


# -- the racah check as polynomial identities, against the matrix oracle -----


def _agreement_cells():
    cells = []
    for d, levels in ((2, range(4)), (3, range(3)), (4, (1, 2)), (5, (2,))):
        cells += [(gamma, n) for gamma in sample_valid_gammas(40 + d, d, 2) for n in levels]
    cells += [(gamma, n) for gamma in FAULT_GAMMAS for n in range(4)]
    return cells + [(gamma, n) for gamma in LIMIT_GAMMAS_4 for n in (1, 2)]


def _cell_id(value):
    return ",".join(value.to_json()) if isinstance(value, ParamVector) else str(value)


@pytest.mark.parametrize("gamma, n", _agreement_cells(), ids=_cell_id)
def test_identity_route_agrees_with_the_matrix_oracle(gamma, n):
    ctx = ModuleContext(gamma.d, n, gamma)
    result = verify_difference_action(ctx)
    expected = racah_matrix_oracle(ModuleContext(gamma.d, n, gamma))
    assert (result.status, result.details) == (expected.status, expected.details)
    assert ctx._inverse is None  # the identity expands nothing


def _with_wrong_entry(monkeypatch, name):
    """Make ``matrix_on_level`` of the operator ``name`` add 1 to entry (0, 0)."""
    original = RacahOp.matrix_on_level

    def wrong(op, n):
        matrix = original(op, n)
        if op.name != name:
            return matrix
        entries = [list(row) for row in matrix.entries]
        entries[0][0] += 1
        return ExactMatrix(entries)

    monkeypatch.setattr(RacahOp, "matrix_on_level", wrong)


@pytest.mark.parametrize(
    "gamma, name, label",
    [
        (G_2, "B12", "L12=B12"),
        (G_2, "R+:2", "M+:2=R+:2"),
        (G_3, "B134", "L134=B134"),
        (G_3, "R-:2", "M-:2=R-:2"),
        (G_3, "R-:3", "M-:3=R-:3"),
        (sample_valid_gammas(45, 4, 1)[0], "R+:4", "M+:4=R+:4"),
    ],
    ids=_cell_id,
)
def test_a_wrong_racah_entry_fails_with_the_oracle_details(gamma, name, label, monkeypatch):
    _with_wrong_entry(monkeypatch, name)
    ctx = ModuleContext(gamma.d, 2, gamma)
    result, expected = verify_difference_action(ctx), racah_matrix_oracle(ctx)
    assert (result.status, result.details) == ("fail", f"{label} matrices differ on level 2")
    assert (expected.status, expected.details) == (result.status, result.details)


def test_a_leaking_m_j_term_fails_racah(monkeypatch):
    # d_1 lowers the degree: the identity fails where the matrix route
    # cannot even form the matrix
    right = verify.m_operator

    def leaking(j, d, gamma, variant="plain"):
        op = right(j, d, gamma, variant)
        return op + DiffOp(d, {(1,) + (0,) * (d - 1): 1}) if (j, variant) == (2, "plus") else op

    monkeypatch.setattr(verify, "m_operator", leaking)
    ctx = ModuleContext(3, 2, G_3)
    result = verify_difference_action(ctx)
    assert (result.status, result.details) == ("fail", "L134=B134 matrices differ on level 2")
    with pytest.raises(ModuleInvarianceError):
        racah_matrix_oracle(ctx)


def test_a_degenerate_operator_with_a_wrong_entry_reads_degenerate(monkeypatch):
    # B123's matrix cannot be formed at gamma = 0, so nothing of it is
    # compared; the same wrong coefficient fails where the matrix exists
    class OffByOne:
        def __init__(self, coef):
            self.coef = coef

        def eval(self, nu):
            return self.coef.eval(nu) + 1

    right = verify.b123_operator

    def wrong(gamma):
        op = right(gamma)
        terms = [
            RacahTerm(t.shift, OffByOne(t.coef)) if not any(t.shift) else t for t in op.terms
        ]
        return RacahOp(op.d, op.name, terms)

    plain = verify_difference_action(ModuleContext(3, 2, G0_3))
    monkeypatch.setattr(verify, "b123_operator", wrong)
    wrong_at_g3 = verify_difference_action(ModuleContext(3, 2, G_3))
    assert (wrong_at_g3.status, wrong_at_g3.details) == ("fail", "L123=B123 matrices differ on level 2")
    ctx = ModuleContext(3, 2, G0_3)
    result = verify_difference_action(ctx)
    assert (result.status, result.details) == ("degenerate", plain.details)
    assert racah_matrix_oracle(ctx).details == plain.details


# beta shifted by 1/11, which no multiple of gamma's denominators (lcm 210)
# makes integral; run as a script, so that it runs under python -O too
SCALING_PROBE = """
from simplexalg import racah
from simplexalg.errors import InvariantViolation
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat

beta_maps = racah._beta_maps
racah._beta_maps = lambda g, n, d: [[b + Rat(1, 11) for b in beta] for beta in beta_maps(g, n, d)]
try:
    racah.predicted_m_action("plus", 2, 1, 3, ParamVector.parse("1/2,1/3,1/5,1/7"))
except InvariantViolation as exc:
    print("raises", exc)
else:
    print("returns")
finally:
    racah._beta_maps = beta_maps
"""


def test_non_integral_scaling_raises(capsys):
    beta_maps = racah._beta_maps
    exec(SCALING_PROBE, {})
    assert capsys.readouterr().out.startswith("raises 210·")
    assert racah._beta_maps is beta_maps


def test_non_integral_scaling_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCALING_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raises 210·")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), n=st.integers(0, 2))
def test_sampled_cells_have_exact_general_matrices(seed, d, n):
    rng = random.Random(seed)
    gamma = cli.sample_gamma(rng, d)
    while gamma.violations:  # draw again until valid
        gamma = cli.sample_gamma(rng, d)
    ctx = ModuleContext(d, n, gamma)
    for j, variant, op in _general_ops(n, gamma):
        assert op.matrix_on_level(n) == ctx.m_matrix(j, variant), (op.name, n)
    # racah never fails; it is degenerate only where a printed operator's
    # coefficient cannot be resolved
    (check,) = run_suites(d, n, gamma, ("racah",), "lenient").checks
    assert check.status in ("pass", "degenerate"), check.details
    if check.status == "degenerate":
        labels = {part.split(":")[0] for part in check.details.split("; ")}
        assert labels <= {"L12=B12", "L23=B23", "L134=B134", "L123=B123"}, check.details
