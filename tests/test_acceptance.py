"""Acceptance suite.

Every criterion is an exact rational identity (zero tolerance throughout);
random parameter vectors are drawn from seeded samplers so runs are
reproducible.  Each criterion prints one PASS/FAIL line (visible with
``pytest -s`` or in the captured output).
"""

from math import comb

from oracles import oracle_moment, sample_valid_gammas, three_var_reference, two_var_reference
from simplexalg.cli import main as cli_main
from simplexalg.diffops import DiffOp, m_operator
from simplexalg.jacobi import jacobi_simplex, level_indices
from simplexalg.linalg import ExactMatrix
from simplexalg.params import ParamVector
from simplexalg.racah import (
    b12_operator,
    b123_operator,
    b134_operator,
    b23_operator,
    certificate_2d,
    predicted_m_action,
)
from simplexalg.scalar import Rat
from simplexalg.verify import (
    ModuleContext,
    eigenvalue,
    generator_rank,
    irreducibility_check,
    run_suites,
    verify_difference_action,
    verify_f_relation,
    verify_kd,
    verify_selfadjoint_orthogonal,
    verify_spectral,
)

GENERIC = {
    2: ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4)]),
    3: ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)]),
    4: ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7)]),
    5: ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7), Rat(1, 11)]),
}


def announce(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def spectral_levels(d: int) -> list:
    return list(range(1, 6)) if d <= 3 else list(range(1, 4))


def test_criterion_01_spectral():
    """M_j P_nu = lambda_j(nu) P_nu exactly, for every j and nu."""
    ok = True
    for d in (2, 3, 4, 5):
        for gamma in sample_valid_gammas(100 + d, d, 5):
            for n in spectral_levels(d):
                result = verify_spectral(ModuleContext(d, n, gamma))
                ok = ok and result.status == "pass"
    announce(1, "spectral equations", ok)


def test_criterion_02_kohno_drinfeld():
    """The pairwise commutativity relations as identically-zero operators."""
    ok = True
    for d in (2, 3, 4, 5):
        gammas = [GENERIC[d]] + sample_valid_gammas(200 + d, d, 1)
        for gamma in gammas:
            ok = ok and verify_kd(d, gamma).status == "pass"
    announce(2, "Kohno-Drinfeld relations", ok)


def _difference_cells():
    yield 2, range(1, 7), 300
    yield 3, range(1, 5), 310
    yield 4, range(1, 4), 320
    yield 5, range(1, 4), 330


def test_criterion_03_difference_equals_differential():
    """Exact matrix equality of differential and difference actions."""
    # the pinned hand-derived 2x2 case, from all three sides
    pinned = ExactMatrix([[Rat(-3, 2), Rat(1, 2)], [Rat(3, 2), Rat(-1, 2)]])
    ctx = ModuleContext(2, 1, ParamVector([0, 0, 0]))
    differential = ctx.generator_matrix(1, 2)
    difference = b12_operator(ParamVector([0, 0, 0])).matrix_on_level(1)
    general = predicted_m_action("minus", 2, 1, 2, ParamVector([0, 0, 0])).matrix_on_level(1)
    ok = differential == difference == general == pinned

    for d, levels, seed in _difference_cells():
        passes = 0
        draws = iter(sample_valid_gammas(seed, d, 12))
        while passes < 5:
            gamma = next(draws)
            results = [
                verify_difference_action(ModuleContext(d, n, gamma)) for n in levels
            ]
            if any(r.status == "degenerate" for r in results):
                continue  # degenerate draw: skip and resample, never silently pass
            ok = ok and all(r.status == "pass" for r in results)
            passes += 1
    announce(3, "difference = differential", ok)


def test_criterion_04_f_relation():
    """(1-g_k^2)(1-g_l^2) L_{i,j} = F as operators, on levels n <= 3 whose
    generator matrices show that each generator preserves the level, so that
    the identity holds among the matrices too."""
    ok = True
    for d, seed in ((3, 400), (4, 410)):
        gammas = sample_valid_gammas(seed, d, 5)
        # the divisibility edge: gamma_1 = 1 annihilates the right-hand side
        edge = ParamVector([1] + list(GENERIC[d].gamma[1:]))
        for gamma in gammas + [edge]:
            for n in (1, 2, 3):
                result = verify_f_relation(ModuleContext(d, n, gamma))
                ok = ok and result.status == "pass"
    announce(4, "fourth-order recovery relation", ok)


def test_criterion_05_generator_linear_algebra():
    """Exact rank C(d+1,2) of the generators and the dependence identity."""
    ok = True
    for d in (2, 3, 4, 5):
        for gamma in [GENERIC[d]] + sample_valid_gammas(500 + d, d, 1):
            ok = ok and generator_rank(d, gamma) == comb(d + 1, 2)
            dependence = (
                m_operator(1, d, gamma)
                - m_operator(2, d, gamma)
                - m_operator(2, d, gamma, "minus")
                + (m_operator(3, d, gamma, "minus") if d >= 3 else DiffOp.zero(d))
                - m_operator(d, d, gamma, "plus")
            )
            ok = ok and dependence.is_zero()
    announce(5, "generator rank and dependence", ok)


def test_criterion_06_eigenvalue_separation():
    """(lambda_1..lambda_d) is injective on every tested level."""
    ok = True
    for d in (2, 3, 4, 5):
        for gamma in sample_valid_gammas(100 + d, d, 5):
            for n in spectral_levels(d):
                tuples = [
                    tuple(eigenvalue(j, nu, gamma) for j in range(1, d + 1))
                    for nu in level_indices(n, d)
                ]
                ok = ok and len(set(tuples)) == len(tuples)
    announce(6, "eigenvalue separation", ok)


def test_criterion_07_orthogonality_selfadjointness():
    """Orthogonality and self-adjointness for gamma_j > -1, d <= 3, n <= 4,
    with the moment functional pinned to literal integration."""
    ok = True
    for m, gamma_ints in (((2, 1, 3), (1, 0, 2)), ((1, 2, 1, 2), (0, 1, 2, 1))):
        gamma = ParamVector(gamma_ints)
        from simplexalg.moments import simplex_moment

        ok = ok and simplex_moment(m, gamma) == oracle_moment(m, gamma_ints)
    for d, count, seed in ((2, 3, 700), (3, 2, 710)):
        for gamma in sample_valid_gammas(seed, d, count, positive=True):
            result = verify_selfadjoint_orthogonal(ModuleContext(d, 4, gamma))
            ok = ok and result.status == "pass"
    announce(7, "orthogonality and self-adjointness", ok)


def test_criterion_08_irreducibility():
    """Simple joint spectrum plus a connected nonzero pattern; 2D certificates."""
    ok = certificate_2d((1, 1), ParamVector([0, 0, 0])) == Rat(40, 3)
    for d, seed in ((2, 800), (3, 810), (4, 820)):
        for gamma in sample_valid_gammas(seed, d, 5):
            for n in (1, 2, 3):
                result = irreducibility_check(ModuleContext(d, n, gamma))
                ok = ok and result.status == "pass"
    announce(8, "irreducibility by the proof route", ok)


def test_criterion_09_reduction_consistency():
    """The general constructions reproduce the explicit low-dimensional
    formulas exactly: polynomials, and difference operators coefficient by
    coefficient over every in-range index with n <= 5."""
    ok = True
    for gamma in [GENERIC[2]] + sample_valid_gammas(900, 2, 1):
        for n in range(6):
            for nu in level_indices(n, 2):
                ok = ok and jacobi_simplex(nu, gamma) == two_var_reference(nu, gamma)
    for gamma in [GENERIC[3]] + sample_valid_gammas(910, 3, 1):
        for n in range(5):
            for nu in level_indices(n, 3):
                ok = ok and jacobi_simplex(nu, gamma) == three_var_reference(nu, gamma)

    def compare(explicit, variant, j, d, gamma):
        matched = True
        for n in range(6):
            pred = predicted_m_action(variant, j, n, d, gamma)
            shifts = {t.shift for t in explicit.terms} | {t.shift for t in pred.terms}
            for nu in level_indices(n, d):
                for shift in shifts:
                    matched = matched and explicit.coefficient(
                        shift, nu
                    ) == pred.coefficient(shift, nu)
        return matched

    gamma2 = GENERIC[2]
    ok = ok and compare(b12_operator(gamma2), "minus", 2, 2, gamma2)
    gamma3 = GENERIC[3]
    ok = ok and compare(b23_operator(gamma3), "minus", 3, 3, gamma3)
    ok = ok and compare(b134_operator(gamma3), "plus", 2, 3, gamma3)
    ok = ok and compare(b123_operator(gamma3), "minus", 2, 3, gamma3)
    announce(9, "general constructions reduce to the explicit formulas", ok)


def test_criterion_10_reproducibility(tmp_path):
    """Identical run configuration produces bit-identical reports."""
    suites = ("spectral", "racah", "separation", "relations")
    first = run_suites(2, 2, GENERIC[2], suites=suites)
    second = run_suites(2, 2, GENERIC[2], suites=suites)
    ok = first.json_bytes() == second.json_bytes()

    for label in ("a", "b"):
        code = cli_main(
            [
                "sweep", "--seed", "11", "--draws", "3", "--d", "2", "--n", "2",
                "--suite", "spectral,racah,separation",
                "--out", str(tmp_path / label),
            ]
        )
        ok = ok and code == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = ok and names_a == names_b
    for name in names_a:
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    announce(10, "bit-identical reports", ok)
