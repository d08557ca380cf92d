import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    dense_expand_oracle,
    generator_rank_oracle,
    orbit_closure_dimensions,
    relations_oracle,
    sample_valid_gammas,
    selfadjoint_orthogonal_oracle,
)
from simplexalg import cli, diffops, verify
from simplexalg.diffops import DiffOp, l_operator
from simplexalg.errors import InvalidParameter
from simplexalg.jacobi import level_indices
from simplexalg.linalg import ExactMatrix
from simplexalg.params import ParamVector, check_gamma
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import (
    SUITES,
    ModuleContext,
    ModuleInvarianceError,
    eigenvalue,
    generator_rank,
    irreducibility_check,
    reachable_counts,
    run_suites,
    submodule_diagnostic,
    verify_difference_action,
    verify_f_relation,
    verify_kd,
    verify_relations,
    verify_selfadjoint_orthogonal,
    verify_separation,
    verify_spectral,
    _symmetry_defect,
)

G0_2 = ParamVector([0, 0, 0])
G_2 = ParamVector([Rat(1, 2), Rat(1, 2), Rat(1, 2)])
G_3 = ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5)])


@pytest.fixture(scope="module")
def ctx_2():
    return ModuleContext(2, 1, G0_2)


@pytest.fixture(scope="module")
def ctx_3():
    return ModuleContext(3, 2, G_3)


def test_pinned_matrix_and_images(ctx_2):
    matrix = ctx_2.generator_matrix(1, 2)
    assert matrix == ExactMatrix([[Rat(-3, 2), Rat(1, 2)], [Rat(3, 2), Rat(-1, 2)]])
    # images: L P_(1,0) = -3/2 P_(1,0) + 3/2 P_(0,1); L P_(0,1) = 1/2 P_(1,0) - 1/2 P_(0,1)
    assert ctx_2.level == [(1, 0), (0, 1)]
    op = l_operator(1, 2, 2, G0_2)
    image = op.apply(ctx_2.polys[(1, 0)])
    expected = ctx_2.polys[(1, 0)].scale(Rat(-3, 2)) + ctx_2.polys[(0, 1)].scale(Rat(3, 2))
    assert image == expected


def test_spectrum_of_the_pinned_matrix(ctx_2):
    # char poly of [[-3/2,1/2],[3/2,-1/2]] is x(x+2): eigenvalues {0, -2}
    matrix = ctx_2.generator_matrix(1, 2)
    trace = matrix[(0, 0)] + matrix[(1, 1)]
    det = matrix[(0, 0)] * matrix[(1, 1)] - matrix[(0, 1)] * matrix[(1, 0)]
    assert (trace, det) == (-2, 0)


def test_matrix_of_rejects_degree_escape(ctx_2):
    multiply_by_x1 = DiffOp(2, {(0, 0): MultiPoly.variable(2, 0)})
    with pytest.raises(ModuleInvarianceError):
        ctx_2.matrix_of(multiply_by_x1)


def test_matrix_of_rejects_lower_degree_leakage():
    ctx = ModuleContext(2, 1, G0_2)
    # d_1 maps P_nu to constants: leakage into degree 0
    op = DiffOp(2, {(1, 0): MultiPoly.const(2, 1)})
    with pytest.raises(ModuleInvarianceError) as err:
        ctx.matrix_of(op)
    assert str(err.value) == "image of P_(1, 0) has coefficient 3 on lower-degree index (0, 0)"
    # the dense-inverse expansion finds the same first leak
    lower = len(ctx.graded) - len(ctx.level)
    leaks = [
        (nu, ctx.graded[i], coeffs[i])
        for nu in ctx.level
        for coeffs in [dense_expand_oracle(ctx, op.apply(ctx.polys[nu]))]
        for i in range(lower)
        if coeffs[i] != 0
    ]
    assert leaks[0] == ((1, 0), (0, 0), 3)


def test_eigenvalue_formulas():
    assert eigenvalue(1, (1, 1), G0_2) == -8
    assert eigenvalue(2, (0, 0, 1), ParamVector([0, 0, 0, 0])) == -3
    assert eigenvalue(3, (0, 0, 1), ParamVector([0, 0, 0, 0])) == -2
    assert eigenvalue(1, (0, 0), G0_2) == 0


def test_m_matrices_are_diagonal(ctx_3):
    for j in range(1, 4):
        matrix = ctx_3.m_matrix(j)
        for a, nu in enumerate(ctx_3.level):
            for b in range(len(ctx_3.level)):
                expected = eigenvalue(j, nu, G_3) if a == b else 0
                assert matrix[(a, b)] == expected


def test_verify_spectral_and_separation(ctx_3):
    assert verify_spectral(ctx_3).status == "pass"
    assert verify_separation(ctx_3).status == "pass"


def test_separation_pinned_cells():
    # 4 distinct pairs at d=2 n=3; 6 distinct triples at d=3 n=2; n=0 vacuous
    assert verify_separation(ModuleContext(2, 3, G_2)).status == "pass"
    assert len(level_indices(3, 2)) == 4
    assert verify_separation(ModuleContext(3, 2, ParamVector([0, 0, 0, 0]))).status == "pass"
    assert len(level_indices(2, 3)) == 6
    assert verify_separation(ModuleContext(2, 0, G_2)).status == "pass"


def test_irreducibility_trivial_level():
    assert irreducibility_check(ModuleContext(2, 0, G_2)).status == "pass"


def test_verify_difference_action(ctx_2, ctx_3):
    assert verify_difference_action(ctx_2).status == "pass"
    assert verify_difference_action(ctx_3).status == "pass"


def test_difference_action_degenerate_recorded():
    # gamma = 0 at d = 3 makes the explicit nine-term operator degenerate
    ctx = ModuleContext(3, 2, ParamVector([0, 0, 0, 0]))
    result = verify_difference_action(ctx)
    assert result.status == "degenerate"
    assert "vanishes" in result.details


def test_verify_f_relation(ctx_3):
    assert verify_f_relation(ctx_3).status == "pass"
    ctx = ModuleContext(2, 2, G_2)
    assert verify_f_relation(ctx).status == "pass"  # vacuous below d=3


def test_f_relation_divisibility_probe_at_gamma_one():
    gamma = ParamVector([1, Rat(1, 3), Rat(1, 4), Rat(1, 5)])
    ctx = ModuleContext(3, 1, gamma)
    assert verify_f_relation(ctx).status == "pass"


def test_verify_kd():
    assert verify_kd(2, G0_2).status == "pass"
    assert verify_kd(3, G_3).status == "pass"


def test_matrix_level_commutation(ctx_3):
    from simplexalg.verify import verify_matrix_commutation

    assert verify_matrix_commutation(ctx_3).status == "pass"


def test_orthogonality_pass_and_degenerate(ctx_3):
    assert verify_selfadjoint_orthogonal(ctx_3).status == "pass"
    negative = ModuleContext(2, 1, ParamVector([Rat(-3, 2), Rat(1, 2), Rat(1, 2)]))
    assert verify_selfadjoint_orthogonal(negative).status == "degenerate"


def _half_integer_lattice(d: int, count: int, seed: int) -> list:
    """A seeded sample of the valid gammas with entries in {-3/2, -1, ..., 3/2}."""
    values = [Rat(k, 2) for k in range(-3, 4)]
    valid = [g for g in map(ParamVector, product(values, repeat=d + 1)) if not g.violations]
    return random.Random(seed).sample(valid, count)


PRINTED_LABELS = {"L12=B12", "L23=B23", "L134=B134", "L123=B123"}


def test_half_integer_lattice_has_no_failed_check():
    """The paper's theorems as a property of every suite on integer and
    half-integer parameters, where the Racah denominators vanish most often:
    no check fails; orthogonality is degenerate exactly when its integral
    form does not exist (some gamma_j <= -1); racah is degenerate only where
    a printed operator's coefficient cannot be resolved."""
    racah_degenerate = 0
    for d, count in ((2, 30), (3, 20)):
        for gamma in _half_integer_lattice(d, count, seed=d):
            for n in range(3):
                for check in run_suites(d, n, gamma, SUITES, "lenient").checks:
                    where = (d, n, gamma.to_json(), check.name, check.details)
                    if check.name == "orthogonality":
                        below = any(g <= -1 for g in gamma.gamma)
                        assert check.status == ("degenerate" if below else "pass"), where
                    elif check.name == "racah" and check.status == "degenerate":
                        labels = {part.split(":")[0] for part in check.details.split("; ")}
                        assert labels <= PRINTED_LABELS, where
                        racah_degenerate += 1
                    else:
                        assert check.status == "pass", where
    assert racah_degenerate


def _generators(d, gamma):
    return [l_operator(i, j, d, gamma) for i, j in combinations(range(1, d + 2), 2)]


@pytest.mark.parametrize(
    "d, n, seed",
    [
        (2, 1, 900), (2, 2, 901), (2, 3, 902),
        (3, 1, 910), (3, 2, 911), (3, 3, 912),
        (4, 1, 920), (4, 2, 921),
    ],
)
def test_orthogonality_agrees_with_inner_product_oracle(d, n, seed):
    gamma = sample_valid_gammas(seed, d, 1, positive=True)[0]
    ctx = ModuleContext(d, n, gamma)
    result = verify_selfadjoint_orthogonal(ctx)
    assert result.status == "pass"
    assert result == selfadjoint_orthogonal_oracle(ctx, _generators(d, gamma))


def test_gram_check_and_oracle_reject_a_non_self_adjoint_operator(monkeypatch):
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    g_face = ParamVector([Rat(1, 2), Rat(1, 3), 0])
    g_axis = ParamVector([0, Rat(1, 3), 0])
    cases = [
        # x_1 d_1 preserves degree but is not symmetric for the simplex weight
        (G_2, DiffOp(2, {(1, 0): x1}), "the d_1 coefficient breaks the divergence form"),
        # divergence form, with flux only through the face |x| = 1
        (
            g_face,
            DiffOp(2, {(2, 0): x1, (1, 0): 1 + g_face[1]}),
            "column 1 of A does not vanish on |x| = 1",
        ),
        # divergence form at gamma_1 = gamma_3 = 0, with flux only through x_1 = 0
        (g_axis, DiffOp(2, {(2, 0): x2}), "A_(1,1) does not vanish on x_1 = 0"),
    ]
    for gamma, extra, defect in cases:
        ctx = ModuleContext(2, 2, gamma)
        generators = _generators(2, gamma)
        assert [_symmetry_defect(op, gamma) for op in generators] == [None] * 3
        mutant = generators[0] + extra
        assert _symmetry_defect(mutant, gamma) == defect
        assert selfadjoint_orthogonal_oracle(ctx, generators + [mutant]).status == "fail"

        def patched(i, j, d, g, mutant=mutant):
            return mutant if (i, j) == (1, 2) else l_operator(i, j, d, g)

        monkeypatch.setattr(diffops, "l_operator", patched)
        result = verify_selfadjoint_orthogonal(ctx)
        assert (result.status, result.details) == (
            "fail",
            f"L_(1,2) is not symmetric for the weight: {defect}",
        )


def test_irreducibility_and_orbits(ctx_3):
    ctx = ModuleContext(2, 3, G_2)
    dims = orbit_closure_dimensions(list(ctx.all_generator_matrices().values()), len(ctx.level))
    assert dims == [len(ctx.level)] * len(ctx.level)
    assert irreducibility_check(ctx).status == "pass"
    assert irreducibility_check(ctx_3).status == "pass"


@pytest.mark.parametrize(
    "d, n, seed",
    [(2, 1, 920), (2, 2, 921), (2, 3, 922), (3, 1, 930), (3, 2, 931), (3, 3, 932),
     (4, 1, 940), (4, 2, 941), (4, 3, 942)],
)
def test_reachability_agrees_with_orbit_closure_oracle(d, n, seed):
    gamma = sample_valid_gammas(seed, d, 1)[0]
    ctx = ModuleContext(d, n, gamma)
    matrices = list(ctx.all_generator_matrices().values())
    size = len(ctx.level)
    assert reachable_counts(matrices, size) == orbit_closure_dimensions(matrices, size)


def test_reachability_and_oracle_agree_on_a_reducible_set():
    # distinct diagonal entries make every invariant subspace a span of basis
    # vectors; the block-triangular matrix keeps span{e_0, e_1} invariant
    diagonal = ExactMatrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    block = ExactMatrix([[1, 2, 3, 0], [4, 5, 0, 6], [0, 0, 7, 8], [0, 0, 9, 1]])
    matrices = [diagonal, block]
    assert reachable_counts(matrices, 4) == [2, 2, 4, 4]
    assert orbit_closure_dimensions(matrices, 4) == [2, 2, 4, 4]


def _doubled_generator(pair):
    """``diffops.l_operator`` with L_pair doubled: every level stays invariant,
    and every M_j whose pairs include it loses its eigenvalues."""
    right = diffops.l_operator

    def doubled(i, j, d, gamma):
        op = right(i, j, d, gamma)
        return op.scale(2) if (min(i, j), max(i, j)) == pair else op

    return doubled


def test_irreducibility_check_fails_without_its_premise(monkeypatch):
    # the premise is the eigen verdict of the level, which spectral shares,
    # then the simple joint spectrum; a fresh context each time, since the
    # eigen verdicts are cached per context.  At a valid gamma the spectrum
    # is always simple, so its failure is substituted.
    def shared(indices, gamma):
        return f"indices {indices[0]} and {indices[1]} share eigenvalues"

    monkeypatch.setattr(verify, "_shared_spectrum", shared)
    result = irreducibility_check(ModuleContext(2, 2, G_2))
    assert (result.status, result.details) == (
        "fail", "premise fails: indices (2, 0) and (1, 1) share eigenvalues"
    )
    # a mutant put into the generator table reaches the premise through M_1
    monkeypatch.setattr(diffops, "l_operator", _doubled_generator((2, 3)))
    diffops.generator_table.cache_clear()  # built before the patch above
    ctx = ModuleContext(2, 2, G_2)
    result = irreducibility_check(ctx)
    defect = "M_1 P_(1, 1) != lambda_1((1, 1)) P_(1, 1)"
    assert (result.status, result.details) == ("fail", f"premise fails: {defect}")
    assert verify_spectral(ctx).details == defect


def test_irreducibility_premise_failure_is_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(diffops, "l_operator", _doubled_generator((2, 3)))
    code = cli.main(["verify", "--gamma", "1/2,1/3,1/5", "--n", "2", "--suite", "irreducibility"])
    assert code == cli.EXIT_FAIL
    assert "premise fails: M_1 P_(1, 1) != lambda_1((1, 1)) P_(1, 1)" in capsys.readouterr().out


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    n=st.integers(0, 4),
    fractions=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=5, max_size=5
    ),
)
def test_jm_eigenvalues_separate_every_level(d, n, fractions):
    # the premise of the irreducibility check, for gammas drawn like the CLI's
    gamma = [Rat(num, den) for num, den in fractions[: d + 1]]
    assume(not check_gamma(gamma, d))
    tuples = {
        tuple(eigenvalue(j, nu, gamma) for j in range(1, d + 1)) for nu in level_indices(n, d)
    }
    assert len(tuples) == len(level_indices(n, d))


def test_submodule_diagnostic(ctx_3):
    assert submodule_diagnostic(ctx_3).status == "pass"
    assert submodule_diagnostic(ModuleContext(4, 2, ParamVector(
        [Rat(1, 2), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7)]
    ))).status == "pass"


def test_submodule_diagnostic_names_the_leaking_operator(monkeypatch):
    original = ModuleContext.generator_matrix

    def leaking(pair):
        # a dense generator matrix at d = 3 leaks out of every proper block
        def generator_matrix(ctx, i, j):
            matrix = original(ctx, i, j)
            if ctx.d == 3 and (i, j) == pair:
                return ExactMatrix([[1] * matrix.cols for _ in range(matrix.rows)])
            return matrix

        return generator_matrix

    for pair, details in (
        ((2, 3), "L_(2,3) leaks out of the block nu_1=0"),
        ((1, 2), "hat operator leaks out of the nu_3..nu_d=0 block"),
    ):
        monkeypatch.setattr(ModuleContext, "generator_matrix", leaking(pair))
        result = submodule_diagnostic(ModuleContext(3, 2, G_3))
        assert (result.status, result.details) == ("fail", details)


def test_verify_relations(ctx_3):
    assert verify_relations(ctx_3).status == "pass"


RELATION_CELLS = [
    (d, n, gamma)
    for d, n in ((2, 2), (3, 2), (4, 1))
    for gamma in sample_valid_gammas(80 + d, d, 3)
] + [
    (2, 2, ParamVector([Rat(1, 2), Rat(-2, 3), Rat(2, 3)])),
    (3, 2, ParamVector([Rat(5, 3), Rat(1, 2), Rat(-5, 4), Rat(-5, 4)])),
    (3, 2, ParamVector([Rat(1, 2), Rat(1, 2), Rat(-1, 2), Rat(-1, 2)])),
]


@pytest.mark.parametrize("d,n,gamma", RELATION_CELLS)
def test_relations_agree_with_operator_oracle(d, n, gamma):
    ctx = ModuleContext(d, n, gamma)
    got, expected = verify_relations(ctx), relations_oracle(ctx)
    assert (got.status, got.details) == (expected.status, expected.details)
    assert got.status == "pass"


def test_relations_catch_swapped_cycle_directions(monkeypatch):
    cycle = diffops._cycle
    monkeypatch.setattr(diffops, "_cycle", lambda index, d, power: cycle(index, d, -power))
    for d in (2, 3, 4):
        ctx = ModuleContext(d, 1, sample_valid_gammas(7, d, 1)[0])
        for result in (verify_relations(ctx), relations_oracle(ctx)):
            assert (result.status, result.details) == ("fail", "recovery of L_(1,2) fails")


def test_relations_catch_a_dependent_generator_family(monkeypatch):
    def dependent(i, j, d, gamma):
        if (min(i, j), max(i, j)) == (1, 2):
            return l_operator(1, 3, d, gamma) + l_operator(2, 3, d, gamma)
        return l_operator(i, j, d, gamma)

    monkeypatch.setattr(diffops, "l_operator", dependent)
    monkeypatch.setattr(oracles, "l_operator", dependent)
    for d in (2, 3, 4):
        gamma = sample_valid_gammas(11, d, 1)[0]
        size = comb(d + 1, 2)
        assert generator_rank(d, gamma) == generator_rank_oracle(d, gamma) == size - 1
        result = verify_relations(ModuleContext(d, 1, gamma))
        assert (result.status, result.details) == (
            "fail", f"generator rank {size - 1} != C(d+1,2) = {size}"
        )


def test_relations_build_no_operator_sum_and_no_matrix(monkeypatch):
    contexts = [ModuleContext(d, 2, sample_valid_gammas(5, d, 1)[0]) for d in (2, 3, 4)]

    def refuse(*args, **kwargs):
        raise AssertionError("the relations suite needs no operator sum or matrix")

    for owner in (diffops, verify):
        monkeypatch.setattr(owner, "m_operator", refuse)
        monkeypatch.setattr(owner, "pair_sum", refuse)
    monkeypatch.setattr(ModuleContext, "matrix_of", refuse)
    monkeypatch.setattr(DiffOp, "__add__", refuse)
    for ctx in contexts:
        assert verify_relations(ctx).status == "pass"


def test_gram_twisted_symmetry(ctx_3):
    from simplexalg.moments import inner_product

    gram = [inner_product(ctx_3.polys[nu], ctx_3.polys[nu], G_3) for nu in ctx_3.level]
    matrix = ctx_3.generator_matrix(1, 3)
    size = len(ctx_3.level)
    for r in range(size):
        for c in range(size):
            assert gram[r] * matrix[(r, c)] == matrix[(c, r)] * gram[c]


def test_run_suites_report_and_json():
    report = run_suites(2, 2, G_2)
    assert report.ok
    payload = report.to_json()
    assert set(payload) == {"d", "n", "gamma", "checks"}
    assert all(set(c) == {"name", "status", "details"} for c in payload["checks"])
    # byte-stable across repeated serialization
    assert report.json_bytes() == report.json_bytes()


def test_run_suites_rejects_invalid_gamma():
    with pytest.raises(InvalidParameter):
        run_suites(2, 1, [-1, 0, 0])


def test_run_suites_unknown_suite():
    with pytest.raises(ValueError):
        run_suites(2, 1, G_2, suites=["nonsense"])


def test_reports_are_reproducible():
    a = run_suites(2, 2, G_2, suites=["spectral", "separation", "relations"])
    b = run_suites(2, 2, G_2, suites=["spectral", "separation", "relations"])
    assert a.json_bytes() == b.json_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_first_d6_racah_cell_passes(n):
    # the j = 5 general family, evaluated from its product form
    gamma = ParamVector([Rat(1, p) for p in (2, 3, 5, 7, 11, 13, 17)])
    result = verify_difference_action(ModuleContext(6, n, gamma))
    assert result.status == "pass", result.details


def _counting(monkeypatch, owner, name, key):
    """Replace owner.name by a wrapper that counts its calls by ``key(*args)``."""
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_operator_identities_run_once_per_gamma(monkeypatch, fresh_caches):
    # the F operators, kd's commutators and the generator symmetry depend on
    # (d, gamma) alone
    f_calls = _counting(monkeypatch, verify, "f_combination", lambda *args: args[:5])
    kd_calls = _counting(monkeypatch, verify, "commutator", lambda a, b: a.dim)
    symmetry_calls = _counting(
        monkeypatch, verify, "_symmetry_defect", lambda op, gamma: (op.dim, repr(op))
    )
    cells = {3: (1, 2, 3), 4: (1, 2)}
    gammas = {d: sample_valid_gammas(60 + d, d, 1, positive=True)[0] for d in cells}
    for d, levels in cells.items():
        for n in levels:
            report = run_suites(d, n, gammas[d], ("f-relation", "kd", "orthogonality"))
            assert [c.status for c in report.checks] == ["pass"] * 4
    assert f_calls == {
        (*choice, d): 1 for d in cells for choice in verify._f_index_choices(d)
    }
    assert set(symmetry_calls.values()) == {1}
    assert Counter(d for d, _ in symmetry_calls) == {d: comb(d + 1, 2) for d in cells}
    # one more uncached kd pass per d adds as many commutators as all levels did
    all_levels = dict(kd_calls)
    for d in cells:
        verify._kd_verdict.__wrapped__(d, gammas[d])
    assert {d: kd_calls[d] - all_levels[d] for d in cells} == all_levels


def test_a_second_run_on_one_gamma_builds_no_generator(monkeypatch, fresh_caches):
    # every operator of every suite is read from the generator table of
    # (d, gamma), so only the first run builds generators, each one once
    calls = _counting(
        monkeypatch, diffops, "l_operator", lambda i, j, d, gamma: (i, j, d, gamma.gamma)
    )
    gamma = sample_valid_gammas(67, 3, 1, positive=True)[0]
    assert run_suites(3, 1, gamma, SUITES, "strict").ok
    assert set(calls.values()) == {1}
    assert {(i, j) for i, j, d, g in calls if d == 3} == set(combinations(range(1, 5), 2))
    first = dict(calls)
    for n in (1, 2):
        assert run_suites(3, n, gamma, SUITES, "strict").ok
        assert calls == first


def test_wrong_f_operator_fails_alike_on_every_level(monkeypatch, fresh_caches):
    # wrong only for the second index choice: the first choice still passes,
    # and every level names the second
    right = verify.f_combination

    def wrong(i, j, k, l, d, gamma):
        if (i, j, k, l) == (1, d + 1, 2, 3):
            return l_operator(i, j, d, gamma)
        return right(i, j, k, l, d, gamma)

    monkeypatch.setattr(verify, "f_combination", wrong)
    gamma = sample_valid_gammas(61, 3, 1, positive=True)[0]
    for n in (1, 2, 3):
        result = verify_f_relation(ModuleContext(3, n, gamma))
        assert (result.status, result.details) == (
            "fail", "operator identity fails for (i,j,k,l)=(1, 4, 2, 3)"
        )


@pytest.mark.parametrize("d", [3, 4])
def test_f_factor_off_by_a_thousandth_fails(monkeypatch, d):
    # F times 1001/1000 on the left-hand side: the common-denominator
    # comparison sees a relative error of 1/1000
    right = verify.f_combination
    gamma = G_3 if d == 3 else sample_valid_gammas(66, 4, 1)[0]
    assert verify._f_verdict.__wrapped__(d, gamma)[0] == "pass"

    def off(i, j, k, l, dim, params):
        return right(i, j, k, l, dim, params).scale(Rat(1001, 1000))

    monkeypatch.setattr(verify, "f_combination", off)
    assert verify._f_verdict.__wrapped__(d, gamma) == (
        "fail", f"operator identity fails for (i,j,k,l)={(2, 3, 1, d + 1)}"
    )


def test_kd_operator_mutant_fails_kd_and_kd_matrix_on_every_level(monkeypatch):
    # 2 L_{1,2} keeps every level invariant but breaks [L_{1,3}, L_{1,2}+L_{2,3}] = 0;
    # put into the generator table, it reaches the operator verdicts and the
    # matrices the oracle multiplies alike
    monkeypatch.setattr(diffops, "l_operator", _doubled_generator((1, 2)))
    gamma = sample_valid_gammas(65, 3, 1, positive=True)[0]
    kd_details = "[L_(1, 3), L_(1, 2)+L_(3, 2)] != 0"
    for n in (1, 2, 3):
        report = run_suites(3, n, gamma, ("kd",))
        assert [(c.name, c.status, c.details) for c in report.checks] == [
            ("kd", "fail", kd_details),
            ("kd-matrix", "fail", f"operator identity fails: {kd_details}"),
        ]
        assert oracles.matrix_commutation_oracle(ModuleContext(3, n, gamma)).status == "fail"


def test_kd_results_are_fresh_objects():
    gamma = sample_valid_gammas(62, 3, 1)[0]
    first, second = verify_kd(3, gamma), verify_kd(3, gamma)
    assert first is not second
    assert (first.name, first.status, first.details) == (second.name, second.status, second.details)
    first.millis = 123
    assert verify_kd(3, gamma).millis == 0


def test_caches_stay_within_their_sizes(monkeypatch, fresh_caches):
    # cheap stand-ins so that many gammas fit in the test: a closed-form F,
    # and kd and the symmetry check at d = 2
    def f_stand_in(i, j, k, l, d, gamma):
        return l_operator(i, j, d, gamma).scale((1 - gamma[k] ** 2) * (1 - gamma[l] ** 2))

    monkeypatch.setattr(verify, "f_combination", f_stand_in)
    size = verify.OPERATOR_CACHE_SIZE
    for gamma in sample_valid_gammas(63, 3, size + 10):
        assert verify_f_relation(ModuleContext(3, 0, gamma)).status == "pass"
    for gamma in sample_valid_gammas(64, 2, size + 10, positive=True):
        assert verify_kd(2, gamma).status == "pass"
        assert verify_selfadjoint_orthogonal(ModuleContext(2, 0, gamma)).status == "pass"
    for cache in (
        diffops.generator_table, verify._f_verdict, verify._kd_verdict, verify._asymmetric_generator
    ):
        info = cache.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses > size


@pytest.mark.parametrize("d, count", [(2, 3), (3, 3), (4, 2), (5, 1)])
def test_kd_verdict_agrees_with_relations_oracle(d, count):
    for gamma in sample_valid_gammas(70 + d, d, count):
        assert verify_kd(d, gamma).status == "pass"
        assert verify._kd_verdict(d, gamma) == oracles.kd_relations_oracle(d, gamma)


def _kd_mutants(d):
    """(index pair, change) for three wrong generators: one that only breaks
    a triple relation, and two that break a disjoint-pair relation from d = 3."""
    x1, x2 = MultiPoly.variable(d, 0), MultiPoly.variable(d, 1)
    d1, d11 = (1,) + (0,) * (d - 1), (2,) + (0,) * (d - 1)
    return [
        ((1, 2), lambda op: op.scale(2)),
        ((2, 3), lambda op: op + DiffOp(d, {d1: x1})),
        ((1, d + 1), lambda op: op + DiffOp(d, {d11: x2})),
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kd_verdict_and_relations_oracle_reject_the_same_mutants(monkeypatch, d):
    gamma = sample_valid_gammas(70 + d, d, 1)[0]
    for pair, change in _kd_mutants(d):

        def mutant(i, j, dim, params, pair=pair, change=change):
            op = l_operator(i, j, dim, params)
            return change(op) if (min(i, j), max(i, j)) == pair else op

        monkeypatch.setattr(diffops, "l_operator", mutant)
        monkeypatch.setattr(oracles, "l_operator", mutant)
        diffops.generator_table.cache_clear()  # the table holds the last mutant
        verdict = verify._kd_verdict.__wrapped__(d, gamma)
        assert verdict[0] == "fail"
        assert verdict == oracles.kd_relations_oracle(d, gamma)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kd_checks_only_the_generating_relations(monkeypatch, d):
    # disjoint pairs {a,b}, {c,e}, and two of the three forms of each triple;
    # no Jucys-Murphy sum is built
    def refuse(*args, **kwargs):
        raise AssertionError("M_j built by the kd check")

    monkeypatch.setattr(verify, "m_operator", refuse)
    calls = _counting(monkeypatch, verify, "commutator", lambda a, b: a.dim)
    gamma = sample_valid_gammas(70 + d, d, 1)[0]
    assert verify._kd_verdict.__wrapped__(d, gamma)[0] == "pass"
    assert calls[d] == comb(d + 1, 2) * comb(d - 1, 2) // 2 + 2 * comb(d + 1, 3)


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2)])
def test_a_wrong_jucys_murphy_operator_fails_spectral_and_orthogonality(monkeypatch, d, n):
    right = verify.m_operator

    def wrong(j, d, gamma, variant="plain"):
        op = right(j, d, gamma, variant)
        return op.scale(2) if j == 2 else op

    monkeypatch.setattr(verify, "m_operator", wrong)
    gamma = sample_valid_gammas(80 + d, d, 1, positive=True)[0]
    report = run_suites(d, n, gamma, ("spectral", "orthogonality"))
    assert [c.status for c in report.checks] == ["fail", "fail"]
    # lambda_2(mu) = 0 only where mu_2 = ... = mu_d = 0, so doubling M_2 first
    # shows after (n, 0, ...) on level n, and on level 1 for orthogonality,
    # which names the lowest failing level
    top, low = (n - 1, 1) + (0,) * (d - 2), (0, 1) + (0,) * (d - 2)
    assert [c.details for c in report.checks] == [
        f"M_2 P_{mu} != lambda_2({mu}) P_{mu}" for mu in (top, low)
    ]


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (4, 1)])
def test_spectral_and_orthogonality_apply_each_m_j_once_per_graded_index(monkeypatch, d, n):
    applied = Counter()
    right = verify.m_operator

    def counted(j, d, gamma, variant="plain"):
        op = right(j, d, gamma, variant)

        class Counted:
            def apply(self, poly):
                applied[(j, poly)] += 1
                return op.apply(poly)

        return Counted()

    monkeypatch.setattr(verify, "m_operator", counted)
    gamma = sample_valid_gammas(90 + d, d, 1, positive=True)[0]
    report = run_suites(d, n, gamma, ("spectral", "orthogonality"))
    assert report.ok
    polys = ModuleContext(d, n, gamma).polys
    assert applied == {(j, polys[mu]): 1 for j in range(1, d + 1) for mu in polys}
