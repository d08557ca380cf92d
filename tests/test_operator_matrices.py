"""Matrices of generator sums and products, added and multiplied from the
generator matrices, against the oracle that expands each from its own
differential operator; and the F relation and commutation checks, which
report operator identities, against oracles that multiply the matrices."""

from itertools import combinations

import pytest

from oracles import (
    RingMatrix,
    f_relation_matrix_oracle,
    matrix_commutation_oracle,
    operator_matrix_oracle,
    sample_valid_gammas,
)
from simplexalg.diffops import f_formula
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat
from simplexalg.verify import (
    ModuleContext,
    _f_index_choices,
    verify_f_relation,
    verify_matrix_commutation,
)

SEEDED = [(d, n, 700 + d) for d in (2, 3, 4) for n in (1, 2, 3)] + [(5, 1, 705), (5, 2, 705)]

FIXED = {
    "escape": (2, (Rat(1, 2), Rat(-2, 3), Rat(2, 3))),
    "wrong-fail-a": (3, (Rat(5, 3), Rat(1, 2), Rat(-5, 4), Rat(-5, 4))),
    "wrong-fail-b": (3, (Rat(1, 2), Rat(1, 2), Rat(-1, 2), Rat(-1, 2))),
}

CELLS = [
    pytest.param(d, n, sample_valid_gammas(seed, d, 1)[0], id=f"seeded-d{d}-n{n}")
    for d, n, seed in SEEDED
] + [
    pytest.param(d, n, ParamVector(gamma), id=f"{name}-n{n}")
    for name, (d, gamma) in FIXED.items()
    for n in (1, 2)
]


def _f_choices(d: int) -> list:
    # F needs four distinct indices, so d = 2 has none
    return _f_index_choices(d) if d >= 3 else []


def _library_matrices(ctx) -> dict:
    """The same keys as the oracle, by the library's route."""
    d = ctx.d
    out = {("L",): ctx.generator_sum(combinations(range(1, d + 2), 2))}
    for j in range(1, d + 1):
        for variant in ("plain", "plus", "minus"):
            out[("M", j, variant)] = ctx.m_matrix(j, variant)
    if d >= 3:
        out[("hat", 1)] = ctx.generator_matrix(1, 2)
        for a in (1, 2):
            out[("hat", a + 1)] = ctx.generator_sum((a, j) for j in range(3, d + 2))
    generator = lambda a, b: RingMatrix.of(ctx.generator_matrix(a, b))
    for choice in _f_choices(d):
        out[("F",) + choice] = f_formula(generator, *choice, ctx.gamma)
    return out


@pytest.mark.parametrize("d, n, gamma", CELLS)
def test_generator_algebra_equals_expanded_operators(d, n, gamma):
    ctx = ModuleContext(d, n, gamma)
    expected = operator_matrix_oracle(ModuleContext(d, n, gamma), _f_choices(d))
    got = _library_matrices(ctx)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


# gamma_1 = 1, criterion 04's edge: the F factor of the choice (2, 3, 1, d+1) is 0
EDGE = [Rat(1), Rat(1, 3), Rat(1, 4), Rat(1, 5), Rat(1, 7)]

AGREEMENT_CELLS = [
    pytest.param(d, n, sample_valid_gammas(700 + d, d, 1)[0], id=f"seeded-d{d}-n{n}")
    for d in (3, 4)
    for n in (1, 2)
] + [
    pytest.param(d, n, ParamVector(EDGE[: d + 1]), id=f"factor-zero-d{d}-n{n}")
    for d in (3, 4)
    for n in (1, 2)
] + [
    pytest.param(FIXED[name][0], n, ParamVector(FIXED[name][1]), id=f"{name}-n{n}")
    for name in ("wrong-fail-a", "wrong-fail-b")
    for n in (1, 2)
]


@pytest.mark.parametrize("d, n, gamma", AGREEMENT_CELLS)
def test_matrix_oracles_pass_where_the_operator_verdicts_pass(d, n, gamma):
    ctx = ModuleContext(d, n, gamma)
    for check, oracle in (
        (verify_f_relation, f_relation_matrix_oracle),
        (verify_matrix_commutation, matrix_commutation_oracle),
    ):
        result = check(ctx)
        assert result.status == "pass", result.details
        assert oracle(ctx).to_json() == result.to_json()
