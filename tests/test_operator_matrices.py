"""Matrices of generator sums and products, added and multiplied from the
generator matrices, against the oracle that expands each from its own
differential operator."""

from itertools import combinations

import pytest

from oracles import operator_matrix_oracle, sample_valid_gammas
from simplexalg.diffops import f_formula
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat
from simplexalg.verify import ModuleContext, _f_index_choices

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
    for choice in _f_choices(d):
        out[("F",) + choice] = f_formula(ctx.generator_matrix, *choice, ctx.gamma)
    return out


@pytest.mark.parametrize("d, n, gamma", CELLS)
def test_generator_algebra_equals_expanded_operators(d, n, gamma):
    ctx = ModuleContext(d, n, gamma)
    expected = operator_matrix_oracle(ModuleContext(d, n, gamma), _f_choices(d))
    got = _library_matrices(ctx)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key
