"""Independent reference computations shared by the test modules.

Everything here deliberately takes a different route from the library code it
checks: the product-formula references expand through powers of t instead of
powers of (1-t)/2, the moment oracle integrates monomials literally by
iterated antiderivatives instead of using the closed Pochhammer form, the
self-adjointness oracle compares polynomial inner products instead of the
Gram-twisted symmetry of expansion matrices, the orbit oracle grows each
orbit by exact elimination instead of walking the nonzero pattern, the
expansion oracle multiplies by the inverse of the dense basis matrix instead
of substituting along the lex-triangular leads, and the operator-matrix oracle
expands each generator sum and product from its own differential operator
instead of adding and multiplying generator matrices.
"""

import functools
import random

from simplexalg.diffops import f_combination, l_operator, l_total, m_operator
from simplexalg.jacobi import graded_indices, jacobi1d, jacobi_simplex, monomials_upto
from simplexalg.linalg import ExactMatrix, SpanBasis
from simplexalg.moments import inner_product
from simplexalg.params import ParamVector, check_gamma
from simplexalg.poly import MultiPoly
from simplexalg.scalar import Rat
from simplexalg.verify import CheckResult


def t_poly_coeffs(p: MultiPoly) -> list:
    degree = p.total_degree()
    return [p.coefficient((k,)) for k in range(degree + 1)]


def two_var_reference(nu, gamma: ParamVector) -> MultiPoly:
    """P_(nu1,nu2) composed through powers of t (independent expansion)."""
    n1, n2 = nu
    g1, g2, g3 = gamma[1], gamma[2], gamma[3]
    outer = t_poly_coeffs(jacobi1d(n1, g2 + g3 + 2 * n2 + 1, g1))
    inner = t_poly_coeffs(jacobi1d(n2, g3, g2))
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    one = MultiPoly.const(2, 1)
    first = MultiPoly.zero(2)
    for k, c in enumerate(outer):
        first = first + ((x1.scale(2) - one) ** k).scale(c)
    second = MultiPoly.zero(2)
    s = one - x1
    for k, c in enumerate(inner):
        second = second + ((x2.scale(2) - s) ** k * s ** (n2 - k)).scale(c)
    return first * second


def three_var_reference(nu, gamma: ParamVector) -> MultiPoly:
    n1, n2, n3 = nu
    g1, g2, g3, g4 = gamma[1], gamma[2], gamma[3], gamma[4]
    c1 = t_poly_coeffs(jacobi1d(n1, g2 + g3 + g4 + 2 * (n2 + n3) + 2, g1))
    c2 = t_poly_coeffs(jacobi1d(n2, g3 + g4 + 2 * n3 + 1, g2))
    c3 = t_poly_coeffs(jacobi1d(n3, g4, g3))
    x1 = MultiPoly.variable(3, 0)
    x2 = MultiPoly.variable(3, 1)
    x3 = MultiPoly.variable(3, 2)
    one = MultiPoly.const(3, 1)
    first = MultiPoly.zero(3)
    for k, c in enumerate(c1):
        first = first + ((x1.scale(2) - one) ** k).scale(c)
    s1 = one - x1
    second = MultiPoly.zero(3)
    for k, c in enumerate(c2):
        second = second + ((x2.scale(2) - s1) ** k * s1 ** (n2 - k)).scale(c)
    s2 = one - x1 - x2
    third = MultiPoly.zero(3)
    for k, c in enumerate(c3):
        third = third + ((x3.scale(2) - s2) ** k * s2 ** (n3 - k)).scale(c)
    return first * second * third


def antiderivative(poly: MultiPoly, var: int) -> MultiPoly:
    terms = {}
    for exponent, coefficient in poly.terms.items():
        e = list(exponent)
        e[var] += 1
        terms[tuple(e)] = coefficient / e[var]
    return MultiPoly(poly.dim, terms)


def integrate_simplex(poly: MultiPoly) -> Rat:
    """Integrate over {x_i >= 0, |x| <= 1} by iterated antiderivatives."""
    p = poly
    d = poly.dim
    for var in range(d - 1, -1, -1):
        p = antiderivative(p, var)
        upper = MultiPoly.const(d, 1)
        for i in range(var):
            upper = upper - MultiPoly.variable(d, i)
        p = p.subs_var(var, upper)  # the lower limit 0 contributes nothing
    return p.coefficient((0,) * d)


def oracle_moment(m, gamma_ints) -> Rat:
    """Normalized moment for integer gamma, by literal integration."""
    d = len(m) - 1
    one_minus = MultiPoly.const(d, 1)
    for i in range(d):
        one_minus = one_minus - MultiPoly.variable(d, i)
    weight = one_minus ** gamma_ints[d]
    for i in range(d):
        weight = weight * MultiPoly.variable(d, i) ** gamma_ints[i]
    integrand = weight * one_minus ** m[d]
    for i in range(d):
        integrand = integrand * MultiPoly.variable(d, i) ** m[i]
    return integrate_simplex(integrand) / integrate_simplex(weight)


def sample_valid_gammas(seed: int, d: int, count: int, positive: bool = False) -> list:
    """Seeded random rational parameter vectors satisfying the validity
    conditions; ``positive`` restricts every entry to (-1, 3]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = []
        for _ in range(d + 1):
            den = rng.randint(1, 4)
            if positive:
                num = rng.randint(-den + 1, 3 * den)
            else:
                num = rng.randint(-5, 7)
            values.append(Rat(num, den))
        if not check_gamma(values, d):
            out.append(ParamVector(values))
    return out


def selfadjoint_orthogonal_oracle(ctx, operators) -> CheckResult:
    """Orthogonality of {P_mu : |mu| <= n}, then <L P_a, P_b> = <P_a, L P_b>
    for every operator L and every pair (a, b) of the graded family, by
    O(N^2 * operators) polynomial inner products."""
    gamma = ctx.gamma
    if not all(gamma[j] > -1 for j in range(1, ctx.d + 2)):
        return CheckResult(
            "orthogonality", "degenerate", "requires gamma_j > -1 for the integral form"
        )
    indices = ctx.graded
    polys = [ctx.polys[nu] for nu in indices]
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if inner_product(polys[a], polys[b], gamma) != 0:
                return CheckResult(
                    "orthogonality", "fail", f"<P_{indices[a]}, P_{indices[b]}> != 0"
                )
    for op_index, op in enumerate(operators):
        images = [op.apply(p) for p in polys]
        for a in range(len(polys)):
            for b in range(a, len(polys)):
                left = inner_product(images[a], polys[b], gamma)
                right = inner_product(polys[a], images[b], gamma)
                if left != right:
                    return CheckResult(
                        "orthogonality",
                        "fail",
                        f"generator #{op_index} not self-adjoint at ({indices[a]}, {indices[b]})",
                    )
    return CheckResult(
        "orthogonality", "pass", f"{len(indices)} family members, {len(operators)} generators"
    )


def orbit_closure_dimensions(matrices, size: int) -> list:
    """Dimension of the smallest subspace that contains basis vector a and is
    invariant under every matrix, for each a, by exact elimination over the
    orbit."""
    dims = []
    for start in range(size):
        span = SpanBasis(size)
        seed = [Rat(0)] * size
        seed[start] = Rat(1)
        span.add(seed)
        frontier = [seed]
        while frontier:
            new_vectors = []
            for vector in frontier:
                for matrix in matrices:
                    image = matrix.matvec(vector)
                    if span.add(image):
                        new_vectors.append(image)
            frontier = new_vectors
        dims.append(span.dim)
    return dims


@functools.cache
def _dense_basis_inverse(d: int, n: int, gamma: tuple) -> ExactMatrix:
    index = {m: i for i, m in enumerate(monomials_upto(n, d))}
    columns = [jacobi_simplex(nu, gamma).coordinates(index) for nu in graded_indices(n, d)]
    return ExactMatrix.from_columns(columns).inverse()


def dense_expand_oracle(ctx, poly: MultiPoly) -> list:
    """Coefficients of ``poly`` (degree <= ctx.n) in the graded family of
    ``ctx``, as the inverse of the monomial-coordinate basis matrix times the
    monomial coordinates of ``poly``."""
    index = {m: i for i, m in enumerate(monomials_upto(ctx.n, ctx.d))}
    return _dense_basis_inverse(ctx.d, ctx.n, ctx.gamma.gamma).matvec(poly.coordinates(index))


@functools.cache
def _f_operator(i: int, j: int, k: int, l: int, d: int, gamma: ParamVector):
    return f_combination(i, j, k, l, d, gamma)


def operator_matrix_oracle(ctx, f_choices) -> dict:
    """Matrices on the level of ``ctx`` of the generator sums and products the
    suites use, each expanded by ``ctx.matrix_of`` from its own operator:
    ("M", j, variant) for M_j^variant, ("hat", a) for the hat operators of the
    plane block (a = 1: L_{1,2}; a = 2, 3: L_{a-1,3} + ... + L_{a-1,d+1}),
    ("F", i, j, k, l) for each index choice, and ("L",) for the total."""
    d, gamma = ctx.d, ctx.gamma
    out = {("L",): ctx.matrix_of(l_total(d, gamma))}
    for j in range(1, d + 1):
        for variant in ("plain", "plus", "minus"):
            out[("M", j, variant)] = ctx.matrix_of(m_operator(j, d, gamma, variant))
    if d >= 3:
        out[("hat", 1)] = ctx.matrix_of(l_operator(1, 2, d, gamma))
        for a in (1, 2):
            hat = l_operator(a, 3, d, gamma)
            for j in range(4, d + 2):
                hat = hat + l_operator(a, j, d, gamma)
            out[("hat", a + 1)] = ctx.matrix_of(hat)
    for choice in f_choices:
        out[("F",) + choice] = ctx.matrix_of(_f_operator(*choice, d, gamma))
    return out
