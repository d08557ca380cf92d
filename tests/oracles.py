"""Independent reference computations shared by the test modules.

Everything here deliberately takes a different route from the library code it
checks: the product-formula references expand through powers of t instead of
powers of (1-t)/2, the moment oracle integrates monomials literally by
iterated antiderivatives instead of using the closed Pochhammer form, the
orthogonality and self-adjointness oracle compares polynomial inner products
instead of checking that each generator is formally symmetric for the weight
and that the Jucys-Murphy operators have a simple joint spectrum on the
family, the orbit oracle grows each orbit by exact elimination instead of
walking the nonzero pattern, the
expansion oracle multiplies by the inverse of the dense basis matrix instead
of substituting along the lex-triangular leads, the operator-matrix oracle
expands each generator sum and product from its own differential operator
instead of adding and multiplying generator matrices, the relations oracle
compares sums of Jucys-Murphy operators and matrices instead of counting index
pairs, the rank oracle ranks the generators' actions on monomials instead of
their coefficients, the total operator is built from its closed form
instead of as a pair sum, the composition oracle differentiates and
multiplies whole coefficient polynomials for each Leibniz term instead of
accumulating weighted monomial products in one pass, the F relation and
commutation oracles evaluate F and the commutators on the generator matrices
of one level instead of reporting the operator identities that hold for
every level, and the kd oracle checks all three forms of each triple relation
and every [M_i, M_j] instead of only the relations that generate them, and the
reduced-fraction oracle builds the general Racah family as exact rational
functions of z with removable factors cancelled by synthetic division
instead of taking limits of its product form along gamma0 + t·v, and the
numerator-first oracle makes a printed Racah summand 0 at any vanishing
numerator factor instead of only at a structural one, so it also turns the
0/0s that the library refuses into 0.
"""

import functools
import operator
import random
from itertools import combinations, product
from math import comb, prod

from simplexalg.diffops import (
    DiffOp,
    commutator,
    f_combination,
    f_formula,
    l_operator,
    m_operator,
    m_pairs,
)
from simplexalg.errors import DegenerateParameter, DimensionMismatch, InvalidParameter
from simplexalg.jacobi import graded_indices, jacobi1d_coeffs, jacobi_simplex
from simplexalg.linalg import ExactMatrix, SpanBasis
from simplexalg.moments import simplex_moment
from simplexalg.params import ParamVector, check_gamma, check_jacobi_params, require_valid
from simplexalg.poly import MultiPoly
from simplexalg.racah import ZFraction, ZShiftOp, _racah_operator_cached
from simplexalg.scalar import Rat, as_rat, rat_str
from simplexalg.verify import CheckResult, _f_index_choices


# -- what only the oracles and the tests use of polynomials and matrices ----


def coefficient(poly: MultiPoly, exponent) -> Rat:
    return poly.terms.get(tuple(exponent), Rat(0))


def coordinates(poly: MultiPoly, index) -> list:
    """Coefficient vector of ``poly`` in the monomial order ``index``
    (exponent -> position)."""
    column = [Rat(0)] * len(index)
    for exponent, value in poly.terms.items():
        column[index[exponent]] = value
    return column


def poly_value(poly: MultiPoly, point) -> Rat:
    """poly at a point, one monomial at a time."""
    point = [as_rat(v) for v in point]
    if len(point) != poly.dim:
        raise DimensionMismatch(f"point of length {len(point)} for dim {poly.dim}")
    return sum(
        (c * prod(v ** e for v, e in zip(point, exponent)) for exponent, c in poly.terms.items()),
        Rat(0),
    )


def jacobi1d(n: int, alpha, beta) -> MultiPoly:
    """One-variable Jacobi polynomial of degree n as a polynomial in t (dim 1)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    alpha, beta = as_rat(alpha), as_rat(beta)
    violations = check_jacobi_params(alpha, beta)
    if violations:
        raise InvalidParameter("; ".join(violations))
    u = MultiPoly(1, {(0,): Rat(1, 2), (1,): Rat(-1, 2)})  # (1-t)/2
    result = MultiPoly.zero(1)
    for k, c in enumerate(jacobi1d_coeffs(n, alpha, beta)):
        result = result + (u ** k).scale(c)
    if result.total_degree() != n:
        raise InvalidParameter("degree drop: admissibility conditions violated")
    return result


class RingMatrix(ExactMatrix):
    """An ``ExactMatrix`` with the ring operations ``f_formula`` and the
    commutators need, and the elimination the tests use: no suite multiplies,
    subtracts or scales a matrix."""

    __slots__ = ()

    @classmethod
    def of(cls, matrix: ExactMatrix) -> "RingMatrix":
        return cls._raw(matrix.rows, matrix.cols, matrix.entries)

    def _entrywise(self, other: ExactMatrix, op) -> "RingMatrix":
        self._check_shape(other)
        rows = zip(self.entries, other.entries)
        return RingMatrix._raw(self.rows, self.cols, [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in rows])

    def __add__(self, other: ExactMatrix) -> "RingMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: ExactMatrix) -> "RingMatrix":
        return self._entrywise(other, operator.sub)

    def scale(self, value) -> "RingMatrix":
        value = as_rat(value)
        return RingMatrix._raw(self.rows, self.cols, [[v * value for v in row] for row in self.entries])

    def __matmul__(self, other: ExactMatrix) -> "RingMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # over the nonzero entries only: operator matrices are sparse
        nonzero = [[(c, b) for c, b in enumerate(row) if b] for row in other.entries]
        out = [[Rat(0)] * other.cols for _ in self.entries]
        for acc, row in zip(out, self.entries):
            for a, pairs in zip(row, nonzero):
                if a:
                    for c, b in pairs:
                        acc[c] += a * b
        return RingMatrix._raw(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def matvec(self, vector) -> list:
        vector = [as_rat(v) for v in vector]
        if len(vector) != self.cols:
            raise DimensionMismatch(f"vector of length {len(vector)} for {self.cols} columns")
        return [sum(a * b for a, b in zip(row, vector)) for row in self.entries]

    def rank(self) -> int:
        span = SpanBasis(self.cols)
        for row in self.entries:
            span.add(row)
        return span.dim


def compose_oracle(a: DiffOp, b: DiffOp) -> DiffOp:
    """a after b by the Leibniz rule, one MultiPoly product per (alpha, beta, delta)."""
    out: dict = {}
    for alpha, p in a.terms.items():
        deltas = [range(e + 1) for e in alpha]
        for beta, q in b.terms.items():
            for delta in product(*deltas):
                dq = q.deriv_multi(delta)
                if dq.is_zero():
                    continue
                factor = 1
                for e, dlt in zip(alpha, delta):
                    factor *= comb(e, dlt)
                coefficient = p * dq if factor == 1 else (p * dq).scale(factor)
                deriv = tuple(e - dlt + f for e, dlt, f in zip(alpha, delta, beta))
                if deriv in out:
                    out[deriv] = out[deriv] + coefficient
                else:
                    out[deriv] = coefficient
    return DiffOp(a.dim, out)


def t_poly_coeffs(p: MultiPoly) -> list:
    degree = p.total_degree()
    return [coefficient(p, (k,)) for k in range(degree + 1)]


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
    return coefficient(p, (0,) * d)


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
    # moments.inner_product, with each simplex moment computed once per call
    moment = functools.lru_cache(maxsize=None)(lambda m: simplex_moment(m + (0,), gamma))

    def inner(p, q):
        return sum((c * moment(m) for m, c in (p * q).terms.items()), Rat(0))

    indices = ctx.graded
    polys = [ctx.polys[nu] for nu in indices]
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if inner(polys[a], polys[b]) != 0:
                return CheckResult(
                    "orthogonality", "fail", f"<P_{indices[a]}, P_{indices[b]}> != 0"
                )
    for op_index, op in enumerate(operators):
        images = [op.apply(p) for p in polys]
        for a in range(len(polys)):
            for b in range(a, len(polys)):
                left = inner(images[a], polys[b])
                right = inner(polys[a], images[b])
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
    matrices = [RingMatrix.of(matrix) for matrix in matrices]
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
def _dense_basis_inverse(d: int, n: int, gamma: tuple) -> RingMatrix:
    index = {m: i for i, m in enumerate(graded_indices(n, d))}
    columns = [coordinates(jacobi_simplex(nu, gamma), index) for nu in graded_indices(n, d)]
    return RingMatrix.of(ExactMatrix.from_columns(columns).inverse())


def dense_expand_oracle(ctx, poly: MultiPoly) -> list:
    """Coefficients of ``poly`` (degree <= ctx.n) in the graded family of
    ``ctx``, as the inverse of the monomial-coordinate basis matrix times the
    monomial coordinates of ``poly``."""
    index = {m: i for i, m in enumerate(graded_indices(ctx.n, ctx.d))}
    return _dense_basis_inverse(ctx.d, ctx.n, ctx.gamma.gamma).matvec(coordinates(poly, index))


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
    out = {("L",): ctx.matrix_of(l_total_closed_form(d, gamma))}
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


def l_total_closed_form(d: int, gamma) -> DiffOp:
    """The sum L of all generators from its closed form

        L = sum_k x_k(1-x_k) d_k^2 - 2 sum_{k<j} x_k x_j d_k d_j
            + sum_k (g_k + 1 - (|g|+d+1) x_k) d_k.
    """
    params = require_valid(gamma, d)
    x = [MultiPoly.variable(d, k) for k in range(d)]
    terms: dict = {}
    for k in range(d):
        e2 = [0] * d
        e2[k] = 2
        terms[tuple(e2)] = x[k] * (MultiPoly.const(d, 1) - x[k])
        e1 = [0] * d
        e1[k] = 1
        terms[tuple(e1)] = MultiPoly.const(d, params[k + 1] + 1) - x[k].scale(params.total() + d + 1)
    for k, j in combinations(range(d), 2):
        e = [0] * d
        e[k] = e[j] = 1
        terms[tuple(e)] = (x[k] * x[j]).scale(-2)
    return DiffOp(d, terms)


def generator_rank_oracle(d: int, gamma, degree: int = 3) -> int:
    """Exact rank of the generators as maps on polynomials of degree <= ``degree``,
    from their images of every monomial."""
    params = require_valid(gamma, d)
    monomials = graded_indices(degree, d)
    index = {m: i for i, m in enumerate(monomials)}
    span = SpanBasis(len(monomials) ** 2)
    for i, j in combinations(range(1, d + 2), 2):
        op = l_operator(i, j, d, params)
        flat = []
        for exponent in monomials:
            flat.extend(coordinates(op.apply(MultiPoly.monomial(d, exponent)), index))
        span.add(flat)
    return span.dim


def relations_oracle(ctx) -> CheckResult:
    """The relations check as sums of operators: every recovery formula (both
    for L_{1,d+1}) and the dependence identity as DiffOp sums of M_j^variant,
    the d = 3 closure on the matrices of ``ctx``, then ``generator_rank_oracle``."""
    d, gamma = ctx.d, ctx.gamma

    def m(j, variant="plain"):
        return m_operator(j, d, gamma, variant) if j <= d else DiffOp.zero(d)

    recoveries = [
        ((1, j), m(j - 1, "plus") + m(j + 1) - m(j) - m(j, "plus")) for j in range(2, d + 2)
    ] + [
        ((i, d + 1), m(i) + m(i + 2, "minus") - m(i + 1, "minus") - m(i + 1))
        for i in range(1, d + 1)
    ]
    for (i, j), op in recoveries:
        if op != l_operator(i, j, d, gamma):
            return CheckResult("relations", "fail", f"recovery of L_({i},{j}) fails")
    if not (m(1) - m(2) - m(2, "minus") + m(3, "minus") - m(d, "plus")).is_zero():
        return CheckResult("relations", "fail", "dependence identity fails")
    if d == 3:
        total = RingMatrix.of(ctx.generator_sum(combinations(range(1, d + 2), 2)))
        l234, l34 = RingMatrix.of(ctx.m_matrix(2)), RingMatrix.of(ctx.m_matrix(3))
        l134 = RingMatrix.of(ctx.m_matrix(2, "plus"))
        l123, l23 = RingMatrix.of(ctx.m_matrix(2, "minus")), RingMatrix.of(ctx.m_matrix(3, "minus"))
        closure = [
            ((1, 2), total - l134 - l234 + l34),
            ((1, 3), l123 + l134 + l234 - total - l23 - l34),
            ((1, 4), total - l123 - l234 + l23),
            ((2, 4), l234 - l23 - l34),
        ]
        if any(ctx.generator_matrix(i, j) != matrix for (i, j), matrix in closure):
            return CheckResult("relations", "fail", "three-variable closure fails")
    rank = generator_rank_oracle(d, gamma)
    if rank != comb(d + 1, 2):
        return CheckResult(
            "relations", "fail", f"generator rank {rank} != C(d+1,2) = {comb(d + 1, 2)}"
        )
    return CheckResult("relations", "pass", f"recovery, dependence, closure, rank {rank} verified")


def f_relation_matrix_oracle(ctx) -> CheckResult:
    """(1-g_k^2)(1-g_l^2) L_{i,j} = F on the level of ``ctx``, with F evaluated
    on the generator matrices; where the factor is 0, F must be the zero matrix."""
    d, gamma = ctx.d, ctx.gamma
    if d < 3:
        return CheckResult("f-relation", "pass", "vacuous: needs four distinct indices")
    choices = _f_index_choices(d)
    for i, j, k, l in choices:
        factor = (1 - gamma[k] ** 2) * (1 - gamma[l] ** 2)
        f_matrix = f_formula(lambda a, b: RingMatrix.of(ctx.generator_matrix(a, b)), i, j, k, l, gamma)
        if factor == 0:
            if not f_matrix.is_zero():
                return CheckResult(
                    "f-relation",
                    "fail",
                    f"F at (i,j,k,l)={(i,j,k,l)} nonzero although (1-g_k^2)(1-g_l^2)=0",
                )
            continue
        if f_matrix != RingMatrix.of(ctx.generator_matrix(i, j)).scale(factor):
            return CheckResult(
                "f-relation", "fail", f"matrix identity fails for (i,j,k,l)={(i,j,k,l)}"
            )
    return CheckResult("f-relation", "pass", f"{len(choices)} index choices")


def matrix_commutation_oracle(ctx) -> CheckResult:
    """[M_i, M_j] = 0 and [L_{i,j}, L_{k,l}] = 0 for disjoint pairs, by
    multiplying the matrices on the level of ``ctx``."""
    d = ctx.d
    for i, j in combinations(range(1, d + 1), 2):
        a, b = RingMatrix.of(ctx.m_matrix(i)), RingMatrix.of(ctx.m_matrix(j))
        if a @ b != b @ a:
            return CheckResult("kd-matrix", "fail", f"[M_{i}, M_{j}] != 0 on the module")
    pairs = list(combinations(range(1, d + 2), 2))
    for (i, j), (k, l) in combinations(pairs, 2):
        if len({i, j, k, l}) == 4:
            a, b = RingMatrix.of(ctx.generator_matrix(i, j)), RingMatrix.of(ctx.generator_matrix(k, l))
            if a @ b != b @ a:
                return CheckResult(
                    "kd-matrix", "fail", f"[L_({i},{j}), L_({k},{l})] != 0 on the module"
                )
    return CheckResult("kd-matrix", "pass", "matrix commutation relations hold")


def kd_relations_oracle(d: int, gamma) -> tuple:
    """(status, details) of the kd check from every commutation relation:
    [L_ab, L_cd] = 0 for disjoint pairs, all three forms [L_ab, L_ac + L_bc] = 0
    of each triple, then [M_i, M_j] = 0 with M_j summed from the same
    generators."""
    params = require_valid(gamma, d)
    ops = {(i, j): l_operator(i, j, d, params) for i, j in combinations(range(1, d + 2), 2)}
    for (i, j), (k, l) in combinations(ops, 2):
        if len({i, j, k, l}) == 4:
            if not commutator(ops[(i, j)], ops[(k, l)]).is_zero():
                return "fail", f"[L_{(i,j)}, L_{(k,l)}] != 0"
    for i, j, k in combinations(range(1, d + 2), 3):
        for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
            lhs = commutator(
                ops[(min(a, b), max(a, b))],
                ops[(min(a, c), max(a, c))] + ops[(min(b, c), max(b, c))],
            )
            if not lhs.is_zero():
                return "fail", f"[L_{(a,b)}, L_{(a,c)}+L_{(b,c)}] != 0"
    ms = [sum((ops[pair] for pair in m_pairs(j, d)), DiffOp.zero(d)) for j in range(1, d + 1)]
    for (ji, mi), (jj, mj) in combinations(enumerate(ms, 1), 2):
        if not commutator(mi, mj).is_zero():
            return "fail", f"[M_{ji}, M_{jj}] != 0"
    return "pass", f"all commutativity relations hold for d={d}"


# -- the general Racah family as reduced fractions ---------------------------


def racah_operator(j: int, beta, boundary=None) -> ZShiftOp:
    """The I-invariant operator B_j(z;beta); beta supplies beta_0..beta_{j+1}.

    When ``boundary`` is given, the spectator variable z_{j+1} is fixed to
    that value before the coefficients are reduced (its value is constant on
    the index sets this operator ultimately acts on).
    """
    beta = tuple(as_rat(b) for b in beta)
    return _racah_operator_cached(j, beta[: j + 2], boundary)


def fraction_value(frac: ZFraction, zvals) -> Rat:
    """frac at z; DegenerateParameter where a denominator factor vanishes."""
    zvals = [as_rat(v) for v in zvals]
    den_value = Rat(1)
    for (var, root), mult in frac.den.items():
        factor = zvals[var - 1] - root
        if factor == 0:
            raise DegenerateParameter(
                f"denominator factor (z_{var} - {rat_str(root)}) vanishes at "
                f"z = ({', '.join(rat_str(v) for v in zvals)})"
            )
        den_value *= factor ** mult
    return poly_value(frac.num, zvals) / den_value


def _den_poly(frac: ZFraction) -> MultiPoly:
    out = MultiPoly.const(frac.nvars, 1)
    for (var, root), mult in frac.den.items():
        out = out * (MultiPoly.variable(frac.nvars, var - 1) - root) ** mult
    return out


def fractions_equal(a: ZFraction, b: ZFraction) -> bool:
    """Exact equality as rational functions (cross multiplication)."""
    return a.num * _den_poly(b) == b.num * _den_poly(a)


def involution_image(op: ZShiftOp, k: int) -> ZShiftOp:
    """I_k: flip the k-th shift and transform every coefficient."""
    out = {}
    for sigma, frac in op.terms.items():
        flipped = tuple(-s if idx == k - 1 else s for idx, s in enumerate(sigma))
        out[flipped] = frac.involution(k, op.beta[k]).reduce()
    return ZShiftOp(op.j, op.nvars, op.beta, out)


def shift_ops_equal(a: ZShiftOp, b: ZShiftOp) -> bool:
    zero = ZFraction(a.nvars, MultiPoly.zero(a.nvars))
    return all(
        fractions_equal(a.terms.get(s, zero), b.terms.get(s, zero))
        for s in set(a.terms) | set(b.terms)
    )


def folded_fractions(family) -> dict:
    """sigma -> the folded, reduced ZFraction of C_sigma for the family of one
    predicted M_j action: the general family built symbolically, times the
    g(nu) conjugation factor of the plus variant, plus its constant on the
    zero shift."""
    zop = racah_operator(family.m, family.beta, boundary=family.boundary)
    if family.fold is None:
        return zop.terms
    g1, A = family.fold
    nvars = zop.nvars
    z1 = MultiPoly.variable(nvars, 0)
    folded = {}
    for sigma, frac in zop.terms.items():
        if sigma[0] == 1:
            frac = ZFraction(nvars, frac.num * (z1 + (g1 + 1)), frac.den)
            frac = frac.mul_scalar(-1).div_linear(1, A - 1)
        elif sigma[0] == -1:
            frac = ZFraction(nvars, frac.num * (A - z1), frac.den).div_linear(1, -g1)
        folded[sigma] = frac.reduce()
    zero = (0,) * family.m
    folded[zero] = folded[zero].add(ZFraction(nvars, MultiPoly.const(nvars, family.constant)))
    return folded


# -- printed Racah coefficients, numerator-first -----------------------------


def numerator_first_value(coef, nu) -> Rat:
    """A printed coefficient at nu by the numerator-first rule: a summand is
    0 as soon as any numerator factor vanishes, whether or not its label
    names a parameter, and its denominator is then never evaluated;
    otherwise a vanishing denominator raises DegenerateParameter.  Each
    product is taken whole rather than factor by factor."""
    total = Rat(0)
    for summand in coef.summands:
        numerator = [factor(nu) for factor in summand.numerator]
        if 0 in numerator:
            continue
        denominator = [factor(nu) for factor in summand.denominator]
        if 0 in denominator:
            raise DegenerateParameter(f"a denominator form of {coef.label} vanishes at nu={tuple(nu)}")
        total += summand.const * prod(numerator) / prod(denominator)
    return total
