"""Exact matrix representations and the identity-verification suites.

``ModuleContext`` fixes a cell (d, n, gamma) and caches the graded family
{P_mu : |mu| <= n} and its integer inverse: the expansion of every monomial
x^alpha, |alpha| <= n, in the family, as integer numerators over one
denominator per row mu.  The top-degree part of P_mu is c x^mu plus
lex-greater monomials, so that inverse is built one monomial at a time in
graded order, each from P_alpha and the monomials before it, and checked
once: every P_mu must expand to its unit vector.  An operator image then
expands by one integer dot product per row, with one ``Rat`` per nonzero
coefficient.  ``ModuleContext.matrix_of`` returns the
square block of a differential operator on the top level {|nu| = n}; it
expands against the *full* graded family and raises if anything leaks into
lower degrees, turning invariance of the degree-n span into a tested
postcondition.

Every operator comes from one table of the generators L_{i,j} per
(d, gamma) (``diffops.generator_table``).  The suites expand a generator
(``generator_matrix``) or a generator sum taken whole as one operator
(M_j^+/- in ``m_matrix``, the hats of ``submodule_diagnostic``), each at most
once per context.  As each generator maps the level to itself, op -> matrix
is a ring homomorphism on the algebra they generate, so an identity among
sums and products of generators holds on the level once it holds for the
operators: no suite adds or multiplies matrices.

Every verification below is an exact rational identity; a check result is
pass, fail (with a counterexample payload), or degenerate (a difference
operator denominator vanished for this gamma, recorded, never silently
skipped).

The operator identities (the kd relations, the F relation and the formal
symmetry of the generators) depend on (d, gamma) alone.  Their verdicts are
memoized per process under one size, ``OPERATOR_CACHE_SIZE``, so every level
of one gamma after the first reuses them; these caches hold verdicts only,
never operators or ``CheckResult`` objects (the generator table, of the same
size, holds the operators).  kd checks the generating relations
[L_ab, L_cd] = 0 (disjoint pairs) and [L_ab, L_ac + L_bc] = 0, from which every
other commutation relation follows.  On a level, ``kd-matrix`` and
``f-relation`` build the generator matrices, which is the invariance premise,
and report those verdicts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from typing import Callable, Sequence

from .diffops import OPERATOR_CACHE_SIZE, DiffOp, commutator, f_combination, generator_table
from .diffops import jm_relations, m_operator, pair_counts, pair_sum
from .errors import DegenerateParameter, ExactAlgebraError, InvariantViolation, RangeEscape
from .jacobi import graded_indices, jacobi_simplex, level_indices, lex_lead
from .linalg import ExactMatrix, SpanBasis
from .params import ParamVector, require_valid
from .poly import MultiPoly, _pack
from .racah import (
    b12_operator,
    b123_operator,
    b134_operator,
    b23_operator,
    certificate_2d,
    predicted_m_action,
)
from .scalar import ZERO, Rat, rat_str

SUITES = (
    "spectral",
    "racah",
    "f-relation",
    "kd",
    "orthogonality",
    "irreducibility",
    "separation",
    "relations",
)


def eigenvalue(j: int, nu: Sequence[int], gamma) -> Rat:
    """Joint eigenvalue of the commuting operator M_j on P_nu."""
    params = require_valid(gamma)
    d = len(nu)
    tail = sum(nu[j - 1 :])
    return -tail * (tail + params.tail_sum(j) + d + 1 - j)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "degenerate"
    details: str = ""
    millis: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass
class VerificationReport:
    d: int
    n: int
    gamma: ParamVector
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def degenerate(self) -> bool:
        return any(c.status == "degenerate" for c in self.checks)

    def to_json(self) -> dict:
        # no timing: identical runs persist byte-identical reports
        return {
            "d": self.d,
            "n": self.n,
            "gamma": self.gamma.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }

    def json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), indent=2, sort_keys=False).encode()


class ModuleInvarianceError(ExactAlgebraError):
    """An operator failed to preserve the degree-n span."""


class ModuleContext:
    """Cached exact data for one cell (d, n, gamma): the graded family
    {P_mu : |mu| <= n}, the expansion of every monomial of degree <= n in
    it (built once, then checked: each P_mu must expand to its unit
    vector), the matrices of the generators and of the summed operators
    M_j^variant and hats, each expanded once under its name, and the verdict
    of M_j P_mu = lambda_j(mu) P_mu on each level |mu| <= n, which spectral,
    orthogonality and irreducibility share."""

    def __init__(self, d: int, n: int, gamma):
        self.d = d
        self.n = n
        self.gamma = require_valid(gamma, d)
        self.level = level_indices(n, d)
        self.graded = graded_indices(n, d)
        self.polys = {nu: jacobi_simplex(nu, self.gamma) for nu in self.graded}
        self._inverse, self._row_dens = self._invert_basis()
        for row, mu in enumerate(self.graded):
            coeffs = self.expand(self.polys[mu])
            if coeffs[row] != 1 or any(coeffs[:row]) or any(coeffs[row + 1 :]):
                raise InvariantViolation(f"P_{mu} does not expand to its unit vector")
        self._matrices: dict = {}
        self._eigen_defects: dict = {}

    def _invert_basis(self) -> tuple:
        """({packed alpha: [(row, numerator)]}, [denominator of each row]):
        the coefficient of P_mu, mu = graded[row], in x^alpha is numerator /
        denominator, for every |alpha| <= n.

        Monomials go in graded order.  With P_alpha = sum_e N[e] x^e / den and
        lead = N[alpha] / den (``lex_lead``),

            x^alpha = (den P_alpha - sum_{e != alpha} N[e] x^e) / (den lead),

        and every other monomial e of P_alpha is of lower degree or
        lex-greater, so it comes earlier and its expansion is known.  Each
        expansion is built on ints over one denominator, then every row is
        put over the lcm of its entries' reduced denominators, which is
        positive."""
        columns: dict = {}  # packed alpha -> (denominator, {row: numerator})
        for row, alpha in enumerate(self.graded):
            poly = self.polys[alpha]
            lead = lex_lead(alpha, poly)
            key = _pack(alpha)
            rest = [(e, n) for e, n in poly.nums.items() if e != key]
            common = lcm(*(columns[e][0] for e, _ in rest))
            acc = {row: poly.den * common}
            for e, n in rest:
                den_e, column = columns[e]
                weight = n * (common // den_e)
                for i, v in column.items():
                    acc[i] = acc.get(i, 0) - weight * v
            den = common * poly.den * lead.numerator  # negative with the lead
            numerators = {i: v * lead.denominator for i, v in acc.items() if v}
            g = gcd(den, *numerators.values())
            columns[key] = (den // g, {i: v // g for i, v in numerators.items()})
        row_dens = [1] * len(self.graded)
        for den, column in columns.values():
            for i, v in column.items():
                row_dens[i] = lcm(row_dens[i], den // gcd(den, v))
        inverse = {}
        for e, (den, column) in columns.items():
            entries = []
            for i, v in column.items():
                g = gcd(den, v)
                entries.append((i, v // g * (row_dens[i] // (den // g))))
            inverse[e] = entries
        return inverse, row_dens

    def expand(self, poly: MultiPoly) -> list:
        """Coefficients of ``poly`` in the graded family (exact), in
        ``self.graded`` order: for each row, the integer dot product of
        poly's numerators with the basis inverse, and one ``Rat`` per
        nonzero coefficient.  A monomial of degree above n has no expansion
        and raises ModuleInvarianceError."""
        sums = [0] * len(self.graded)
        inverse = self._inverse
        for e, c in poly.nums.items():
            column = inverse.get(e)
            if column is None:
                raise ModuleInvarianceError(
                    f"degree {poly.total_degree()} image escapes the degree-{self.n} space"
                )
            for i, v in column:
                sums[i] += c * v
        den = poly.den
        return [Rat(s, den * row_den) if s else ZERO for s, row_den in zip(sums, self._row_dens)]

    def matrix_of(self, op: DiffOp, name: str | None = None) -> ExactMatrix:
        """Square matrix of ``op`` on {|nu| = n}; columns are images of P_nu.

        Raises ModuleInvarianceError when the image leaks below degree n.
        """
        if name is not None and name in self._matrices:
            return self._matrices[name]
        lower = len(self.graded) - len(self.level)
        columns = []
        for nu in self.level:
            coeffs = self.expand(op.apply(self.polys[nu]))
            for i in range(lower):
                if coeffs[i]:
                    raise ModuleInvarianceError(
                        f"image of P_{nu} has coefficient {rat_str(coeffs[i])} "
                        f"on lower-degree index {self.graded[i]}"
                    )
            columns.append(coeffs[lower:])
        size = len(self.level)
        matrix = ExactMatrix._raw(size, size, [list(row) for row in zip(*columns)])
        if name is not None:
            self._matrices[name] = matrix
        return matrix

    def _named(self, name: str, build: Callable[[], DiffOp]) -> ExactMatrix:
        """The matrix cached under ``name``, or ``matrix_of(build())``."""
        matrix = self._matrices.get(name)
        return matrix if matrix is not None else self.matrix_of(build(), name=name)

    def generator_matrix(self, i: int, j: int) -> ExactMatrix:
        i, j = min(i, j), max(i, j)
        return self._named(f"L:{i},{j}", lambda: generator_table(self.d, self.gamma)[i, j])

    def m_matrix(self, j: int, variant: str = "plain") -> ExactMatrix:
        """Matrix of M_j^variant, expanded from the summed operator."""
        return self._named(f"M{variant}:{j}", lambda: m_operator(j, self.d, self.gamma, variant))

    def hat_matrix(self, a: int) -> ExactMatrix:
        """Matrix of L_{a,3} + ... + L_{a,d+1}, expanded from the summed operator."""
        pairs = [(a, j) for j in range(3, self.d + 2)]
        return self._named(f"hat:{a}", lambda: pair_sum(pairs, self.d, self.gamma))

    def all_generator_matrices(self) -> dict:
        return {
            (i, j): self.generator_matrix(i, j)
            for i, j in combinations(range(1, self.d + 2), 2)
        }

    def eigen_defect(self, levels: Sequence[int]) -> str | None:
        """The first failure of M_j P_mu = lambda_j(mu) P_mu on the lowest
        failing level of ``levels`` (ascending), j ascending, then mu in level
        order; None when every one holds.  Each level is checked at most once
        per context."""
        ops = None
        for m in levels:
            if m not in self._eigen_defects:
                ops = ops or [m_operator(j, self.d, self.gamma) for j in range(1, self.d + 1)]
                self._eigen_defects[m] = self._level_eigen_defect(m, ops)
            if self._eigen_defects[m]:
                return self._eigen_defects[m]
        return None

    def _level_eigen_defect(self, m: int, ops: Sequence[DiffOp]) -> str | None:
        for j, op in enumerate(ops, 1):
            for mu in level_indices(m, self.d):
                if op.apply(self.polys[mu]) != self.polys[mu].scale(eigenvalue(j, mu, self.gamma)):
                    return f"M_{j} P_{mu} != lambda_{j}({mu}) P_{mu}"
        return None


def _timed(fn: Callable[[], CheckResult]) -> CheckResult:
    start = time.perf_counter()
    result = fn()
    result.millis = int((time.perf_counter() - start) * 1000)
    return result


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _shared_spectrum(indices: Sequence, gamma: ParamVector) -> str | None:
    """The first two of ``indices`` with equal (lambda_1..lambda_d), or None."""
    seen = {}
    for nu in indices:
        key = tuple(eigenvalue(j, nu, gamma) for j in range(1, len(nu) + 1))
        if key in seen:
            return f"indices {seen[key]} and {nu} share eigenvalues"
        seen[key] = nu
    return None


def verify_spectral(ctx: ModuleContext) -> CheckResult:
    """M_j P_nu = lambda_j(nu) P_nu at the polynomial level.  Column nu of the
    matrix of M_j is then lambda_j(nu) e_nu, so the matrix is diagonal."""
    defect = ctx.eigen_defect([ctx.n])
    if defect:
        return CheckResult("spectral", "fail", defect)
    return CheckResult("spectral", "pass", f"{ctx.d} commuting operators on {len(ctx.level)} indices")


def verify_separation(ctx: ModuleContext) -> CheckResult:
    """(lambda_1..lambda_d) separates the degree indices of the level."""
    defect = _shared_spectrum(ctx.level, ctx.gamma)
    if defect:
        return CheckResult("separation", "fail", defect)
    return CheckResult("separation", "pass", f"{len(ctx.level)} distinct eigenvalue tuples")


def verify_kd(d: int, gamma) -> CheckResult:
    """The Kohno-Drinfeld relations among the generators, fully expanded: the
    generating relations, from which [M_i, M_j] = 0 follows."""
    return CheckResult("kd", *_kd_verdict(d, require_valid(gamma, d)))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _kd_verdict(d: int, params: ParamVector) -> tuple:
    """(status, details) of ``verify_kd``; it does not depend on n.

    Only the generating relations are checked: the form (j,k,i) of a triple is
    minus the sum of the forms (i,j,k) and (i,k,j), and each [M_i, M_j] is a
    sum of disjoint-pair and triple relations."""
    ops = generator_table(d, params)
    for (i, j), (k, l) in combinations(ops, 2):
        if len({i, j, k, l}) == 4:
            if not commutator(ops[(i, j)], ops[(k, l)]).is_zero():
                return "fail", f"[L_{(i,j)}, L_{(k,l)}] != 0"
    for i, j, k in combinations(range(1, d + 2), 3):
        for a, b, c in ((i, j, k), (i, k, j)):
            lhs = commutator(
                ops[(min(a, b), max(a, b))],
                ops[(min(a, c), max(a, c))] + ops[(min(b, c), max(b, c))],
            )
            if not lhs.is_zero():
                return "fail", f"[L_{(a,b)}, L_{(a,c)}+L_{(b,c)}] != 0"
    return "pass", f"all commutativity relations hold for d={d}"


def verify_matrix_commutation(ctx: ModuleContext) -> CheckResult:
    """Commutation relations on the module matrices.  Building the generator
    matrices shows that each generator maps the level to itself, so the
    relations of ``verify_kd`` among the operators hold among their matrices."""
    ctx.all_generator_matrices()
    status, details = _kd_verdict(ctx.d, ctx.gamma)
    if status != "pass":
        return CheckResult("kd-matrix", "fail", f"operator identity fails: {details}")
    return CheckResult("kd-matrix", "pass", "matrix commutation relations hold")


def _racah_pairs(ctx: ModuleContext):
    """(label, (j, variant), RacahOp) triples to compare on this cell; the
    differential side of each is ``ctx.m_matrix(j, variant)``.

    L_{1,2} is M_2^- at d = 2; at d = 3, L_{2,3} is M_3^-, L_{1,3}+L_{1,4}+L_{3,4}
    is M_2^+ and L_{1,2}+L_{1,3}+L_{2,3} is M_2^-.
    """
    d, gamma = ctx.d, ctx.gamma
    pairs = []
    if d == 2:
        pairs.append(("L12=B12", (2, "minus"), b12_operator(gamma)))
    if d == 3:
        pairs.append(("L23=B23", (3, "minus"), b23_operator(gamma)))
        pairs.append(("L134=B134", (2, "plus"), b134_operator(gamma)))
        pairs.append(("L123=B123", (2, "minus"), b123_operator(gamma)))
    for j in range(2, d + 1):
        for variant, tag in (("plus", "+"), ("minus", "-")):
            pairs.append(
                (
                    f"M{tag}:{j}=R{tag}:{j}",
                    (j, variant),
                    predicted_m_action(variant, j, ctx.n, d, gamma),
                )
            )
    return pairs


def verify_difference_action(ctx: ModuleContext) -> CheckResult:
    """Exact matrix equality of each differential operator and its difference form."""
    pairs = _racah_pairs(ctx)
    degenerate = []
    for label, (j, variant), racah_op in pairs:
        try:
            racah_matrix = racah_op.matrix_on_level(ctx.n)
        except DegenerateParameter as exc:
            degenerate.append(f"{label}: {exc}")
            continue
        except RangeEscape as exc:
            return CheckResult("racah", "fail", f"{label}: {exc}")
        if ctx.m_matrix(j, variant) != racah_matrix:
            return CheckResult("racah", "fail", f"{label} matrices differ on level {ctx.n}")
    if degenerate:
        return CheckResult("racah", "degenerate", "; ".join(degenerate))
    return CheckResult(
        "racah", "pass", f"difference = differential for {len(pairs)} operators"
    )


def _f_index_choices(d: int) -> list:
    choices = [(2, 3, 1, d + 1)]
    if d >= 3:
        choices.append((1, d + 1, 2, 3))
    if d >= 4:
        choices.append((2, 4, 1, d + 1))
        choices.append((1, 2, 3, 4))
    return choices


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _f_verdict(d: int, gamma: ParamVector) -> tuple:
    """(status, details) of ``verify_f_relation`` for d >= 3: the operator
    identity (1-g_k^2)(1-g_l^2) L_{i,j} = F at every index choice; it does not
    depend on n."""
    choices = _f_index_choices(d)
    for i, j, k, l in choices:
        factor = (1 - gamma[k] ** 2) * (1 - gamma[l] ** 2)
        if f_combination(i, j, k, l, d, gamma) != generator_table(d, gamma)[i, j].scale(factor):
            return "fail", f"operator identity fails for (i,j,k,l)={(i, j, k, l)}"
    return "pass", f"{len(choices)} index choices"


def verify_f_relation(ctx: ModuleContext) -> CheckResult:
    """(1-g_k^2)(1-g_l^2) L_{i,j} = F as expanded operators.  Building the
    generator matrices shows that each generator maps the level to itself, so
    the identity holds among their matrices too; where the factor is 0, F
    annihilates the module."""
    if ctx.d < 3:
        return CheckResult("f-relation", "pass", "vacuous: needs four distinct indices")
    ctx.all_generator_matrices()
    return CheckResult("f-relation", *_f_verdict(ctx.d, ctx.gamma))


def _symmetry_defect(op: DiffOp, gamma: ParamVector) -> str | None:
    """Why ``op`` is not formally symmetric for the simplex weight
    w = x_1^{g_1} ... x_d^{g_d} (1-|x|)^{g_{d+1}}, or None when it is.

    Read op as sum_{a,b} A_ab d_a d_b + sum_a B_a d_a with A symmetric (an
    order-0 term multiplies, which is symmetric).  It is the divergence form
    w^{-1} sum_{a,b} d_b (w A_ab d_a) when, with X = x_1...x_d (1-|x|),

        B_a X = sum_b (d_b A_ab) X + sum_b A_ab (g_b X / x_b - g_{d+1} x_1...x_d).

    Integration by parts then leaves the flux of w A through the faces, which
    vanishes for every g_j > -1 when A_ab vanishes on x_a = 0 and each column
    sum of A vanishes on |x| = 1."""
    d = op.dim
    zero = MultiPoly.zero(d)
    second = [[zero] * d for _ in range(d)]
    first = [zero] * d
    for deriv, coefficient in op.terms.items():
        axes = [a for a, e in enumerate(deriv) for _ in range(e)]
        if len(axes) > 2:
            return f"order-{len(axes)} term at derivative {deriv}"
        if len(axes) == 2:
            a, b = axes
            second[a][b] = second[b][a] = coefficient if a == b else coefficient.scale(Rat(1, 2))
        elif axes:
            first[axes[0]] = coefficient
    corner = MultiPoly.monomial(d, (1,) * d)
    edge = 1 - sum(MultiPoly.variable(d, k) for k in range(d))
    volume = corner * edge
    # X d_b log w, with X / x_b = (d_b corner) edge
    log_derivatives = [
        (corner.deriv(b) * edge).scale(gamma[b + 1]) - corner.scale(gamma[d + 1]) for b in range(d)
    ]
    for a in range(d):
        rhs = zero
        for b, entry in enumerate(second[a]):
            rhs = rhs + entry.deriv(b) * volume + entry * log_derivatives[b]
        if first[a] * volume != rhs:
            return f"the d_{a + 1} coefficient breaks the divergence form"
    for a in range(d):
        for b, entry in enumerate(second[a]):
            if any(exponent[a] == 0 for exponent in entry.terms):
                return f"A_({a + 1},{b + 1}) does not vanish on x_{a + 1} = 0"
    face = edge + MultiPoly.variable(d, d - 1)  # x_d on |x| = 1
    for b in range(d):
        if sum(second[b], zero).subs_var(d - 1, face):
            return f"column {b + 1} of A does not vanish on |x| = 1"
    return None


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _asymmetric_generator(d: int, gamma: ParamVector) -> str | None:
    """Why the first generator that is not formally symmetric for the weight
    fails, or None when every one is; it does not depend on n."""
    for (i, j), op in generator_table(d, gamma).items():
        defect = _symmetry_defect(op, gamma)
        if defect:
            return f"L_({i},{j}) is not symmetric for the weight: {defect}"
    return None


def verify_selfadjoint_orthogonal(ctx: ModuleContext) -> CheckResult:
    """Self-adjointness of every generator and orthogonality of the graded
    family {P_mu : |mu| <= n}, by the classical proof route: each generator
    is formally symmetric for the simplex weight, so for gamma_j > -1 it and
    each Jucys-Murphy sum M_j are self-adjoint, and the P_mu are joint
    eigenvectors of the M_j with distinct eigenvalue tuples.  No inner
    product is computed.  The symmetry half depends on (d, gamma) alone and
    is memoized; the eigen-check reads the verdict of every level 0..n from
    the context, which the spectral suite shares."""
    gamma = ctx.gamma
    if not all(gamma[j] > -1 for j in range(1, ctx.d + 2)):
        return CheckResult(
            "orthogonality", "degenerate", "requires gamma_j > -1 for the integral form"
        )
    defect = (
        _asymmetric_generator(ctx.d, gamma)
        or ctx.eigen_defect(range(ctx.n + 1))
        or _shared_spectrum(ctx.graded, gamma)
    )
    if defect:
        return CheckResult("orthogonality", "fail", defect)
    details = f"{len(ctx.graded)} family members, {comb(ctx.d + 1, 2)} generators"
    return CheckResult("orthogonality", "pass", details)


def reachable_counts(matrices: Sequence[ExactMatrix], size: int) -> list:
    """Number of indices reachable from each index 0..size-1, counting the
    index itself, where a -> b is an edge when some matrix has (b, a) != 0."""
    successors = [
        {b for matrix in matrices for b in range(size) if matrix[(b, a)] != 0}
        for a in range(size)
    ]
    counts = []
    for start in range(size):
        seen = {start}
        frontier = [start]
        while frontier:
            new = successors[frontier.pop()] - seen
            seen |= new
            frontier.extend(new)
        counts.append(len(seen))
    return counts


def irreducibility_check(ctx: ModuleContext) -> CheckResult:
    """The paper's proof route.  M_j P_mu = lambda_j(mu) P_mu on the level
    (the eigen verdict spectral shares) with a simple joint spectrum makes
    the matrices of the Jucys-Murphy sums M_j diagonal with distinct
    eigenvalue tuples, so a subspace that is invariant under the generators
    (hence under every M_j) is spanned by basis vectors.  The orbit of basis
    vector a is then spanned by the indices reachable from a, and the level
    is irreducible when every index reaches all of them.  Without that
    premise the check fails, naming it."""
    premise = ctx.eigen_defect([ctx.n]) or _shared_spectrum(ctx.level, ctx.gamma)
    if premise:
        return CheckResult("irreducibility", "fail", f"premise fails: {premise}")
    size = len(ctx.level)
    dims = reachable_counts(list(ctx.all_generator_matrices().values()), size)
    bad = [ctx.level[i] for i, dim in enumerate(dims) if dim != size]
    if bad:
        return CheckResult(
            "irreducibility",
            "fail",
            f"orbit from {bad[0]} spans {dims[ctx.level.index(bad[0])]} < {size}",
        )
    details = f"full orbit closure from {size} start vectors"
    if ctx.d == 2 and ctx.n >= 2:
        for nu in ctx.level:
            if nu[0] > 0 and nu[1] > 0:
                certificate = certificate_2d(nu, ctx.gamma)
                if certificate == 0:
                    return CheckResult(
                        "irreducibility", "fail", f"certificate D vanishes at {nu}"
                    )
        details += "; interior certificates nonzero"
    return CheckResult("irreducibility", "pass", details)


def _diagonal_conjugacy(pairs: list, size: int) -> bool:
    """Is there one diagonal D with R = D S D^{-1} for every (R, S) pair?"""
    diag = [None] * size
    for seed in range(size):
        if diag[seed] is not None:
            continue
        diag[seed] = Rat(1)
        frontier = [seed]
        while frontier:
            b = frontier.pop()
            for r_matrix, s_matrix in pairs:
                for a in range(size):
                    if diag[a] is None and s_matrix[(a, b)] != 0:
                        if r_matrix[(a, b)] == 0:
                            return False
                        diag[a] = r_matrix[(a, b)] * diag[b] / s_matrix[(a, b)]
                        frontier.append(a)
                    if diag[a] is None and s_matrix[(b, a)] != 0:
                        if r_matrix[(b, a)] == 0:
                            return False
                        diag[a] = s_matrix[(b, a)] * diag[b] / r_matrix[(b, a)]
                        frontier.append(a)
    for r_matrix, s_matrix in pairs:
        for a in range(size):
            for b in range(size):
                if r_matrix[(a, b)] * diag[b] != diag[a] * s_matrix[(a, b)]:
                    return False
    return True


def _restrict(matrix: ExactMatrix, rows: list) -> "ExactMatrix | None":
    """``matrix`` restricted to the block of basis positions ``rows``, or None
    if a column of the block leaks out of it."""
    row_set = set(rows)
    for c in rows:
        if any(matrix[(r, c)] != 0 for r in range(matrix.rows) if r not in row_set):
            return None
    return ExactMatrix([[matrix[(r, c)] for c in rows] for r in rows])


def submodule_diagnostic(ctx: ModuleContext) -> CheckResult:
    """Restrictions to {nu_1 = k} and {nu_3 = ... = nu_d = 0} reproduce the
    lower-dimensional modules (up to a diagonal rescaling for the first)."""
    d, n, gamma = ctx.d, ctx.n, ctx.gamma
    if d < 3:
        return CheckResult("submodules", "pass", "vacuous for d = 2")
    level_pos = {nu: i for i, nu in enumerate(ctx.level)}

    # {nu_1 = k}: invariant under generators not involving index 1, and
    # diagonally conjugate to the (d-1)-variable module with gamma^(2).
    tail_gamma = ParamVector(gamma.gamma[1:])
    for k in range(n + 1):
        block = [nu for nu in ctx.level if nu[0] == k]
        rows = [level_pos[nu] for nu in block]
        sub_ctx = ModuleContext(d - 1, n - k, tail_gamma)
        if [nu[1:] for nu in block] != sub_ctx.level:
            raise InvariantViolation(f"block nu_1={k} is not ordered like the d-1 level")
        pairs = []
        for i, j in combinations(range(2, d + 2), 2):
            restricted = _restrict(ctx.generator_matrix(i, j), rows)
            if restricted is None:
                return CheckResult("submodules", "fail", f"L_({i},{j}) leaks out of the block nu_1={k}")
            lower = sub_ctx.generator_matrix(i - 1, j - 1)
            pairs.append((restricted, lower))
        if not _diagonal_conjugacy(pairs, len(block)):
            return CheckResult(
                "submodules", "fail", f"block nu_1={k} is not conjugate to the d-1 module"
            )

    # {nu_3 = ... = nu_d = 0}: exactly the two-variable module with
    # gamma~ = (gamma_1, gamma_2, gamma_3+...+gamma_{d+1} + d - 2).
    block = [nu for nu in ctx.level if all(v == 0 for v in nu[2:])]
    rows = [level_pos[nu] for nu in block]
    hat_gamma = ParamVector([gamma[1], gamma[2], gamma.tail_sum(3) + d - 2])
    hat_ctx = ModuleContext(2, n, hat_gamma)
    if [nu[:2] for nu in block] != hat_ctx.level:
        raise InvariantViolation("plane block is not ordered like the 2-variable level")
    hats = [
        (ctx.generator_matrix(1, 2), hat_ctx.generator_matrix(1, 2)),
        (ctx.hat_matrix(1), hat_ctx.generator_matrix(1, 3)),
        (ctx.hat_matrix(2), hat_ctx.generator_matrix(2, 3)),
    ]
    for big, lower in hats:
        restricted = _restrict(big, rows)
        if restricted is None:
            return CheckResult(
                "submodules", "fail", "hat operator leaks out of the nu_3..nu_d=0 block"
            )
        if restricted != lower:
            return CheckResult(
                "submodules", "fail", "restricted hat operator differs from the 2-variable module"
            )
    return CheckResult("submodules", "pass", f"{n + 1} tail blocks and the plane block verified")


def generator_rank(d: int, gamma) -> int:
    """Exact rank of the generators' expanded coefficient vectors
    {(derivative, monomial): coefficient}.  A second-order operator is fixed by
    its action on polynomials of degree <= 2, so this is their operator rank."""
    vectors = []
    for op in generator_table(d, require_valid(gamma, d)).values():
        terms = op.terms
        vectors.append({(a, m): c for a, poly in terms.items() for m, c in poly.terms.items()})
    keys = sorted(set().union(*vectors))
    span = SpanBasis(len(keys))
    for vector in vectors:
        span.add([vector.get(key, 0) for key in keys])
    return span.dim


_RELATION_FAILURES = {
    "recovery": "recovery of L_({},{}) fails",
    "dependence": "dependence identity fails",
    "closure": "three-variable closure fails",
}


def verify_relations(ctx: ModuleContext) -> CheckResult:
    """Each row of ``jm_relations`` (recovery of every L_{i,j}, dependence,
    d = 3 closure) as an identity of index pairs, then the generator rank.
    M_j^variant is the sum of the table's generators over ``m_pairs`` and its
    matrix is expanded from that sum, so a pair identity gives the operator
    and matrix identities; the generators are independent for
    every gamma (L_{j,d+1} alone has x_j in its d_j^2 coefficient, L_{i,j},
    j <= d, alone a d_i d_j term), so the operator identity gives the pair one."""
    d = ctx.d
    for kind, target, terms in jm_relations(d):
        if pair_counts(terms, d) != ({target: 1} if target else {}):
            details = _RELATION_FAILURES[kind].format(*(target or ()))
            return CheckResult("relations", "fail", details)
    rank = generator_rank(d, ctx.gamma)
    expected_rank = comb(d + 1, 2)
    if rank != expected_rank:
        return CheckResult(
            "relations", "fail", f"generator rank {rank} != C(d+1,2) = {expected_rank}"
        )
    return CheckResult(
        "relations", "pass", f"recovery, dependence, closure, rank {rank} verified"
    )


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_suites(
    d: int,
    n: int,
    gamma,
    suites: Sequence[str] = SUITES,
    mode: str = "strict",
) -> VerificationReport:
    """The checks of ``suites`` on the cell (d, n, gamma).  ``mode`` is
    unused: it sets only the CLI's exit code, which is computed from the
    reports.  It stays because the benchmark scripts pass it by position."""
    params = require_valid(gamma, d)
    report = VerificationReport(d, n, params)
    ctx = ModuleContext(d, n, params)
    for suite in suites:
        if suite == "spectral":
            report.checks.append(_timed(lambda: verify_spectral(ctx)))
        elif suite == "racah":
            report.checks.append(_timed(lambda: verify_difference_action(ctx)))
        elif suite == "f-relation":
            report.checks.append(_timed(lambda: verify_f_relation(ctx)))
        elif suite == "kd":
            report.checks.append(_timed(lambda: verify_kd(d, params)))
            report.checks.append(_timed(lambda: verify_matrix_commutation(ctx)))
        elif suite == "orthogonality":
            report.checks.append(_timed(lambda: verify_selfadjoint_orthogonal(ctx)))
        elif suite == "irreducibility":
            report.checks.append(_timed(lambda: irreducibility_check(ctx)))
            report.checks.append(_timed(lambda: submodule_diagnostic(ctx)))
        elif suite == "separation":
            report.checks.append(_timed(lambda: verify_separation(ctx)))
        elif suite == "relations":
            report.checks.append(_timed(lambda: verify_relations(ctx)))
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return report
