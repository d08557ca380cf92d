"""Differential operators of the simplex symmetry algebra.

A ``DiffOp`` in d variables is a finite sum of polynomial coefficients times
mixed partial derivatives, stored fully expanded as a map from derivative
multi-indices to ``MultiPoly`` coefficients.  The generators are

    L_{i,j} = x_i x_j (d_i - d_j)^2 + ((g_i+1) x_j - (g_j+1) x_i)(d_i - d_j)
                                                   for 1 <= i < j <= d,
    L_{j,d+1} = x_j (1-|x|) d_j^2 + ((g_j+1)(1-|x|) - (g_{d+1}+1) x_j) d_j,

symmetric in the index pair.  Their sum L over all pairs has the closed form

    L = sum_k x_k(1-x_k) d_k^2 - 2 sum_{k<j} x_k x_j d_k d_j
        + sum_k (g_k + 1 - (|g|+d+1) x_k) d_k,

and the Jucys-Murphy sums M_j = sum_{j<=k<l<=d+1} L_{k,l} form a commuting
family; M_j^+/M_j^- apply the cyclic index shift tau = (1,2,...,d+1) or its
inverse to every pair.  Compositions use the Leibniz rule, so commutator and
anticommutator identities become literal equality of expanded data.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, lcm, perm
from typing import Mapping

from .errors import DimensionMismatch
from .params import require_valid
from .poly import MultiPoly
from .scalar import Rat, as_rat


class DiffOp:
    """Finite sum of MultiPoly coefficients times partial derivatives."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping = ()):
        canonical = {}
        for deriv, coefficient in dict(terms).items():
            deriv = tuple(int(e) for e in deriv)
            if len(deriv) != dim or any(e < 0 for e in deriv):
                raise ValueError(f"bad derivative index {deriv} for dim {dim}")
            if not isinstance(coefficient, MultiPoly):
                coefficient = MultiPoly.const(dim, coefficient)
            if coefficient.dim != dim:
                raise DimensionMismatch("coefficient dimension mismatch")
            if not coefficient.is_zero():
                canonical[deriv] = coefficient
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "DiffOp":
        """Trusted constructor: ``terms`` is already canonical (internal use)."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, dim: int) -> "DiffOp":
        return cls(dim)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def _check_dim(self, other: "DiffOp"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"operators in {self.dim} and {other.dim} variables")

    # -- linear algebra ----------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check_dim(other)
        out = dict(self.terms)
        for deriv, coefficient in other.terms.items():
            total = out[deriv] + coefficient if deriv in out else coefficient
            if total:
                out[deriv] = total
            else:
                del out[deriv]
        return DiffOp._raw(self.dim, out)

    def __neg__(self) -> "DiffOp":
        return DiffOp._raw(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, value) -> "DiffOp":
        value = as_rat(value)
        return DiffOp(self.dim, {a: c.scale(value) for a, c in self.terms.items()})

    # -- composition and action --------------------------------------------

    def _numerators(self) -> tuple:
        """(D, {alpha: [(exponent, N)]}) with every coefficient N / D, N an int."""
        den = 1
        for poly in self.terms.values():
            for c in poly.terms.values():
                den = lcm(den, c.denominator)
        return den, {
            alpha: [(e, c.numerator * (den // c.denominator)) for e, c in poly.terms.items()]
            for alpha, poly in self.terms.items()
        }

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition (self after other) via the Leibniz rule,

            p d^alpha o q d^beta
                = sum_{delta <= alpha} C(alpha, delta) p (d^delta q) d^(alpha-delta+beta),

        in one pass: d^delta x^e = (e)_delta x^(e-delta) with the falling
        factorial (e)_delta, so every term of the result is an integer weight
        times one coefficient of p and one of q.  The coefficients are taken
        over a common denominator, so the accumulation is in integers."""
        self._check_dim(other)
        p_den, p_terms = self._numerators()
        q_den, q_terms = other._numerators()
        accumulators: dict = {}
        for alpha, p in p_terms.items():
            for delta in product(*(range(a + 1) for a in alpha)):
                binomial = 1
                for a, dlt in zip(alpha, delta):
                    binomial *= comb(a, dlt)
                for beta, q in q_terms.items():
                    deriv = tuple(a - dlt + b for a, dlt, b in zip(alpha, delta, beta))
                    acc = accumulators.get(deriv)
                    if acc is None:
                        acc = accumulators[deriv] = {}
                    get = acc.get
                    for e2, n2 in q:
                        weight = binomial
                        for e, dlt in zip(e2, delta):
                            if dlt:
                                weight *= perm(e, dlt)
                        if not weight:
                            continue
                        weighted = weight * n2
                        shifted = tuple(e - dlt for e, dlt in zip(e2, delta))
                        for e1, n1 in p:
                            exponent = tuple(a + b for a, b in zip(e1, shifted))
                            acc[exponent] = get(exponent, 0) + n1 * weighted
        den = p_den * q_den
        out = {}
        for deriv, acc in accumulators.items():
            terms = {exponent: Rat(n, den) for exponent, n in acc.items() if n}
            if terms:
                out[deriv] = MultiPoly._raw(self.dim, terms)
        return DiffOp._raw(self.dim, out)

    def apply(self, poly: MultiPoly) -> MultiPoly:
        if poly.dim != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim}, polynomial dim {poly.dim}")
        result = MultiPoly.zero(self.dim)
        for deriv, coefficient in self.terms.items():
            dp = poly.deriv_multi(deriv)
            if not dp.is_zero():
                result = result + coefficient * dp
        return result

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for deriv, coefficient in sorted(self.terms.items()):
            ds = "".join(f"d{i + 1}^{e}" if e > 1 else f"d{i + 1}" for i, e in enumerate(deriv) if e)
            parts.append(f"({coefficient!r}){ds or ''}")
        return " + ".join(parts)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return (a @ b) - (b @ a)


def anticommutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return (a @ b) + (b @ a)


# -- the generators ----------------------------------------------------------


def l_operator(i: int, j: int, d: int, gamma) -> DiffOp:
    """The second-order generator L_{i,j}, 1 <= i < j <= d+1 (order-symmetric)."""
    params = require_valid(gamma, d)
    if i == j:
        raise ValueError("indices must be distinct")
    i, j = min(i, j), max(i, j)
    if not (1 <= i < j <= d + 1):
        raise ValueError(f"index pair ({i},{j}) out of range for d = {d}")
    x = [MultiPoly.variable(d, k) for k in range(d)]
    if j <= d:
        xi, xj = x[i - 1], x[j - 1]
        quad = xi * xj
        lin = xj.scale(params[i] + 1) - xi.scale(params[j] + 1)
        ei, ej = [0] * d, [0] * d
        ei[i - 1], ej[j - 1] = 1, 1
        terms = {
            tuple(2 * a for a in ei): quad,
            tuple(2 * a for a in ej): quad,
            tuple(a + b for a, b in zip(ei, ej)): quad.scale(-2),
            tuple(ei): lin,
            tuple(ej): -lin,
        }
        return DiffOp(d, terms)
    # j = d + 1 case: the remaining coordinate is 1 - |x|
    one_minus = MultiPoly.const(d, 1)
    for k in range(d):
        one_minus = one_minus - x[k]
    xi = x[i - 1]
    quad = xi * one_minus
    lin = one_minus.scale(params[i] + 1) - xi.scale(params[d + 1] + 1)
    ei = [0] * d
    ei[i - 1] = 1
    return DiffOp(d, {tuple(2 * a for a in ei): quad, tuple(ei): lin})


def l_total(d: int, gamma) -> DiffOp:
    """Sum of all generators: M_1, whose pairs are all the pairs."""
    return m_operator(1, d, gamma)


def _cycle(index: int, d: int, power: int) -> int:
    """tau^power applied to an index in {1..d+1}, tau = (1,2,...,d+1)."""
    return (index - 1 + power) % (d + 1) + 1


def m_pairs(j: int, d: int, variant: str = "plain") -> list:
    """Index pairs {k, l} with j <= k < l <= d+1, cycled like M_j^variant's."""
    if not 1 <= j <= d:
        raise ValueError(f"index {j} out of range for d = {d}")
    power = {"plain": 0, "plus": 1, "minus": -1}[variant]
    return [
        (_cycle(k, d, power), _cycle(l, d, power)) for k, l in combinations(range(j, d + 2), 2)
    ]


def m_operator(j: int, d: int, gamma, variant: str = "plain") -> DiffOp:
    """Jucys-Murphy sum M_j (variant plain) or its cyclic images M_j^+/M_j^-."""
    pairs = m_pairs(j, d, variant)
    params = require_valid(gamma, d)
    result = DiffOp.zero(d)
    for k, l in pairs:
        result = result + l_operator(k, l, d, params)
    return result


def jm_relations(d: int) -> list:
    """Linear relations among the M_j^variant (M_k^variant = 0 for k > d) as
    rows (kind, target pair or None, [(sign, j, variant), ...]), each reading
    L_target (or 0) = sum of sign M_j^variant: the 2d recoveries of L_{1,j}
    and L_{i,d+1} (L_{1,d+1} has two), the dependence identity, and at d = 3
    the closure of L_{1,2}, L_{1,3}, L_{1,4}, L_{2,4}."""
    rows = []
    for j in range(2, d + 2):
        terms = [(1, j - 1, "plus"), (1, j + 1, "plain"), (-1, j, "plain"), (-1, j, "plus")]
        rows.append(("recovery", (1, j), terms))
    for i in range(1, d + 1):
        terms = [(1, i, "plain"), (1, i + 2, "minus"), (-1, i + 1, "minus"), (-1, i + 1, "plain")]
        rows.append(("recovery", (i, d + 1), terms))
    dependence = [(1, 1, "plain"), (-1, 2, "plain"), (-1, 2, "minus"), (1, 3, "minus")]
    rows.append(("dependence", None, dependence + [(-1, d, "plus")]))
    if d == 3:
        total, l234, l34 = (1, "plain"), (2, "plain"), (3, "plain")
        l134, l123, l23 = (2, "plus"), (2, "minus"), (3, "minus")
        for target, signed in (
            ((1, 2), [(1, total), (-1, l134), (-1, l234), (1, l34)]),
            ((1, 3), [(1, l123), (1, l134), (1, l234), (-1, total), (-1, l23), (-1, l34)]),
            ((1, 4), [(1, total), (-1, l123), (-1, l234), (1, l23)]),
            ((2, 4), [(1, l234), (-1, l23), (-1, l34)]),
        ):
            rows.append(("closure", target, [(sign, j, variant) for sign, (j, variant) in signed]))
    return rows


def pair_counts(terms, d: int) -> dict:
    """Signed count of each index pair (k, l), k < l, in the sum of
    sign M_j^variant over ``terms``; M_j^variant = 0 for j > d, and pairs whose
    counts cancel are left out."""
    counts: dict = {}
    for sign, j, variant in terms:
        if j > d:
            continue
        for k, l in m_pairs(j, d, variant):
            pair = (min(k, l), max(k, l))
            counts[pair] = counts.get(pair, 0) + sign
    return {pair: count for pair, count in counts.items() if count}


def f_combination(i: int, j: int, k: int, l: int, d: int, gamma) -> DiffOp:
    """The fourth-order combination F(L_{i,k}, L_{i,l}, L_{j,k}, L_{j,l}, L_{k,l}).

    Satisfies (1 - g_k^2)(1 - g_l^2) L_{i,j} = F as an operator identity, so it
    recovers L_{i,j} from the five generators involving indices k and l.
    """
    if len({i, j, k, l}) != 4:
        raise ValueError("indices i, j, k, l must be distinct")
    params = require_valid(gamma, d)
    for index in (i, j, k, l):
        if not 1 <= index <= d + 1:
            raise ValueError(f"index {index} out of range for d = {d}")
    return f_formula(lambda a, b: l_operator(a, b, d, params), i, j, k, l, params)


def f_formula(generator, i: int, j: int, k: int, l: int, gamma):
    """F(L_{i,k}, L_{i,l}, L_{j,k}, L_{j,l}, L_{k,l}) over any ring with ``@``,
    ``+``, ``-`` and ``scale``; ``generator(a, b)`` is the image of L_{a,b}.
    The package evaluates it on differential operators only.  The matrix
    ring, in which ``f_relation_matrix_oracle`` evaluates it on the generator
    matrices of a level, is ``RingMatrix`` in ``tests/oracles.py``."""
    gi, gj, gk, gl = gamma[i], gamma[j], gamma[k], gamma[l]
    ik, il, jk, jl, kl = (generator(a, b) for a, b in ((i, k), (i, l), (j, k), (j, l), (k, l)))
    jk_kl = commutator(jk, kl)
    # each of these products enters both a commutator and an anticommutator
    ik_kl, kl_ik, jl_kl, kl_jl = ik @ kl, kl @ ik, jl @ kl, kl @ jl
    return (
        anticommutator(jk_kl, ik_kl - kl_ik)
        - anticommutator(kl, commutator(ik, jk_kl))
        - anticommutator(kl, ik @ jl).scale(2)
        + commutator(ik, kl_jl - jl_kl).scale((1 + gk) * (1 + gl))
        + (ik_kl + kl_ik).scale((1 + gj) * (1 + gl))
        + anticommutator(ik, jk).scale(1 - gl * gl)
        + anticommutator(il, jl).scale(1 - gk * gk)
        + (jl_kl + kl_jl).scale((1 + gi) * (1 + gk))
        - (jk @ il).scale(4)
        + (jl @ ik).scale(2 * (-1 + gk + gl + gk * gl))
        - ik.scale(2 * gk * (1 + gj) * (1 + gl))
        + il.scale((1 + gj) * (1 + gk) * (1 + gk - gl + gk * gl))
        + jk.scale((1 + gi) * (1 + gl) * (1 - gk + gl + gk * gl))
        - jl.scale(2 * (1 + gi) * (1 + gk) * gl)
        - kl.scale((1 + gi) * (1 + gj) * (1 + gk) * (1 + gl))
    )
