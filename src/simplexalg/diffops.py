"""Differential operators of the simplex symmetry algebra.

A ``DiffOp`` in d variables is a finite sum of polynomial coefficients times
mixed partial derivatives, stored fully expanded and fraction-free: one
positive integer ``den`` and integer numerators ``nums``, a map from packed
derivative keys to maps from packed exponent keys to nonzero ints, so the
coefficient of x^e d^alpha is nums[alpha][e] / den.  A vector (v_1..v_d) of
exponents or derivative orders packs into one int with 8 bits per entry,
v_1 in the lowest byte, as the exponents of a ``MultiPoly`` do (the packing
lives in ``poly``), so adding exponents is one integer addition; an entry
above 255 raises ``PackingOverflow`` before any key is formed.  The form is
canonical (no zero numerators, gcd(den, every numerator) = 1), so equality
of operators is equality of data, and sums, scalings, compositions and
actions on polynomials run on ints: ``apply`` takes and returns the integer
form of ``MultiPoly``, and the read-only ``terms`` view {derivative tuple:
MultiPoly} is built on each read.

The generators are

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

``generator_table`` builds the generators once per (d, gamma), bounded by
``OPERATOR_CACHE_SIZE``; every other operator of the package (M_j^variant,
the hats, F) is read, summed or composed from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, gcd, lcm, perm, prod
from types import MappingProxyType
from typing import Mapping

from .errors import DimensionMismatch
from .params import ParamVector, require_valid
from .poly import FIELD_MAX, MultiPoly, _check_fields, _degrees, _pack, _unpack
from .scalar import as_rat


def _derive(nums: dict, delta: tuple) -> list:
    """d^delta of every coefficient of ``nums``, as [(beta, [(exponent, numerator)])],
    one variable at a time: d_k^r x^e = (e_k)_r x^(e - r e_k), with the falling
    factorial (e_k)_r."""
    fields = [(8 * k, order) for k, order in enumerate(delta) if order]
    out = []
    for beta, q in nums.items():
        terms = list(q.items())
        for bit, order in fields:
            terms = [
                (e - (order << bit), n * w)
                for e, n in terms
                if (w := perm((e >> bit) & FIELD_MAX, order))
            ]
        if terms:
            out.append((beta, terms))
    return out


def _leibniz(p_nums: dict, q_nums: dict, dim: int, full: bool = True, derived=None) -> dict:
    """Numerators of p o q by the Leibniz rule, in one pass,

        p d^alpha o q d^beta
            = sum_{delta <= alpha} C(alpha, delta) p (d^delta q) d^(alpha-delta+beta),

    where every term is an integer weight times one numerator of p and one
    of q.  With ``full`` false only delta = alpha is taken: when q is a
    polynomial (beta = 0 only), that is the order-0 part, p applied to q.
    ``derived`` {delta: d^delta q} is read and filled, so a caller that
    passes one dict for one q differentiates it once per delta."""
    derived = {} if derived is None else derived
    accumulators: dict = {}
    for alpha, p in p_nums.items():
        p_items = list(p.items())
        orders = _unpack(alpha, dim)
        deltas = product(*(range(a + 1) for a in orders)) if full else (orders,)
        for delta in deltas:
            dq = derived.get(delta)
            if dq is None:
                dq = derived[delta] = _derive(q_nums, delta)
            binomial = prod(map(comb, orders, delta))
            base = alpha - _pack(delta)
            for beta, q in dq:
                acc = accumulators.get(base + beta)
                if acc is None:
                    acc = accumulators[base + beta] = {}
                get = acc.get
                for e1, n1 in p_items:
                    n1 *= binomial
                    for e2, n2 in q:
                        key = e1 + e2
                        acc[key] = get(key, 0) + n1 * n2
    return accumulators


class DiffOp:
    """Finite sum of polynomial coefficients times partial derivatives, kept
    as integer numerators over one denominator (see the module docstring).

    ``DiffOp(dim, {derivative tuple: MultiPoly or scalar})`` validates and
    packs; ``terms`` is the same data as {derivative tuple: MultiPoly},
    built on each read.  ``top`` bounds every entry of every derivative and
    exponent vector, so a result whose entries could leave the packed field
    raises ``PackingOverflow`` before it is computed."""

    __slots__ = ("dim", "den", "nums", "top")

    def __init__(self, dim: int, terms: Mapping = ()):
        coefficients = {}
        for deriv, coefficient in dict(terms).items():
            deriv = tuple(int(e) for e in deriv)
            if len(deriv) != dim or any(e < 0 for e in deriv):
                raise ValueError(f"bad derivative index {deriv} for dim {dim}")
            if not isinstance(coefficient, MultiPoly):
                coefficient = MultiPoly.const(dim, coefficient)
            if coefficient.dim != dim:
                raise DimensionMismatch("coefficient dimension mismatch")
            if not coefficient.is_zero():
                coefficients[deriv] = coefficient
        top = max(chain.from_iterable(coefficients), default=0)
        _check_fields(top, "an exponent or derivative order")
        exponents = (_degrees(poly.nums, dim) for poly in coefficients.values())
        top = max(chain([top], *exponents))
        den = lcm(*(poly.den for poly in coefficients.values()))
        nums = {
            _pack(deriv): {e: n * (den // poly.den) for e, n in poly.nums.items()}
            for deriv, poly in coefficients.items()
        }
        self._set(dim, den, nums, top)

    def _set(self, dim: int, den: int, nums: dict, top: int):
        for name, value in (("dim", dim), ("den", den), ("nums", nums), ("top", top)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _canonical(cls, dim: int, den: int, nums: dict, top: int) -> "DiffOp":
        """Trusted constructor: ``nums`` holds no zero numerators and no empty
        coefficient; the content shared with ``den`` is divided out."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(map(dict.values, nums.values())))
            if g != 1:
                den //= g
                nums = {a: {e: n // g for e, n in m.items()} for a, m in nums.items()}
        self = object.__new__(cls)
        self._set(dim, den, nums, top)
        return self

    @classmethod
    def zero(cls, dim: int) -> "DiffOp":
        return cls(dim)

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only {derivative tuple: MultiPoly}, built on each read, so that
        an operator kept in the generator table keeps no view."""
        dim, den, top = self.dim, self.den, self.top
        return MappingProxyType({
            _unpack(alpha, dim): MultiPoly._canonical(dim, den, dict(m), top)
            for alpha, m in self.nums.items()
        })

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.nums == other.nums

    def _check_dim(self, other: "DiffOp"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"operators in {self.dim} and {other.dim} variables")

    # -- linear algebra ----------------------------------------------------

    def _combine(self, other: "DiffOp", sign: int) -> "DiffOp":
        """self + sign * other over lcm(self.den, other.den)."""
        self._check_dim(other)
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        out = {a: {e: n * mine for e, n in m.items()} for a, m in self.nums.items()}
        for beta, m in other.nums.items():
            acc = out.get(beta)
            if acc is None:
                out[beta] = {e: n * theirs for e, n in m.items()}
                continue
            for e, n in m.items():
                total = acc.get(e, 0) + n * theirs
                if total:
                    acc[e] = total
                else:
                    del acc[e]
            if not acc:
                del out[beta]
        return DiffOp._canonical(self.dim, den, out, max(self.top, other.top))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return self._combine(other, 1)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self._combine(other, -1)

    def scale(self, value) -> "DiffOp":
        value = as_rat(value)
        if not value:
            return DiffOp.zero(self.dim)
        factor = value.numerator
        nums = {a: {e: n * factor for e, n in m.items()} for a, m in self.nums.items()}
        return DiffOp._canonical(self.dim, self.den * value.denominator, nums, self.top)

    # -- composition and action --------------------------------------------

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition (self after other) by the Leibniz rule, on the
        integer numerators over den(self) * den(other)."""
        self._check_dim(other)
        top = self.top + other.top
        _check_fields(top, "a composed exponent or derivative order")
        out = {}
        for deriv, acc in _leibniz(self.nums, other.nums, self.dim).items():
            acc = {e: n for e, n in acc.items() if n}
            if acc:
                out[deriv] = acc
        return DiffOp._canonical(self.dim, self.den * other.den, out, top)

    def apply(self, poly: MultiPoly, derivatives: dict | None = None) -> MultiPoly:
        """The polynomial self(poly): poly's integer numerators differentiated
        by falling factorials and multiplied by the operator's, over
        den(self) * den(poly); no ``Rat`` is made.  ``derivatives``, a dict
        kept for this one poly, caches its derivatives, so every operator
        applied to poly with that dict shares each d^alpha poly."""
        if poly.dim != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim}, polynomial dim {poly.dim}")
        dim = self.dim
        top = self.top + poly.top
        if top > FIELD_MAX:
            top = self.top + max(_degrees(poly.nums, dim), default=0)
            _check_fields(top, "an exponent of the image")
        image = _leibniz(self.nums, {0: poly.nums}, dim, False, derivatives).get(0, {})
        nums = {e: n for e, n in image.items() if n}
        return MultiPoly._canonical(dim, self.den * poly.den, nums, top)

    def __repr__(self) -> str:
        if not self.nums:
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


#: Most (d, gamma) entries each per-process cache keeps: the generator table
#: here, the Jacobi factors of ``jacobi``, and the operator verdicts and the
#: family store of ``verify``.  Every reuse on the CLI paths is within one
#: (d, gamma) group of cells, so a few entries keep every hit.
OPERATOR_CACHE_SIZE = 8


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def generator_table(d: int, params: ParamVector) -> Mapping:
    """Read-only {(i, j): L_{i,j}} for 1 <= i < j <= d+1, built once per (d, gamma)."""
    pairs = combinations(range(1, d + 2), 2)
    return MappingProxyType({(i, j): l_operator(i, j, d, params) for i, j in pairs})


def pair_sum(pairs, d: int, gamma) -> DiffOp:
    """Sum of the table's generators L_{k,l} over the index pairs (either order)."""
    table = generator_table(d, require_valid(gamma, d))
    return sum((table[min(k, l), max(k, l)] for k, l in pairs), DiffOp.zero(d))


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
    """Jucys-Murphy sum M_j (variant plain) or its cyclic images M_j^+/M_j^-,
    summed from the generator table."""
    return pair_sum(m_pairs(j, d, variant), d, gamma)


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
    """The fourth-order combination F(L_{i,k}, L_{i,l}, L_{j,k}, L_{j,l}, L_{k,l})
    of the table's generators.

    Satisfies (1 - g_k^2)(1 - g_l^2) L_{i,j} = F as an operator identity, so it
    recovers L_{i,j} from the five generators involving indices k and l.
    """
    if len({i, j, k, l}) != 4:
        raise ValueError("indices i, j, k, l must be distinct")
    params = require_valid(gamma, d)
    for index in (i, j, k, l):
        if not 1 <= index <= d + 1:
            raise ValueError(f"index {index} out of range for d = {d}")
    table = generator_table(d, params)
    return f_formula(lambda a, b: table[min(a, b), max(a, b)], i, j, k, l, params)


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
