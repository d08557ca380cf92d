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

One Leibniz kernel, ``_leibniz``, serves ``@``, ``apply``, the commutator,
the anticommutator and the product in both orders: it sums the terms of
the delta it is told to take, times a weight, into an accumulator it is
given.  The delta = 0 terms p q d^(alpha+beta) of p d^alpha o q d^beta are
the same in both orders, so a commutator never forms them, an
anticommutator forms them once and doubles them, and ``both_orders``
shares one pass over them.  Each right factor memoizes its coefficient
derivatives {delta: d^delta} on itself, so a verdict differentiates each
generator once per delta.  ``DiffOp.combination`` sums (scalar, operator)
pairs in one pass over one common denominator, as ``MultiPoly.combination``
does for polynomials; the generator sums and the terms of F go through it.

``generator_table`` builds the generators once per (d, gamma), bounded by
``OPERATOR_CACHE_SIZE``; every other operator of the package (M_j^variant,
the hats, F) is read, summed or composed from it, and the memos of the
table's generators are dropped with their table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice, product
from math import comb, gcd, lcm, perm, prod
from types import MappingProxyType
from typing import Mapping

from .errors import DimensionMismatch
from .params import ParamVector, require_valid
from .poly import FIELD_MAX, MultiPoly, _check_fields, _degrees, _pack, _unpack
from .scalar import as_rat


def _derive(nums: dict, delta: tuple) -> list:
    """d^delta of every coefficient of ``nums``, as [(beta, [(exponent, numerator)])]:
    d^delta x^e = prod_k (e_k)_(delta_k) x^(e - delta), with the falling
    factorials (e_k)_r, which vanish where r > e_k."""
    fields = [(8 * k, order) for k, order in enumerate(delta) if order]
    step = _pack(delta)
    out = []
    for beta, q in nums.items():
        terms = []
        for e, n in q.items():
            for bit, order in fields:
                n *= perm((e >> bit) & FIELD_MAX, order)
            if n:
                terms.append((e - step, n))
        if terms:
            out.append((beta, terms))
    return out


# Which delta <= alpha the Leibniz kernel sums, as a function of alpha's orders.


def _every(orders: tuple):
    return product(*(range(a + 1) for a in orders))


def _nonzero(orders: tuple):
    return islice(_every(orders), 1, None)  # _every yields delta = 0 first


def _zero(orders: tuple):
    return ((0,) * len(orders),)


def _whole(orders: tuple):
    return (orders,)


def _leibniz(p_nums: dict, q_nums: dict, dim: int, *, deltas, derived: dict, into: dict,
             weight: int = 1) -> dict:
    """Add weight times the Leibniz terms of p o q that ``deltas`` picks into ``into``,

        p d^alpha o q d^beta
            = sum_{delta <= alpha} C(alpha, delta) p (d^delta q) d^(alpha-delta+beta),

    where every term is an integer weight times one numerator of p and one
    of q.  ``deltas`` is ``_every`` for a composition, ``_zero`` or
    ``_nonzero`` for its delta = 0 terms p q d^(alpha+beta) or the rest, and
    ``_whole`` (delta = alpha) for p applied to a polynomial q (beta = 0
    only).  ``derived`` {delta: d^delta q} is read and filled, so a caller
    that passes one dict for one q differentiates it once per delta."""
    for alpha, p in p_nums.items():
        orders = _unpack(alpha, dim)
        for delta in deltas(orders):
            dq = derived.get(delta)
            if dq is None:
                dq = derived[delta] = _derive(q_nums, delta)
            if not dq:
                continue
            w = weight * prod(map(comb, orders, delta))
            p_items = [(e, n * w) for e, n in p.items()]
            base = alpha - _pack(delta)
            for beta, q in dq:
                acc = into.get(base + beta)
                if acc is None:
                    acc = into[base + beta] = {}
                get = acc.get
                for e1, n1 in p_items:
                    for e2, n2 in q:
                        key = e1 + e2
                        acc[key] = get(key, 0) + n1 * n2
    return into


def _stripped(accumulators: dict) -> dict:
    """Numerators {alpha: {e: n}} with the zeros and the empty coefficients
    of the ``accumulators`` left out."""
    out = {}
    for alpha, acc in accumulators.items():
        acc = {e: n for e, n in acc.items() if n}
        if acc:
            out[alpha] = acc
    return out


class DiffOp:
    """Finite sum of polynomial coefficients times partial derivatives, kept
    as integer numerators over one denominator (see the module docstring).

    ``DiffOp(dim, {derivative tuple: MultiPoly or scalar})`` validates and
    packs; ``terms`` is the same data as {derivative tuple: MultiPoly},
    built on each read.  ``top`` bounds every entry of every derivative and
    exponent vector, so a result whose entries could leave the packed field
    raises ``PackingOverflow`` before it is computed.  ``_derived`` memoizes
    {delta: d^delta of every coefficient} for the operator as a right factor,
    filled by the Leibniz kernel on first use."""

    __slots__ = ("dim", "den", "nums", "top", "_derived")

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
        values = (("dim", dim), ("den", den), ("nums", nums), ("top", top), ("_derived", None))
        for name, value in values:
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

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp.combination(self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp.combination(self.dim, ((1, self), (-1, other)))

    def scale(self, value) -> "DiffOp":
        value = as_rat(value)
        if not value:
            return DiffOp.zero(self.dim)
        factor = value.numerator
        nums = {a: {e: n * factor for e, n in m.items()} for a, m in self.nums.items()}
        return DiffOp._canonical(self.dim, self.den * value.denominator, nums, self.top)

    @classmethod
    def combination(cls, dim: int, pairs) -> "DiffOp":
        """The sum of c * op over the (scalar c, operator op) ``pairs``, in one
        pass on integers over the lcm of the denominators den(c) * den(op)."""
        pairs = [(as_rat(c), op) for c, op in pairs]
        den = lcm(*(c.denominator * op.den for c, op in pairs))
        out: dict = {}
        for c, op in pairs:
            if op.dim != dim:
                raise DimensionMismatch(f"an operator in {op.dim} variables, expected {dim}")
            weight = c.numerator * (den // (c.denominator * op.den))
            for alpha, m in op.nums.items():
                acc = out.get(alpha)
                if acc is None:
                    acc = out[alpha] = {}
                get = acc.get
                for e, n in m.items():
                    acc[e] = get(e, 0) + weight * n
        top = max((op.top for _, op in pairs), default=0)
        return cls._canonical(dim, den, _stripped(out), top)

    # -- composition and action --------------------------------------------

    def _derivatives(self) -> dict:
        """The memo {delta: d^delta of every coefficient}, made on first use."""
        if self._derived is None:
            object.__setattr__(self, "_derived", {})
        return self._derived

    def _product_top(self, other: "DiffOp") -> int:
        """A bound on every entry of a product of self and other, in either
        order; PackingOverflow where an entry could leave the packed field."""
        self._check_dim(other)
        top = self.top + other.top
        _check_fields(top, "a composed exponent or derivative order")
        return top

    def _products(self, other: "DiffOp", passes, into: dict) -> "DiffOp":
        """The operator over den(self) * den(other) whose numerators are
        ``into`` plus, for each (left, right, deltas, weight) of ``passes``,
        weight times the Leibniz terms of left o right that ``deltas`` picks."""
        top = self._product_top(other)
        for left, right, deltas, weight in passes:
            _leibniz(
                left.nums, right.nums, self.dim,
                deltas=deltas, derived=right._derivatives(), into=into, weight=weight,
            )
        return DiffOp._canonical(self.dim, self.den * other.den, _stripped(into), top)

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition (self after other) by the Leibniz rule, on the
        integer numerators over den(self) * den(other)."""
        return self._products(other, [(self, other, _every, 1)], {})

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """[self, other]: the delta = 0 terms p q d^(alpha+beta) of the two
        products are equal and cancel, so neither is formed."""
        passes = [(self, other, _nonzero, 1), (other, self, _nonzero, -1)]
        return self._products(other, passes, {})

    def anticommutator(self, other: "DiffOp") -> "DiffOp":
        """{self, other}: the equal delta = 0 terms of the two products are
        formed once and doubled."""
        passes = [(self, other, _zero, 2), (self, other, _nonzero, 1), (other, self, _nonzero, 1)]
        return self._products(other, passes, {})

    def both_orders(self, other: "DiffOp") -> tuple:
        """(self @ other, other @ self), whose equal delta = 0 terms are formed
        in one pass that both share."""
        self._product_top(other)  # no key is formed before the check
        shared = _leibniz(
            self.nums, other.nums, self.dim, deltas=_zero, derived=other._derivatives(), into={}
        )
        copy = {alpha: dict(m) for alpha, m in shared.items()}
        return (
            self._products(other, [(self, other, _nonzero, 1)], shared),
            self._products(other, [(other, self, _nonzero, 1)], copy),
        )

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
        derived = {} if derivatives is None else derivatives
        image = _leibniz(self.nums, {0: poly.nums}, dim, deltas=_whole, derived=derived, into={})
        nums = {e: n for e, n in image.get(0, {}).items() if n}
        return MultiPoly._canonical(dim, self.den * poly.den, nums, top)

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for deriv, coefficient in sorted(self.terms.items()):
            ds = "".join(f"d{i + 1}^{e}" if e > 1 else f"d{i + 1}" for i, e in enumerate(deriv) if e)
            parts.append(f"({coefficient!r}){ds or ''}")
        return " + ".join(parts)


commutator = DiffOp.commutator
anticommutator = DiffOp.anticommutator


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
    return DiffOp.combination(d, [(1, table[min(k, l), max(k, l)]) for k, l in pairs])


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
    terms = f_formula(lambda a, b: table[min(a, b), max(a, b)], i, j, k, l, params)
    return DiffOp.combination(d, terms)


def f_formula(generator, i: int, j: int, k: int, l: int, gamma) -> list:
    """F(L_{i,k}, L_{i,l}, L_{j,k}, L_{j,l}, L_{k,l}) as its terms, the pairs
    (coefficient, element) whose sum is F, over any ring whose elements have
    ``@``, ``-``, ``commutator``, ``anticommutator`` and ``both_orders``
    (the pair a @ b, b @ a); ``generator(a, b)`` is the image of L_{a,b}.
    The package sums the terms over differential operators with
    ``DiffOp.combination``.  The matrix ring, in which
    ``f_relation_matrix_oracle`` evaluates it on the generator matrices of a
    level, is ``RingMatrix`` in ``tests/oracles.py``."""
    gi, gj, gk, gl = gamma[i], gamma[j], gamma[k], gamma[l]
    ik, il, jk, jl, kl = (generator(a, b) for a, b in ((i, k), (i, l), (j, k), (j, l), (k, l)))
    jk_kl = jk.commutator(kl)
    # each of these products enters both a commutator and an anticommutator
    ik_kl, kl_ik = ik.both_orders(kl)
    jl_kl, kl_jl = jl.both_orders(kl)
    return [
        (1, jk_kl.anticommutator(ik_kl - kl_ik)),
        (-1, kl.anticommutator(ik.commutator(jk_kl))),
        (-2, kl.anticommutator(ik @ jl)),
        ((1 + gk) * (1 + gl), ik.commutator(kl_jl - jl_kl)),
        ((1 + gj) * (1 + gl), ik_kl),
        ((1 + gj) * (1 + gl), kl_ik),
        (1 - gl * gl, ik.anticommutator(jk)),
        (1 - gk * gk, il.anticommutator(jl)),
        ((1 + gi) * (1 + gk), jl_kl),
        ((1 + gi) * (1 + gk), kl_jl),
        (-4, jk @ il),
        (2 * (-1 + gk + gl + gk * gl), jl @ ik),
        (-2 * gk * (1 + gj) * (1 + gl), ik),
        ((1 + gj) * (1 + gk) * (1 + gk - gl + gk * gl), il),
        ((1 + gi) * (1 + gl) * (1 - gk + gl + gk * gl), jk),
        (-2 * (1 + gi) * (1 + gk) * gl, jl),
        (-(1 + gi) * (1 + gj) * (1 + gk) * (1 + gl), kl),
    ]
