"""Sparse multivariate polynomials over the exact rationals.

A polynomial in ``d`` variables is a map from exponent tuples (length ``d``,
nonnegative ints) to nonzero rational coefficients.  The zero polynomial has
an empty term map.  All arithmetic is exact and results are always canonical
(no stored zero coefficients).

Terms print in graded lexicographic order: higher total degree first, ties
broken by the larger exponent tuple.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping

from .errors import DimensionMismatch
from .scalar import ONE, Rat, as_rat, rat_str

Exponent = "tuple[int, ...]"


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping = ()):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        canonical = {}
        for exponent, coefficient in dict(terms).items():
            exponent = tuple(int(e) for e in exponent)
            if len(exponent) != dim or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for dim {dim}")
            coefficient = as_rat(coefficient)
            if coefficient != 0:
                canonical[exponent] = coefficient
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "MultiPoly":
        """Trusted constructor: ``terms`` is already canonical (internal use)."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls._raw(dim, {})

    @classmethod
    def const(cls, dim: int, value) -> "MultiPoly":
        return cls(dim, {(0,) * dim: as_rat(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "MultiPoly":
        """The variable x_{index+1} (0-based ``index``)."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exponent = [0] * dim
        exponent[index] = 1
        return cls(dim, {tuple(exponent): ONE})

    @classmethod
    def monomial(cls, dim: int, exponent: Iterable[int], coefficient=1) -> "MultiPoly":
        return cls(dim, {tuple(exponent): as_rat(coefficient)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max |exponent| over stored terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -------------------------------------------------------

    def _check_dim(self, other: "MultiPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"polynomials in {self.dim} and {other.dim} variables")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for exponent, coefficient in other.terms.items():
            value = out.get(exponent, 0) + coefficient
            if value == 0:
                out.pop(exponent, None)
            else:
                out[exponent] = value
        return MultiPoly._raw(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_dim(other)
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exponent = tuple(a + b for a, b in zip(e1, e2))
                out[exponent] = get(exponent, 0) + c1 * c2
        for exponent in [e for e, c in out.items() if c == 0]:
            del out[exponent]
        return MultiPoly._raw(self.dim, out)

    __rmul__ = __mul__

    def scale(self, value) -> "MultiPoly":
        value = as_rat(value)
        if value == 0:
            return MultiPoly.zero(self.dim)
        return MultiPoly._raw(self.dim, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MultiPoly.const(self.dim, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def deriv(self, index: int, order: int = 1) -> "MultiPoly":
        """Partial derivative d^order / dx_{index+1}^order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        poly = self
        for _ in range(order):
            out = {}
            for exponent, coefficient in poly.terms.items():
                e = exponent[index]
                if e == 0:
                    continue
                new_exp = exponent[:index] + (e - 1,) + exponent[index + 1 :]
                out[new_exp] = out.get(new_exp, 0) + coefficient * e
            poly = MultiPoly._raw(self.dim, out)
        return poly

    def deriv_multi(self, orders) -> "MultiPoly":
        poly = self
        for index, order in enumerate(orders):
            if order:
                poly = poly.deriv(index, order)
        return poly

    def evaluate(self, point) -> Rat:
        point = [as_rat(v) for v in point]
        if len(point) != self.dim:
            raise DimensionMismatch(f"point of length {len(point)} for dim {self.dim}")
        if not self.terms:
            return Rat(0)
        # per-variable power tables: monomials share most of their factors
        max_exp = [0] * self.dim
        for exponent in self.terms:
            for i, e in enumerate(exponent):
                if e > max_exp[i]:
                    max_exp[i] = e
        tables = []
        for v, top in zip(point, max_exp):
            table = [Rat(1)] * (top + 1)
            for e in range(1, top + 1):
                table[e] = table[e - 1] * v
            tables.append(table)
        total = Rat(0)
        for exponent, coefficient in self.terms.items():
            value = coefficient
            for i, e in enumerate(exponent):
                if e:
                    value *= tables[i][e]
            total += value
        return total

    def subs_var(self, index: int, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for the variable x_{index+1} (same dim)."""
        self._check_dim(replacement)
        powers = {0: MultiPoly.const(self.dim, 1)}

        def power(n: int) -> "MultiPoly":
            if n not in powers:
                powers[n] = power(n - 1) * replacement
            return powers[n]

        out: dict = {}
        get = out.get
        for exponent, coefficient in self.terms.items():
            e = exponent[index]
            rest = exponent[:index] + (0,) + exponent[index + 1 :]
            for p_exp, p_coef in power(e).terms.items():
                new_exp = tuple(a + b for a, b in zip(rest, p_exp))
                out[new_exp] = get(new_exp, 0) + coefficient * p_coef
        for exponent in [e for e, c in out.items() if c == 0]:
            del out[exponent]
        return MultiPoly._raw(self.dim, out)

    def subs_affine(self, index: int, a, b) -> "MultiPoly":
        """Substitute x_{index+1} -> a*x_{index+1} + b (exact, O(terms*degree))."""
        a, b = as_rat(a), as_rat(b)
        out: dict = {}
        get = out.get
        binom_rows: dict = {}
        for exponent, coefficient in self.terms.items():
            p = exponent[index]
            if p == 0:
                out[exponent] = get(exponent, 0) + coefficient
                continue
            row = binom_rows.get(p)
            if row is None:
                # (a x + b)^p = sum_i C(p,i) a^i b^(p-i) x^i
                row = [as_rat(comb(p, i)) * a ** i * b ** (p - i) for i in range(p + 1)]
                binom_rows[p] = row
            for i, factor in enumerate(row):
                if factor == 0:
                    continue
                new_exp = exponent[:index] + (i,) + exponent[index + 1 :]
                out[new_exp] = get(new_exp, 0) + coefficient * factor
        for exponent in [e for e, c in out.items() if c == 0]:
            del out[exponent]
        return MultiPoly._raw(self.dim, out)

    def subs_value(self, index: int, value) -> "MultiPoly":
        """Substitute a constant for x_{index+1} (result keeps the same dim)."""
        value = as_rat(value)
        out: dict = {}
        get = out.get
        for exponent, coefficient in self.terms.items():
            p = exponent[index]
            factor = coefficient if p == 0 else coefficient * value ** p
            if factor == 0:
                continue
            new_exp = exponent[:index] + (0,) + exponent[index + 1 :]
            out[new_exp] = get(new_exp, 0) + factor
        for exponent in [e for e, c in out.items() if c == 0]:
            del out[exponent]
        return MultiPoly._raw(self.dim, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        terms = sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
        for exponent, coefficient in terms:
            factors = [rat_str(coefficient)] if coefficient != 1 or not any(exponent) else []
            for i, e in enumerate(exponent):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
