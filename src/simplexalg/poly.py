"""Sparse multivariate polynomials over the exact rationals, kept fraction-free.

A polynomial in ``d`` variables is one positive integer ``den`` and integer
numerators ``nums``, a map from packed exponent keys to nonzero ints, so the
coefficient of x^e is nums[e] / den.  An exponent vector (e_1..e_d) packs
into one int with 8 bits per entry, e_1 in the lowest byte, so multiplying
two monomials is one integer addition; an entry above ``FIELD_MAX`` raises
``PackingOverflow`` before any key is formed.  The form is canonical (no
zero numerators, gcd(den, every numerator) = 1, den = 1 for the zero
polynomial), so equality of polynomials is equality of data, and all
arithmetic runs on ints.  ``terms``, the same polynomial as a read-only map
{exponent tuple: Rat}, is built on first read.

Terms print in graded lexicographic order: higher total degree first, ties
broken by the larger exponent tuple.
"""

from __future__ import annotations

from itertools import chain
from math import comb, gcd, lcm, perm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import DimensionMismatch, PackingOverflow
from .scalar import ONE, Rat, as_rat, rat_str

Exponent = "tuple[int, ...]"

#: The largest exponent or derivative order a packed key holds (8 bits).
FIELD_MAX = 255


def _pack(vector) -> int:
    """One int for a vector of entries in 0..FIELD_MAX, entry k in byte k."""
    return int.from_bytes(bytes(vector), "little")


def _unpack(key: int, dim: int) -> tuple:
    return tuple(key.to_bytes(dim, "little"))


def _check_fields(top: int, what: str):
    if top > FIELD_MAX:
        raise PackingOverflow(f"{what} reaches {top}, above the packed field's {FIELD_MAX}")


def _degrees(keys, dim: int) -> tuple:
    """The largest entry of each variable over the packed ``keys``; () for none."""
    return tuple(map(max, zip(*(key.to_bytes(dim, "little") for key in keys))))


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients, kept as
    integer numerators over one denominator (see the module docstring).

    ``MultiPoly(dim, {exponent tuple: scalar})`` validates and packs.
    ``top`` bounds every entry of every exponent vector, so a product whose
    entries could leave the packed field is checked before it is formed."""

    __slots__ = ("dim", "den", "nums", "top", "_terms")

    def __init__(self, dim: int, terms: Mapping = ()):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        coefficients = {}
        for exponent, coefficient in dict(terms).items():
            exponent = tuple(int(e) for e in exponent)
            if len(exponent) != dim or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for dim {dim}")
            coefficient = as_rat(coefficient)
            if coefficient != 0:
                coefficients[exponent] = coefficient
        top = max(chain.from_iterable(coefficients), default=0)
        _check_fields(top, "an exponent")
        den = lcm(*(c.denominator for c in coefficients.values()))
        nums = {_pack(e): c.numerator * (den // c.denominator) for e, c in coefficients.items()}
        self._set(dim, den, nums, top)

    def _set(self, dim: int, den: int, nums: dict, top: int):
        setter = object.__setattr__
        setter(self, "dim", dim)
        setter(self, "den", den)
        setter(self, "nums", nums)
        setter(self, "top", top)
        setter(self, "_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, den: int, nums: dict, top: int) -> "MultiPoly":
        """Trusted constructor: (den, nums) is already canonical (internal use)."""
        self = object.__new__(cls)
        self._set(dim, den, nums, top)
        return self

    @classmethod
    def _canonical(cls, dim: int, den: int, nums: dict, top: int) -> "MultiPoly":
        """Trusted constructor: ``den`` > 0 and ``nums`` holds no zero; the
        content shared with ``den`` is divided out."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        return cls._raw(dim, den, nums, top)

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls._raw(dim, 1, {}, 0)

    @classmethod
    def const(cls, dim: int, value) -> "MultiPoly":
        value = as_rat(value)
        if dim < 0:
            raise ValueError("dim must be >= 0")
        if not value:
            return cls.zero(dim)
        return cls._raw(dim, value.denominator, {0: value.numerator}, 0)

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

    @property
    def terms(self) -> Mapping:
        """Read-only {exponent tuple: Rat}, built on first read."""
        if self._terms is None:
            dim, den = self.dim, self.den
            view = {_unpack(e, dim): Rat(n, den) for e, n in self.nums.items()}
            object.__setattr__(self, "_terms", MappingProxyType(view))
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def total_degree(self) -> int:
        """Max |exponent| over stored terms; -1 for the zero polynomial."""
        dim = self.dim
        return max((sum(e.to_bytes(dim, "little")) for e in self.nums), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- arithmetic -------------------------------------------------------

    def _check_dim(self, other: "MultiPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"polynomials in {self.dim} and {other.dim} variables")

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign * other over lcm(self.den, other.den)."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.dim, other)
        self._check_dim(other)
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        out = {e: n * mine for e, n in self.nums.items()} if mine != 1 else dict(self.nums)
        get = out.get
        for e, n in other.nums.items():
            total = get(e, 0) + n * theirs
            if total:
                out[e] = total
            else:
                del out[e]
        return MultiPoly._canonical(self.dim, den, out, max(self.top, other.top))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.dim, self.den, {e: -n for e, n in self.nums.items()}, self.top)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_dim(other)
        top = self._product_top(other)
        out: dict = {}
        get = out.get
        theirs = list(other.nums.items())
        for e1, n1 in self.nums.items():
            for e2, n2 in theirs:
                key = e1 + e2
                out[key] = get(key, 0) + n1 * n2
        nums = {e: n for e, n in out.items() if n}
        return MultiPoly._canonical(self.dim, self.den * other.den, nums, top)

    __rmul__ = __mul__

    def _product_top(self, other: "MultiPoly") -> int:
        """A bound on every exponent entry of self * other; PackingOverflow
        where an entry would leave the packed field."""
        top = self.top + other.top
        if top > FIELD_MAX:
            # the tops only bound the entries; the degrees in each variable are exact
            degrees = map(add, _degrees(self.nums, self.dim), _degrees(other.nums, self.dim))
            top = max(degrees, default=0)
            _check_fields(top, "an exponent of the product")
        return top

    def scale(self, value) -> "MultiPoly":
        value = as_rat(value)
        if value == 0:
            return MultiPoly.zero(self.dim)
        factor = value.numerator
        nums = {e: n * factor for e, n in self.nums.items()}
        return MultiPoly._canonical(self.dim, self.den * value.denominator, nums, self.top)

    @classmethod
    def combination(cls, dim: int, pairs) -> "MultiPoly":
        """The sum of c * p over the (scalar c, polynomial p) ``pairs``, in one
        pass on integers over the lcm of the denominators den(c) * den(p)."""
        pairs = [(as_rat(c), p) for c, p in pairs]
        den = lcm(*(c.denominator * p.den for c, p in pairs))
        out: dict = {}
        get = out.get
        for c, p in pairs:
            if p.dim != dim:
                raise DimensionMismatch(f"a polynomial in {p.dim} variables, expected {dim}")
            weight = c.numerator * (den // (c.denominator * p.den))
            for e, n in p.nums.items():
                out[e] = get(e, 0) + weight * n
        nums = {e: n for e, n in out.items() if n}
        return cls._canonical(dim, den, nums, max((p.top for _, p in pairs), default=0))

    def __truediv__(self, value) -> "MultiPoly":
        """Division by a nonzero scalar."""
        return self.scale(1 / as_rat(value))

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

    def _field(self, index: int) -> int:
        """The bit offset of the exponent of x_{index+1} in a packed key."""
        if not 0 <= index < self.dim:
            raise ValueError(f"variable index {index} out of range for dim {self.dim}")
        return 8 * index

    def deriv(self, index: int, order: int = 1) -> "MultiPoly":
        """Partial derivative d^order / dx_{index+1}^order, by falling factorials."""
        if order < 0:
            raise ValueError("order must be >= 0")
        bit = self._field(index)
        if not order:
            return self
        step = order << bit
        nums = {
            e - step: n * w for e, n in self.nums.items() if (w := perm((e >> bit) & FIELD_MAX, order))
        }
        return MultiPoly._canonical(self.dim, self.den, nums, self.top)

    def subs_var(self, index: int, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for the variable x_{index+1} (same dim)."""
        self._check_dim(replacement)
        bit = self._field(index)
        by_power: dict = {}
        for e, n in self.nums.items():
            p = (e >> bit) & FIELD_MAX
            by_power.setdefault(p, {})[e - (p << bit)] = n
        result = MultiPoly.zero(self.dim)
        power = MultiPoly.const(self.dim, 1)
        for p in range(max(by_power, default=-1) + 1):
            if p:
                power = power * replacement
            if p in by_power:
                rest = MultiPoly._canonical(self.dim, self.den, by_power[p], self.top)
                result = result + rest * power
        return result

    def subs_affine(self, index: int, a, b) -> "MultiPoly":
        """Substitute x_{index+1} -> a*x_{index+1} + b (exact, O(terms*degree)).

        With a = A/q and b = B/q over q = den(a)·den(b), every term is put
        over q^top, top the largest power of x_{index+1}:
        (a x + b)^p = sum_i C(p,i) A^i B^(p-i) x^i q^(top-p) / q^top."""
        a, b = as_rat(a), as_rat(b)
        bit = self._field(index)
        q = a.denominator * b.denominator
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        top = max(((e >> bit) & FIELD_MAX for e in self.nums), default=0)
        rows: dict = {}
        out: dict = {}
        get = out.get
        for e, n in self.nums.items():
            p = (e >> bit) & FIELD_MAX
            row = rows.get(p)
            if row is None:
                row = rows[p] = [comb(p, i) * A**i * B ** (p - i) * q ** (top - p) for i in range(p + 1)]
            rest = e - (p << bit)
            for i, w in enumerate(row):
                if w:
                    key = rest + (i << bit)
                    out[key] = get(key, 0) + n * w
        nums = {e: n for e, n in out.items() if n}
        return MultiPoly._canonical(self.dim, self.den * q**top, nums, self.top)

    def subs_value(self, index: int, value) -> "MultiPoly":
        """Substitute a constant for x_{index+1} (result keeps the same dim)."""
        return self.subs_affine(index, 0, value)

    def __repr__(self) -> str:
        if not self.nums:
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
