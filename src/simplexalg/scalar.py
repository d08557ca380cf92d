"""Exact rational scalars.

Every number in this package is an arbitrary-precision rational kept in
lowest terms with a positive denominator; no floating-point value is ever
created or accepted.  ``Rat`` is ``gmpy2.mpq`` when gmpy2 is installed
(markedly faster on the operator-expansion workloads) and the stdlib
``fractions.Fraction`` otherwise.  Both types agree on everything this
package relies on: exact arithmetic, hashing, comparison with ints, and
``str()`` producing ``"p/q"`` (or ``"p"`` when the denominator is 1).
"""

from __future__ import annotations

from fractions import Fraction

try:  # pragma: no cover - which branch runs depends on the environment
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    Rat = Fraction

#: Things `as_rat` accepts.
RatLike = "Rat | Fraction | int | str"

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value) -> Rat:
    """Coerce ``value`` to an exact rational.

    Accepts ints, strings like ``"p/q"`` or ``"-3"``, ``Fraction`` and
    ``Rat`` itself.  Floats are rejected: exactness is a package-wide
    invariant and a float argument is always a caller bug.
    """
    if isinstance(value, float):
        raise TypeError(f"floating-point value {value!r} rejected: all arithmetic is exact")
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, Fraction):
        return Rat(value.numerator, value.denominator)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError(f"rational literal {value!r} rejected: use p/q form, not decimals")
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise ValueError(f"rational literal {value!r} has a zero denominator")
            return Rat(num, den)
        return Rat(int(text))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(value)


def pochhammer(a, k: int) -> Rat:
    """Rising factorial a(a+1)...(a+k-1) as an exact rational; (a)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    a = as_rat(a)
    result = ONE
    for i in range(k):
        result *= a + i
    return result


def is_int_leq(value, bound: int) -> bool:
    """True iff ``value`` lies in Z_{<= bound}."""
    v = as_rat(value)
    return v.denominator == 1 and v <= bound
