"""The normalized moment functional of the simplex weight.

The weight on the open simplex {x_i > 0, |x| < 1} in d variables is

    w(x) = x_1^{gamma_1} ... x_d^{gamma_d} (1 - |x|)^{gamma_{d+1}}.

For an exponent multi-index m of length d+1 (the last slot counting powers of
1-|x|), the normalized moment is the Dirichlet-integral ratio

    moment(m) = prod_{i=1}^{d+1} (gamma_i + 1)_{m_i} / (|gamma| + d + 1)_{|m|},

an exact rational for rational gamma.  The induced bilinear form makes the
simplex Jacobi polynomials mutually orthogonal; for gamma_j > -1 it is the
genuine integral inner product.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .params import require_valid
from .poly import MultiPoly
from .scalar import Rat, pochhammer


def simplex_moment(m, gamma) -> Rat:
    """Normalized moment of x^(m_1..m_d) (1-|x|)^(m_{d+1})."""
    m = tuple(int(v) for v in m)
    if any(v < 0 for v in m):
        raise ValueError(f"moment index {m} must be nonnegative")
    params = require_valid(gamma)
    if len(m) != len(params):
        raise DimensionMismatch(f"moment index length {len(m)} != {len(params)} parameters")
    d = params.d
    numerator = Rat(1)
    for i in range(d + 1):
        numerator *= pochhammer(params[i + 1] + 1, m[i])
    return numerator / pochhammer(params.tail_sum(1) + d + 1, sum(m))


def inner_product(p: MultiPoly, q: MultiPoly, gamma) -> Rat:
    """Moment functional applied to p*q (both in the d simplex variables)."""
    params = require_valid(gamma)
    d = params.d
    if p.dim != d or q.dim != d:
        raise DimensionMismatch(f"polynomials of dim {p.dim}, {q.dim} with d = {d}")
    product = p * q
    total = Rat(0)
    for exponent, coefficient in product.terms.items():
        total += coefficient * simplex_moment(exponent + (0,), params)
    return total
