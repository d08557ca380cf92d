"""Jacobi polynomials on the simplex.

One-variable Jacobi polynomials are defined through the terminating
hypergeometric sum

    p_n^(a,b)(t) = ((a+1)_n / (b+1)_n) *
                   sum_{k=0}^n  (-n)_k (n+a+b+1)_k / (k! (a+1)_k) * ((1-t)/2)^k,

normalized so that every coefficient is an exact rational.  The d-variable
family attached to gamma = (gamma_1..gamma_{d+1}) is the product

    P_nu(x) = prod_{k=1}^d (1-|x_{<k}|)^{nu_k} p_{nu_k}^(a_k, gamma_k)( 2x_k/(1-|x_{<k}|) - 1 ),

    a_k = gamma_{k+1}+...+gamma_{d+1} + 2(nu_{k+1}+...+nu_d) + d - k,

where |x_{<k}| = x_1+...+x_{k-1}.  Each factor is expanded directly into a
polynomial: with s = 1-|x_{<k}|, the composite s^n p_n(2x_k/s - 1) equals
lead * sum_k c_k s^(n-k) (s-x_k)^k, so no rational-function intermediate is
ever formed.  The factor is summed on integers, c_k times the lcm of the
c_k's denominators, so P_nu comes out as integer numerators over one
denominator, the form of ``MultiPoly``.

Degree indices nu with |nu| = n are enumerated in descending lexicographic
order ((n,0,...,0) first); this fixed order is used everywhere a basis of the
degree-n space appears.

The top-degree part of P_nu is c x^nu plus lex-greater monomials of degree
|nu| (``lex_lead``).  The family is therefore triangular against the
monomials, which is what makes it a basis and lets the expansion of every
monomial in it be built one monomial at a time (``verify.ModuleContext``).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Sequence

from .diffops import OPERATOR_CACHE_SIZE
from .errors import InvalidParameter, InvariantViolation
from .params import ParamVector, check_jacobi_params, require_valid
from .poly import MultiPoly, _pack, _unpack
from .scalar import Rat, as_rat, pochhammer

DegreeIndex = "tuple[int, ...]"


def jacobi1d_coeffs(n: int, alpha, beta) -> list:
    """Coefficients c_0..c_n of p_n^(a,b) in powers of (1-t)/2, including the lead factor."""
    alpha, beta = as_rat(alpha), as_rat(beta)
    lead = pochhammer(alpha + 1, n) / pochhammer(beta + 1, n)
    return [
        lead
        * pochhammer(-n, k)
        * pochhammer(n + alpha + beta + 1, k)
        / (pochhammer(1, k) * pochhammer(alpha + 1, k))
        for k in range(n + 1)
    ]


def a_param(j: int, nu: Sequence[int], gamma: ParamVector) -> Rat:
    """Inner Jacobi parameter a_j for the d-variable product formula."""
    d = gamma.d
    return gamma.tail_sum(j + 1) + 2 * sum(nu[j:]) + d - j


def jacobi_simplex(nu: Sequence[int], gamma) -> MultiPoly:
    """The d-variable polynomial P_nu(x; gamma), fully expanded."""
    params = require_valid(gamma)
    d = params.d
    nu = tuple(int(v) for v in nu)
    if len(nu) != d or any(v < 0 for v in nu):
        raise ValueError(f"degree index {nu} must have {d} nonnegative entries")

    factors = _factor_table(params)
    result = MultiPoly.const(d, 1)
    for k in range(1, d + 1):
        n_k = nu[k - 1]
        alpha = a_param(k, nu, params)
        beta = params[k]
        violations = check_jacobi_params(alpha, beta)
        if violations:  # unreachable for valid gamma; kept as a hard guard
            raise InvalidParameter(f"factor {k}: " + "; ".join(violations))
        if n_k == 0:
            continue
        # alpha depends on nu only through |nu_{>k}|
        key = (k, n_k, sum(nu[k:]))
        factor = factors.get(key)
        if factor is None:
            factor = factors[key] = _factor(d, k, n_k, alpha, beta)
        result = result * factor
    return result


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _factor_table(params: ParamVector) -> dict:
    """{(k, nu_k, |nu_{>k}|): factor k of P_nu} for one gamma, filled as the
    P_nu are built, so that the members of a family share their factors."""
    return {}


def _factor(d: int, k: int, n_k: int, alpha, beta) -> MultiPoly:
    """s^n_k p_{n_k}^(alpha, beta)(2 x_k / s - 1) with s = 1 - x_1 - ... - x_{k-1}:
    sum_i c_i s^(n_k-i) (s - x_k)^i, summed on the integers c_i·q over q,
    the lcm of the c_i's denominators."""
    coeffs = jacobi1d_coeffs(n_k, alpha, beta)
    q = lcm(*(c.denominator for c in coeffs))
    s = MultiPoly.const(d, 1)
    for i in range(k - 1):
        s = s - MultiPoly.variable(d, i)
    s_minus_x = s - MultiPoly.variable(d, k - 1)
    factor = MultiPoly.zero(d)
    for i, c in enumerate(coeffs):
        term = s ** (n_k - i) * s_minus_x ** i
        factor = factor + term.scale(c.numerator * (q // c.denominator))
    return factor.scale(Rat(1, q))


def lex_lead(nu: Sequence[int], poly: MultiPoly) -> Rat:
    """The coefficient of x^nu in ``poly`` = P_nu, after checking the
    triangular fact: x^nu is the lex-smallest monomial of top degree |nu|."""
    nu = tuple(nu)
    degree = sum(nu)
    exponents = [_unpack(e, poly.dim) for e in poly.nums]
    if poly.total_degree() != degree or min(e for e in exponents if sum(e) == degree) != nu:
        raise InvariantViolation(f"P_{nu} does not lead with x^{nu} in lex order")
    return Rat(poly.nums[_pack(nu)], poly.den)


def level_indices(n: int, d: int) -> list:
    """All nu with |nu| = n, in descending lexicographic order; none for n < 0."""
    if n < 0:
        return []
    if d == 0:
        return [()] if n == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), n, d)
    return out


def graded_indices(n: int, d: int) -> list:
    """All nu with |nu| <= n: degree ascending, descending lex within a degree."""
    out = []
    for m in range(n + 1):
        out.extend(level_indices(m, d))
    return out

