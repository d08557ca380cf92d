"""Racah difference operators acting on degree indices.

Two layers live here.

*Explicit low-dimensional operators.*  The three-term operators on two and
three variables (``B12``, ``B23``, ``B134``) and the nine-term ``B123`` are
a table: shift -> (coefficient label, summands), each summand const *
(numerator forms) / (denominator forms), and each form written once as its
label, which is also its formula.  In a label ``nuK...`` and ``gK...`` sum nu
and gamma over the listed digits, ``|g|`` is the sum of all gamma, and
integers, ``+ - ( )`` and juxtaposition (a product) combine them; each label
is compiled once, on first use.  A form is structural (a pure index factor)
when its label names no parameter.  A summand is 0 when a structural
numerator factor vanishes, and its denominator is then never touched;
otherwise a vanishing denominator raises ``DegenerateParameter`` naming the
form by its label.  A parameter-dependent numerator zero resolves nothing,
since such a 0/0 can have a nonzero limit.

*The general family.*  ``racah_operator(j, beta)`` (in the test oracles)
builds the I-invariant difference operator

    B_j(z; beta) = sum_{p in {-1,0,1}^j} C_{j,p}(z) E_z^p
                   - ( z_{j+1}(z_{j+1}+beta_{j+1}) + (beta_0+1)(beta_{j+1}-1)/2 ) Id

whose coefficients C_{j,p} are rational functions of z_1..z_{j+1} assembled
from the quadratic kernels B_i^{a,b} and the univariate-linear denominators
b_i^{0/1}; sign patterns with -1 entries are obtained by applying the
involutions I_k : z_k -> -z_k - beta_k.  ``_build_racah_operator`` keeps
them as exact fractions whose denominators are products of univariate linear
factors, with the factors that vanish identically in z cancelled by
synthetic division.  No CLI run builds them.

``predicted_m_action`` maps the general family onto the degree indices nu and
produces the difference operators representing the cyclic Jucys-Murphy
operators M_j^+ and M_j^- on the span of {P_nu : |nu| = n}: the plus variant
is conjugated by g(nu) = (1+gamma_1)_{nu_1} / (|gamma|+2n+d-nu_1)_{nu_1} and
shifted by the constant n(n + beta^+_j - beta^+_0 - 1).  M_j^- reads nu in
the reverse order of M_j^+.  Its coefficients are evaluated one column (one
nu) at a time: ``_family_inputs`` builds beta, the g(nu) fold and the
factors b_i from gamma, and ``_FoldedFamily.column`` tabulates the kernels
and denominators of every sign at z(nu) as integers (scaled by powers of
the lcm of gamma's denominators), then walks the sign patterns prefix by
prefix, multiplying table entries, and makes one rational per pattern
whose numerator is nonzero.
Every matrix entry is a rational function of gamma that is regular at a
valid gamma0.  Wherever no factor of the unreduced denominator vanishes,
that walk gives the entry.  Where one vanishes, ``_FoldedFamily._factors``
returns the same factors over Q[t] at gamma0 + t·v for a fixed direction v,
and the entry is their exact limit as t -> 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, product
from math import isqrt, lcm, prod
from operator import itemgetter
from typing import Callable, Sequence

from .errors import DegenerateParameter, DimensionMismatch, InvariantViolation, RangeEscape
from .jacobi import level_indices
from .linalg import ExactMatrix
from .params import require_valid
from .poly import MultiPoly
from .scalar import ZERO, Rat, as_rat, rat_str

# ---------------------------------------------------------------------------
# exact fractions with univariate-linear denominators
# ---------------------------------------------------------------------------


def divide_linear(poly: MultiPoly, var: int, root) -> "tuple[MultiPoly, MultiPoly]":
    """Divide by (z_var - root): returns (quotient, remainder).

    ``var`` is 0-based; the remainder is poly evaluated at z_var = root,
    a polynomial in the remaining variables (zero iff divisible).
    """
    root = as_rat(root)
    by_power: dict = {}
    max_pow = 0
    for exponent, coefficient in poly.terms.items():
        p = exponent[var]
        rest = exponent[:var] + (0,) + exponent[var + 1 :]
        by_power.setdefault(p, {})
        by_power[p][rest] = by_power[p].get(rest, 0) + coefficient
        max_pow = max(max_pow, p)
    levels = [
        MultiPoly(poly.dim, by_power.get(p, {})) for p in range(max_pow + 1)
    ]
    quotient_levels = [MultiPoly.zero(poly.dim)] * max(max_pow, 0)
    carry = MultiPoly.zero(poly.dim)
    for p in range(max_pow, 0, -1):
        carry = levels[p] + carry.scale(root)
        quotient_levels[p - 1] = carry
    remainder = (levels[0] if levels else MultiPoly.zero(poly.dim)) + carry.scale(root)
    quotient_terms: dict = {}
    for p, level in enumerate(quotient_levels):
        for exponent, coefficient in level.terms.items():
            quotient_terms[exponent[:var] + (p,) + exponent[var + 1 :]] = coefficient
    return MultiPoly(poly.dim, quotient_terms), remainder


class ZFraction:
    """num / prod (z_k - root)^mult with an exact polynomial numerator.

    ``den`` maps (k, root) -> multiplicity with k the 1-based z index.  The
    class is closed under products, sums, the involutions z_k -> -z_k - b,
    and constant substitution; ``reduce`` cancels every denominator factor
    that divides the numerator.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, num: MultiPoly, den: dict | None = None):
        self.nvars = nvars
        self.num = num
        self.den = {k: m for k, m in (den or {}).items() if m}

    def mul_scalar(self, value) -> "ZFraction":
        return ZFraction(self.nvars, self.num.scale(value), dict(self.den))

    def div_linear(self, var: int, root) -> "ZFraction":
        """Divide by the monic factor (z_var - root), var 1-based."""
        den = dict(self.den)
        key = (var, as_rat(root))
        den[key] = den.get(key, 0) + 1
        return ZFraction(self.nvars, self.num, den)

    def add(self, other: "ZFraction") -> "ZFraction":
        """Exact sum over the least common denominator, then reduce."""
        if self.nvars != other.nvars:
            raise DimensionMismatch("fractions over different variable counts")
        common: dict = dict(self.den)
        for key, mult in other.den.items():
            common[key] = max(common.get(key, 0), mult)
        left = self.num
        right = other.num
        for key, mult in common.items():
            var, root = key
            factor = MultiPoly.variable(self.nvars, var - 1) - MultiPoly.const(
                self.nvars, root
            )
            deficit = mult - self.den.get(key, 0)
            if deficit:
                left = left * factor ** deficit
            deficit = mult - other.den.get(key, 0)
            if deficit:
                right = right * factor ** deficit
        return ZFraction(self.nvars, left + right, common).reduce()

    def reduce(self) -> "ZFraction":
        num = self.num
        den = dict(self.den)
        for key in list(den):
            var, root = key
            while den.get(key, 0) > 0:
                # cheap divisibility test first: the remainder of division by
                # (z_var - root) is the substitution z_var := root
                if not num.subs_value(var - 1, root).is_zero():
                    break
                quotient, remainder = divide_linear(num, var - 1, root)
                if not remainder.is_zero():
                    raise InvariantViolation(
                        f"synthetic division by (z_{var} - {rat_str(root)}) left a remainder"
                    )
                num = quotient
                den[key] -= 1
            if den.get(key, 0) == 0:
                den.pop(key, None)
        return ZFraction(self.nvars, num, den)

    def involution(self, k: int, beta_k) -> "ZFraction":
        """Apply z_k -> -z_k - beta_k (k 1-based)."""
        beta_k = as_rat(beta_k)
        num = self.num.subs_affine(k - 1, -1, -beta_k)
        den: dict = {}
        sign = 1
        for (var, root), mult in self.den.items():
            if var == k:
                # (-z_k - beta_k - root) = -(z_k - (-beta_k - root))
                den_key = (var, -beta_k - root)
                sign *= (-1) ** mult
            else:
                den_key = (var, root)
            den[den_key] = den.get(den_key, 0) + mult
        if sign == -1:
            num = num.scale(-1)
        return ZFraction(self.nvars, num, den)

    def subs_const(self, var: int, value) -> "ZFraction":
        """Fix z_var to a constant (must not occur in the denominator)."""
        if any(v == var for (v, _) in self.den):
            raise ValueError(f"z_{var} occurs in the denominator")
        return ZFraction(self.nvars, self.num.subs_value(var - 1, value), dict(self.den))


# ---------------------------------------------------------------------------
# the general I-invariant family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RacahParamVector:
    """beta_0..beta_d attached to a gamma vector."""

    values: tuple


def parameter_maps(gamma, n: int, d: int) -> "tuple[RacahParamVector, RacahParamVector]":
    """The two parameter sets feeding the general family:

        beta+_0 = gamma_1,  beta+_j = -(gamma_{j+1}+...+gamma_{d+1}) - 2n - d + j,
        beta-_j = gamma_{d+1-j}+...+gamma_{d+1} + j.
    """
    g = require_valid(gamma, d).gamma
    return tuple(RacahParamVector(tuple(beta)) for beta in _beta_maps(g, n, d))


def _beta_maps(g, n: int, d: int) -> "tuple[list, list]":
    """beta+ and beta- of ``parameter_maps`` for g = (gamma_1, ..., gamma_{d+1})
    over any ring: they are affine in g, so at gamma0 + t·v they come out as
    c0 + c1·t.  No validity check, since gamma0 + t·v need not be valid at t = 1."""

    def tail(j):
        return sum(g[j - 1 :], Rat(0))

    plus = [g[0]] + [-tail(j + 1) - 2 * n - d + j for j in range(1, d + 1)]
    minus = [tail(d + 1 - j) + j for j in range(0, d + 1)]
    return plus, minus


def _zvar(nvars: int, k: int) -> MultiPoly:
    """z_k as a polynomial, with the convention z_0 = 0."""
    if k == 0:
        return MultiPoly.zero(nvars)
    return MultiPoly.variable(nvars, k - 1)


def _kernel(bit1: int, bit2: int, zi, zi1, b_i, b_i1):
    """B_i^{bit1,bit2}(z_i, z_{i+1}) over any ring: polynomials or rationals."""
    if (bit1, bit2) == (0, 0):
        return zi * (zi + b_i) + zi1 * (zi1 + b_i1) + (b_i + 1) * (b_i1 - 1) / 2
    if (bit1, bit2) == (0, 1):
        return (zi1 + zi + b_i1) * (zi1 - zi + b_i1 - b_i)
    if (bit1, bit2) == (1, 0):
        return (zi1 - zi) * (zi1 + zi + b_i1)
    if (bit1, bit2) == (1, 1):
        return (zi1 + zi + b_i1) * (zi1 + zi + b_i1 + 1)
    raise ValueError("bits must be 0 or 1")


def kernel_poly(i: int, bit1: int, bit2: int, beta, nvars: int) -> MultiPoly:
    """The quadratic kernel B_i^{bit1,bit2} as a polynomial in z_1..z_nvars."""
    zi, zi1 = _zvar(nvars, i), _zvar(nvars, i + 1)
    return _kernel(bit1, bit2, zi, zi1, as_rat(beta[i]), as_rat(beta[i + 1]))


def _b_denominator(i: int, bit: int, beta) -> "tuple[Rat, list]":
    """b_i^bit as (constant, [(var, root), ...]) with monic linear factors,
    over the ring of beta: rationals, or polynomials in t."""
    b_i = beta[i]
    if bit == 0:
        # (2z+b+1)(2z+b-1)/2 = 2 (z - r1)(z - r2)
        return Rat(2), [(i, -(b_i + 1) / 2), (i, -(b_i - 1) / 2)]
    # (2z+b+1)(2z+b) = 4 (z - r1)(z - r2)
    return Rat(4), [(i, -(b_i + 1) / 2), (i, -b_i / 2)]


def racah_coefficient(j: int, pattern: Sequence[int], beta) -> ZFraction:
    """C_{j,pattern} as an exact fraction in z_1..z_{j+1}.

    ``pattern`` has entries in {-1, 0, 1}; entries equal to -1 are produced
    from the all-nonnegative pattern by the involutions I_k.
    """
    pattern = tuple(int(p) for p in pattern)
    if len(pattern) != j or any(p not in (-1, 0, 1) for p in pattern):
        raise ValueError(f"pattern {pattern} must lie in {{-1,0,1}}^{j}")
    nvars = j + 1
    base = tuple(abs(p) for p in pattern)
    padded = (0,) + base + (0,)  # pattern_0 = pattern_{j+1} = 0
    num = MultiPoly.const(nvars, 1)
    for k in range(j + 1):
        num = num * kernel_poly(k, padded[k], padded[k + 1], beta, nvars)
    frac = ZFraction(nvars, num)
    for k in range(1, j + 1):
        const, factors = _b_denominator(k, base[k - 1], beta)
        frac = frac.mul_scalar(1 / const)
        for var, root in factors:
            frac = frac.div_linear(var, root)
    for k in range(1, j + 1):
        if pattern[k - 1] == -1:
            frac = frac.involution(k, beta[k])
    return frac.reduce()


@dataclass
class ZShiftOp:
    """Difference operator in z_1..z_j with ZFraction coefficients."""

    j: int
    nvars: int
    beta: tuple
    terms: dict  # shift pattern in {-1,0,1}^j -> ZFraction


def _sign_patterns(j: int) -> list:
    """{-1,0,1}^j in the term order of the general family: the patterns in
    {0,1}^j first, then the others by their number of -1 slots."""
    mixed = [p for p in product((-1, 0, 1), repeat=j) if -1 in p]
    return list(product((0, 1), repeat=j)) + sorted(mixed, key=lambda p: p.count(-1))


def _racah_operator_cached(j: int, beta, boundary) -> ZShiftOp:
    key = (j, beta, boundary)
    cached = _RACAH_CACHE.get(key)
    if cached is not None:
        return cached
    op = _build_racah_operator(j, beta, boundary)
    if len(_RACAH_CACHE) > 64:
        _RACAH_CACHE.clear()
    _RACAH_CACHE[key] = op
    return op


_RACAH_CACHE: dict = {}


def _build_racah_operator(j: int, beta, boundary) -> ZShiftOp:
    if j < 1:
        raise ValueError("j must be >= 1")
    beta = [as_rat(b) for b in beta]
    if len(beta) < j + 2:
        raise ValueError(f"need beta_0..beta_{j + 1}")
    nvars = j + 1
    terms: dict = {}
    for pattern in _sign_patterns(j):
        if -1 not in pattern:
            terms[pattern] = racah_coefficient(j, pattern, beta)
            continue
        # one involution from the pattern with the first -1 slot flipped to
        # +1, which has one -1 slot fewer and so is already built
        k = pattern.index(-1)
        parent = pattern[:k] + (1,) + pattern[k + 1 :]
        terms[pattern] = terms[parent].involution(k + 1, beta[k + 1]).reduce()
    zj1 = _zvar(nvars, j + 1)
    id_sub = zj1 * (zj1 + beta[j + 1]) + MultiPoly.const(
        nvars, (beta[0] + 1) * (beta[j + 1] - 1) / 2
    )
    zero_shift = (0,) * j
    terms[zero_shift] = terms[zero_shift].add(
        ZFraction(nvars, id_sub.scale(-1))
    )
    op = ZShiftOp(j, nvars, tuple(beta[: j + 2]), terms)
    if boundary is not None:
        op = ZShiftOp(
            j,
            nvars,
            op.beta,
            {
                sigma: frac.subs_const(j + 1, boundary).reduce()
                for sigma, frac in op.terms.items()
            },
        )
    return op


# ---------------------------------------------------------------------------
# difference operators on degree indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RacahTerm:
    shift: tuple
    coef: PrintedCoefficient | ZMappedCoefficient


class RacahOp:
    """Difference operator on functions of nu that preserves |nu|."""

    def __init__(self, d: int, name: str, terms: Sequence[RacahTerm]):
        for term in terms:
            if len(term.shift) != d:
                raise DimensionMismatch(f"shift {term.shift} has length != {d}")
            if sum(term.shift) != 0:
                raise ValueError(f"shift {term.shift} does not preserve |nu|")
        self.d = d
        self.name = name
        self.terms = tuple(terms)

    def coefficient(self, shift, nu) -> Rat:
        shift = tuple(shift)
        total = Rat(0)
        for term in self.terms:
            if term.shift == shift:
                total += term.coef.eval(tuple(nu))
        return total

    def assemble(self, n: int) -> ExactMatrix:
        """``matrix_on_level``, under the name the benchmark's tracer hooks."""
        return self.matrix_on_level(n)

    def matrix_on_level(self, n: int) -> ExactMatrix:
        """Matrix on {|nu| = n} in descending-lex basis order (columns = images).

        Raises DegenerateParameter, naming the shift and nu, at the first
        coefficient that cannot be resolved.  Coefficients of shifts that
        would leave the nonnegative range must evaluate to zero; a nonzero
        escaping coefficient raises RangeEscape.
        """
        basis = level_indices(n, self.d)
        index = {nu: i for i, nu in enumerate(basis)}
        size = len(basis)
        entries = [[Rat(0)] * size for _ in range(size)]
        for col, nu in enumerate(basis):
            for term in self.terms:
                try:
                    value = term.coef.eval(nu)
                except DegenerateParameter as exc:
                    raise DegenerateParameter(f"shift {term.shift} at nu={nu}: {exc}") from None
                if value == 0:
                    continue
                target = tuple(a + b for a, b in zip(nu, term.shift))
                if any(t < 0 for t in target):
                    raise RangeEscape(
                        f"{self.name}: nonzero coefficient {rat_str(value)} escapes the "
                        f"range at nu={nu}, shift {term.shift}"
                    )
                row = entries[index[target]]
                row[col] = row[col] + value if row[col] else value
        return ExactMatrix._raw(size, size, entries)


# -- printed-coefficient evaluators -----------------------------------------


@dataclass(frozen=True)
class FormFactor:
    """A named scalar form of nu; ``structural`` marks pure index factors."""

    label: str
    fn: Callable
    structural: bool = False

    def __call__(self, nu) -> Rat:
        return as_rat(self.fn(nu))


@dataclass(frozen=True)
class Summand:
    const: Rat
    numerator: tuple
    denominator: tuple = ()

    def eval(self, nu) -> Rat:
        """The summand at nu: 0 when a structural numerator factor vanishes,
        without touching the denominator; otherwise DegenerateParameter if a
        denominator form vanishes."""
        value = self.const
        for factor in self.numerator:
            f = factor(nu)
            if f == 0 and factor.structural:
                return Rat(0)
            value *= f
        for factor in self.denominator:
            f = factor(nu)
            if f == 0:
                raise DegenerateParameter(f"denominator form {factor.label} vanishes")
            value /= f
        return value


class PrintedCoefficient:
    def __init__(self, label: str, summands: Sequence[Summand]):
        self.label = label
        self.summands = tuple(summands)

    def eval(self, nu) -> Rat:
        return sum((s.eval(nu) for s in self.summands), Rat(0))


_FORM_TOKEN = re.compile(r"nu[1-9]+|g[1-9]+|\|g\||\d+|\S")


@cache
def _compile_form(label: str) -> Callable:
    """The form a printed label names, as ``bind(gamma) -> (nu -> value)``
    with gamma the tuple (gamma_1, ..., gamma_{d+1}).

    Grammar: integers; ``nuK...`` is the sum of nu_K over the listed digits
    K, ``gK...`` the sum of gamma_K, ``|g|`` the sum of all gamma; ``+ - ( )``;
    juxtaposition (spaces ignored) is a product.  Each parameter sum becomes
    an argument of the compiled code, so ``bind`` adds it once per gamma.
    """
    code, params, after_operand = [], [], False
    for token in _FORM_TOKEN.findall(label):
        if after_operand and token not in ("+", "-", ")"):
            code.append("*")
        if token.startswith("nu"):
            code.append("(" + "+".join(f"v[{int(k) - 1}]" for k in token[2:]) + ")")
        elif token == "|g|" or token.startswith("g") and len(token) > 1:
            code.append(f"p{len(params)}")
            params.append(token)
        elif token.isdigit() or token in ("+", "-", "(", ")"):
            code.append(token)
        else:
            raise ValueError(f"form label {label!r}: unexpected {token!r}")
        after_operand = token not in ("+", "-", "(")
    args = ", ".join(f"p{i}" for i in range(len(params)))
    make = eval(f"lambda {args}: lambda v: {''.join(code)}", {})

    def bind(gamma) -> Callable:
        return make(
            *(sum(gamma if p == "|g|" else (gamma[int(k) - 1] for k in p[1:])) for p in params)
        )

    return bind


def _forms(labels, gamma) -> tuple:
    """The printed forms ``labels`` at gamma; a form is structural when it
    names no parameter."""
    return tuple(FormFactor(f, _compile_form(f)(gamma), "g" not in f) for f in labels)


# The printed operators of P. Iliev, "The generic quantum superintegrable
# system on the sphere and Racah operators" (Lett. Math. Phys. 2017), in
# their term order: name -> shift -> (coefficient label, summands), where a
# summand is (const, numerator form labels, denominator form labels).  _BR1
# and _BR3 are the two bracket forms that several B123 coefficients share.
_BR1 = "2nu1(g1234+nu1+2nu23+3)+(g234+2nu23+3)(g1234+2nu23+2)"
_BR3 = "2nu3(g34+nu3+1)+(g4+1)g34"
_PRINTED_TERMS = {
    "B12": {
        (-1, 1): ("c(-1,+1)", [(
            1, ("nu1", "g2+nu2+1", "g2+g3+nu2+1", "|g|+nu1+2nu2+2"),
            ("g2+g3+2nu2+1", "g2+g3+2nu2+2"),
        )]),
        (0, 0): ("c(0,0)", [
            (-1, ("nu1+nu2+2nu1nu2+nu2 g1+nu1 g2",), ()),
            (1, ("nu1+1", "nu2", "g1+nu1+1", "g2+nu2"), ("g2+g3+2nu2",)),
            (-1, ("nu1", "nu2+1", "g1+nu1", "g2+nu2+1"), ("g2+g3+2nu2+2",)),
        ]),
        (1, -1): ("c(+1,-1)", [(
            1, ("nu2", "g1+nu1+1", "g3+nu2", "g2+g3+nu1+2nu2+1"),
            ("g2+g3+2nu2", "g2+g3+2nu2+1"),
        )]),
    },
    "B23": {
        (0, -1, 1): ("b(0,-1,1)", [(
            1, ("nu2", "g3+nu3+1", "g34+nu3+1", "g234+nu2+2nu3+2"),
            ("g34+2nu3+1", "g34+2nu3+2"),
        )]),
        (0, 0, 0): ("b(0,0,0)", [
            (-1, ("nu2+nu3+2nu2nu3+nu2 g3+nu3 g2",), ()),
            (1, ("nu2+1", "nu3", "g2+nu2+1", "g3+nu3"), ("g34+2nu3",)),
            (-1, ("nu2", "nu3+1", "g2+nu2", "g3+nu3+1"), ("g34+2nu3+2",)),
        ]),
        (0, 1, -1): ("b(0,1,-1)", [(
            1, ("nu3", "g2+nu2+1", "g4+nu3", "g34+nu2+2nu3+1"),
            ("g34+2nu3", "g34+2nu3+1"),
        )]),
    },
    "B134": {
        (1, -1, 0): ("b(1,-1,0)", [(
            -1, ("nu2", "g1+nu1+1", "g34+nu2+2nu3+1", "g234+nu1+2nu23+2"),
            ("g234+2nu23+1", "g234+2nu23+2"),
        )]),
        (0, 0, 0): ("b(0,0,0)", [
            (-1, ("nu13", "g134+nu13+2"), ()),
            (1, ("nu1", "nu2+1", "g1+nu1", "g2+nu2+1"), ("g234+2nu23+3",)),
            (-1, ("nu1+1", "nu2", "g1+nu1+1", "g2+nu2"), ("g234+2nu23+1",)),
        ]),
        (-1, 1, 0): ("b(-1,1,0)", [(
            -1, ("nu1", "g2+nu2+1", "g234+nu2+2nu3+2", "g1234+nu1+2nu23+3"),
            ("g234+2nu23+2", "g234+2nu23+3"),
        )]),
    },
    "B123": {
        (-1, 0, 1): ("b(-1,0,1)", [(
            1, ("nu1", "g3+nu3+1", "g34+nu3+1", "g234+nu2+2nu3+2", "g234+nu2+2nu3+3",
                "g1234+nu1+2nu23+3"),
            ("g34+2nu3+1", "g34+2nu3+2", "g234+2nu23+2", "g234+2nu23+3"),
        )]),
        (-1, 2, -1): ("b(-1,2,-1)", [(
            1, ("nu1", "nu3", "g2+nu2+1", "g2+nu2+2", "g4+nu3", "g1234+nu1+2nu23+3"),
            ("g34+2nu3", "g34+2nu3+1", "g234+2nu23+2", "g234+2nu23+3"),
        )]),
        (1, -2, 1): ("b(1,-2,1)", [(
            1, ("nu2-1", "nu2", "g1+nu1+1", "g3+nu3+1", "g34+nu3+1", "g234+nu1+2nu23+2"),
            ("g34+2nu3+1", "g34+2nu3+2", "g234+2nu23+1", "g234+2nu23+2"),
        )]),
        (1, 0, -1): ("b(1,0,-1)", [(
            1, ("nu3", "g1+nu1+1", "g4+nu3", "g34+nu2+2nu3", "g34+nu2+2nu3+1",
                "g234+nu1+2nu23+2"),
            ("g34+2nu3", "g34+2nu3+1", "g234+2nu23+1", "g234+2nu23+2"),
        )]),
        (0, -1, 1): ("b(0,-1,1)", [(
            1, ("nu2", "g3+nu3+1", "g34+nu3+1", "g234+nu2+2nu3+2",
                "2nu123(g1234+nu123+3)+2nu23(g234+nu23+2)+(g234+3)(g1234+2)"),
            ("g34+2nu3+1", "g34+2nu3+2", "g234+2nu23+1", "g234+2nu23+3"),
        )]),
        (0, 1, -1): ("b(0,1,-1)", [(
            1, ("nu3", "g2+nu2+1", "g4+nu3", "g34+nu2+2nu3+1", _BR1),
            ("g34+2nu3", "g34+2nu3+1", "g234+2nu23+1", "g234+2nu23+3"),
        )]),
        (-1, 1, 0): ("b(-1,1,0)", [(
            1, ("nu1", "g2+nu2+1", "g234+nu2+2nu3+2", "g1234+nu1+2nu23+3", _BR3),
            ("g34+2nu3", "g34+2nu3+2", "g234+2nu23+2", "g234+2nu23+3"),
        )]),
        (1, -1, 0): ("b(1,-1,0)", [(
            1, ("nu2", "g1+nu1+1", "g34+nu2+2nu3+1", "g234+nu1+2nu23+2", _BR3),
            ("g34+2nu3", "g34+2nu3+2", "g234+2nu23+1", "g234+2nu23+2"),
        )]),
        (0, 0, 0): ("b(0,0,0)", [
            (-1, ("nu123", "g1234+nu123+3"), ()),
            (Rat(-1, 2), ("g4+1", "g1234+2"), ()),
            (Rat(1, 2), (_BR3, "2nu2(g234+nu2+2nu3+2)+(g34+2nu3+2)(g234+2nu3+1)", _BR1),
             ("g34+2nu3", "g34+2nu3+2", "g234+2nu23+1", "g234+2nu23+3")),
        ]),
    },
}


def _printed_operator(name: str, gamma) -> RacahOp:
    """The printed operator ``name`` with every form of its table bound to gamma."""
    d = PRINTED_OPERATORS[name][0]
    g = require_valid(gamma, d).gamma
    terms = [
        RacahTerm(shift, PrintedCoefficient(label, [
            Summand(as_rat(const), _forms(num, g), _forms(den, g)) for const, num, den in summands
        ]))
        for shift, (label, summands) in _PRINTED_TERMS[name].items()
    ]
    return RacahOp(d, name, terms)


def b12_operator(gamma) -> RacahOp:
    """Three-term operator on (nu_1, nu_2) representing L_{1,2} for d = 2."""
    return _printed_operator("B12", gamma)


def b23_operator(gamma) -> RacahOp:
    """Three-term operator on nu representing L_{2,3} for d = 3."""
    return _printed_operator("B23", gamma)


def b134_operator(gamma) -> RacahOp:
    """Three-term operator on nu representing L_{1,3}+L_{1,4}+L_{3,4} for d = 3."""
    return _printed_operator("B134", gamma)


def b123_operator(gamma) -> RacahOp:
    """Nine-term operator on nu representing L_{1,2}+L_{1,3}+L_{2,3} for d = 3."""
    return _printed_operator("B123", gamma)


# name -> (d, builder) of every printed operator
PRINTED_OPERATORS = {
    "B12": (2, b12_operator),
    "B23": (3, b23_operator),
    "B134": (3, b134_operator),
    "B123": (3, b123_operator),
}


def certificate_2d(nu, gamma) -> Rat:
    """The 2D irreducibility certificate

        D = 2 c(-1,+1)(nu) c(+1,-1)(nu) (1 + 2 nu_2 + gamma_2 + gamma_3),

    nonzero at every interior index (nu_1 > 0 and nu_2 > 0) of a valid family.
    """
    params = require_valid(gamma, 2)
    nu = tuple(int(v) for v in nu)
    if len(nu) != 2 or nu[0] <= 0 or nu[1] <= 0:
        raise ValueError(f"certificate needs an interior index, got {nu}")
    op = b12_operator(params)
    c_mp = op.coefficient((-1, 1), nu)
    c_pm = op.coefficient((1, -1), nu)
    return 2 * c_mp * c_pm * (1 + 2 * nu[1] + params[2] + params[3])


# -- the general family specialized to degree indices ------------------------


def _direction(size: int) -> tuple:
    """The fixed direction v of the limits, (1/3, 1/7, 1/11, 1/19, ...): the
    reciprocals of the first ``size`` primes p = 3 (mod 4).  The t-slope of
    every denominator factor of the product form is, up to sign and a factor
    1/2, the sum of a nonempty set of them, so it is never 0."""
    primes, p = [], 3
    while len(primes) < size:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            primes.append(p)
        p += 4
    return tuple(Rat(1, p) for p in primes)


def _limit_at_zero(num: MultiPoly, den: MultiPoly) -> Rat:
    """lim_{t -> 0} num/den for polynomials in one variable t: the ratio of
    the t^v coefficients, v the t-valuation of den.  The quotient is regular
    at t = 0 whenever it is a matrix entry at a valid gamma0, so a lower
    valuation of num, or a den that vanishes identically, is a defect."""
    if den.is_zero():
        raise InvariantViolation("denominator vanishes identically along gamma0 + t·v")
    v = min(e for (e,) in den.terms)
    if num.terms and min(e for (e,) in num.terms) < v:
        raise InvariantViolation(f"pole of order {v - min(e for (e,) in num.terms)} at t = 0")
    return num.terms.get((v,), Rat(0)) / den.terms[(v,)]


def _family_inputs(variant: str, m: int, n: int, g) -> tuple:
    """(beta_0..beta_{m+1}, fold, b table) of one predicted M_j action, for
    g = (gamma_1, ..., gamma_{d+1}) over any ring: rationals at gamma0, or
    polynomials in t at gamma0 + t·v.

    The plus variant is conjugated by g(nu): shifts with sigma_1 = +1 gain
    (1+g_1+z_1)/(A-1-z_1) and sigma_1 = -1 gain (A-z_1)/(g_1+z_1), where
    A = |g| + 2n + d, so its fold is (g_1, A); the minus variant has none.
    The b table maps (k, bit) to b_k^bit as (constant, root, root) of its
    monic linear factors."""
    d = len(g) - 1
    plus, minus = _beta_maps(g, n, d)
    beta = tuple((plus if variant == "plus" else minus)[: m + 2])
    fold = (g[0], sum(g, Rat(0)) + 2 * n + d) if variant == "plus" else None
    b_factors = {}
    for k in range(1, m + 1):
        for bit in (0, 1):
            const, ((_, r1), (_, r2)) = _b_denominator(k, bit, beta)
            b_factors[k, bit] = (const, r1, r2)
    return beta, fold, b_factors


def _scaled(values, unit: int) -> tuple:
    """unit·v for each v, as ints; InvariantViolation where one is not an integer."""
    out = []
    for v in values:
        scaled = as_rat(v) * unit
        if scaled.denominator != 1:
            raise InvariantViolation(f"{unit}·{rat_str(v)} is not an integer")
        out.append(int(scaled.numerator))
    return tuple(out)


def _link(s: int, t: int, P: int, Q: int, a: int, b: int, D: int) -> int:
    """2D²·B_k^{|s|,|t|}(x, y) for P = D·x, Q = D·y, a = D·beta_k and
    b = D·beta_{k+1}: ``_kernel`` scaled to an integer."""
    if not s:
        if not t:
            return 2 * P * (P + a) + 2 * Q * (Q + b) + (a + D) * (b - D)
        return 2 * (Q + P + b) * (Q - P + b - a)
    if not t:
        return 2 * (Q - P) * (Q + P + b)
    return 2 * (Q + P + b) * (Q + P + b + D)


def _b_entry(s: int, P: int, a: int, D: int) -> int:
    """4D²·b_k^{|s|}(x) for P = D·x and a = D·beta_k."""
    if not s:
        return 2 * (2 * P + a + D) * (2 * P + a - D)
    return 4 * (2 * P + a + D) * (2 * P + a)


class _FoldedFamily:
    """The coefficients of one predicted M_j action, C_{m,sigma} read on nu.

    C_sigma is the fold factor (plus variant only) times the
    nearest-neighbour product of the kernels B_k(s_k, s_{k+1}), k = 0..m
    with s_0 = s_{m+1} = 0, over the product of the b_k^{|s_k|}, all read at
    I_sigma(z): z_k becomes -z_k - beta_k wherever s_k = -1.
    ``column(z)`` returns every C_sigma at one z, one column at a time, and
    ``at(nu)`` keeps the column of the last nu, so the terms of one nu share
    it.  With D the lcm of gamma's denominators, D·beta_k and D·fold are
    integers, so the column is worked out in Python ints.  ``_tables``
    gives a link table of 2D²·B_k(s, t) for s, t in {-1, 0, 1} and a
    denominator table of 4D²·b_k^{|s|}; the fold's numerator and
    denominator are scaled by D.  ``column`` extends every sign prefix by
    one sign at a time, carrying its numerator and denominator products,
    and makes one ``Rat`` per sigma whose numerator is nonzero,
    fold_num·ΠK·(4D²)^m over fold_den·Πb·(2D²)^{m+1}.  On the zero shift it
    subtracts the identity term and adds the plus variant's constant.

    Where a denominator entry (a b_k or the fold's) vanishes, the
    denominator product is 0 and ``_limit`` takes over for that sigma:
    ``_factors`` returns the same factors unscaled, over any ring, and
    ``_limit`` multiplies them over Q[t], with the inputs at gamma0 + t·v
    (``_over_t``, built on the first limit) and z free of t, and returns
    their exact limit as t -> 0.  The Q[t] kernels of one z are built once,
    keyed by (k, s_k, s_{k+1}), and shared by every sigma of the column.  The
    zero shift's polynomial terms are continuous, so they are read at t = 0.
    """

    def __init__(self, variant: str, m: int, n: int, gamma: tuple, z_of_nu: Callable):
        self.variant, self.m, self.n, self.gamma = variant, m, n, gamma
        self.z_of_nu = z_of_nu
        self.beta, self.fold, self.b_factors = _family_inputs(variant, m, n, gamma)
        beta = self.beta
        self.identity_const = (beta[0] + 1) * (beta[m + 1] - 1) / 2
        self.constant = 0 if self.fold is None else n * (n + beta[m + 1] - beta[0] - 1)
        self.unit = lcm(*(as_rat(g).denominator for g in gamma))  # D
        self.scaled_beta = _scaled(beta, self.unit)
        self.scaled_fold = None if self.fold is None else _scaled(self.fold, self.unit)
        # (4D²)^m / (2D²)^(m+1) = 2^(m-1) / D²
        self.scale = (2 ** (m - 1), self.unit ** 2)
        self._nu = self._column = None
        self._t_kernels = (None, {})  # (z, {(k, s_k, s_{k+1}): kernel over Q[t]})

    def at(self, nu) -> list:
        """``column(z_of_nu(nu))``, kept for the last nu."""
        if nu != self._nu:
            self._column = self.column(self.z_of_nu(nu))
            self._nu = tuple(nu)
        return self._column

    def column(self, z) -> list:
        """C_sigma at z for every sigma, in the order of ``product((-1, 0, 1), repeat=m)``."""
        m, D = self.m, self.unit
        links, b_table = self._tables(z)
        fold_num = fold_den = (1, 1, 1)
        if self.scaled_fold is not None:
            g1, A = self.scaled_fold
            Z1 = D * z[0]
            # g(nu+mu)/g(nu) is (A - z_1)/(z_1 + g_1) at s_1 = -1 and
            # (z_1 + g_1 + 1)/(A - 1 - z_1) at s_1 = +1
            fold_num = (A - Z1, 1, Z1 + g1 + D)
            fold_den = (Z1 + g1, 1, A - D - Z1)
        # the products of every sign prefix s_1..s_k, in product order, so
        # that s_k of prefix i is i % 3 - 1
        nums = [f * link for f, link in zip(fold_num, links[0][0])]
        dens = [f * b for f, b in zip(fold_den, b_table[0])]
        for k in range(1, m):
            table, row = links[k], b_table[k]
            nums = [p * entry for i, p in enumerate(nums) for entry in table[i % 3]]
            dens = [q * b for q in dens for b in row]
        last = links[m]
        p, q = self.scale
        column = []
        for i, (num, den) in enumerate(zip(nums, dens)):
            num *= last[i % 3][0]
            column.append(None if not den else Rat(num * p, den * q) if num else ZERO)
        for i, den in enumerate(dens):
            if not den:
                column[i] = self._limit(self._patterns[i], z)
        zero = (len(column) - 1) // 2  # the index of sigma = (0, ..., 0)
        top = z[m]
        column[zero] += self.constant - top * (top + self.beta[m + 1]) - self.identity_const
        return column

    def _tables(self, z) -> tuple:
        """(links, b_table) at z: links[k][s][t] is 2D²·B_k(s, t) and
        b_table[k - 1][s] is 4D²·b_k^{|s|}, with s and t indexing the signs
        (-1, 0, 1) of s_k and s_{k+1}, and only sign 0 at k = 0 and k = m + 1."""
        m, D, a = self.m, self.unit, self.scaled_beta
        Z = [0, *(D * zk for zk in z)]  # Z[k] = D·z_k with z_0 = 0
        # points[k] holds D times z_k at each allowed sign, I_k(z_k) at s_k = -1
        points = [(0,)] + [(-Z[k] - a[k], Z[k], Z[k]) for k in range(1, m + 1)] + [(Z[m + 1],)]
        signs = [(0,)] + [(-1, 0, 1)] * m + [(0,)]
        links = [
            [[_link(s, t, P, Q, a[k], a[k + 1], D) for t, Q in zip(signs[k + 1], points[k + 1])]
             for s, P in zip(signs[k], points[k])]
            for k in range(m + 1)
        ]
        b_table = [[_b_entry(s, P, a[k], D) for s, P in zip(signs[k], points[k])] for k in range(1, m + 1)]
        return links, b_table

    @cached_property
    def _patterns(self) -> list:
        """sigma at each index of a column, built on the first limit."""
        return list(product((-1, 0, 1), repeat=self.m))

    def _factors(self, sigma, z, beta, fold, b_factors, kernels=None) -> tuple:
        """(fold numerator, kernels, denominator factors) of C_sigma at z, the
        kernels lazily, in order; with a ``kernels`` dict, each kernel is read
        from it or stored in it under (k, s_k, s_{k+1}), for one z only."""
        zs = [0, *z]  # zs[k] = z_k with z_0 = 0
        z1 = zs[1]
        bits = [0, *map(abs, sigma), 0]
        den = []
        for k, s in enumerate(sigma, start=1):
            if s == -1:
                zs[k] = -zs[k] - beta[k]
            const, r1, r2 = b_factors[k, bits[k]]
            den += (const, zs[k] - r1, zs[k] - r2)
        fold_num = 1
        if fold is not None and sigma[0]:
            g1, A = fold
            if sigma[0] == 1:
                # g(nu+mu)/g(nu) = (z_1 + g_1 + 1) / (A - 1 - z_1)
                fold_num = z1 + g1 + 1
                den.append(A - 1 - z1)
            else:
                # g(nu+mu)/g(nu) = (A - z_1) / (z_1 + g_1)
                fold_num = A - z1
                den.append(z1 + g1)
        factors = zip(bits, bits[1:], zs, zs[1:], beta, beta[1:])
        if kernels is None:
            return fold_num, (_kernel(*args) for args in factors), den
        signs = (0, *sigma, 0)
        shared = []
        for k, args in enumerate(factors):
            key = (k, signs[k], signs[k + 1])
            if key not in kernels:
                kernels[key] = _kernel(*args)
            shared.append(kernels[key])
        return fold_num, shared, den

    @cached_property
    def _over_t(self) -> tuple:
        """``_family_inputs`` over Q[t] at gamma0 + t·v, built on the first limit."""
        t = MultiPoly.variable(1, 0)
        g = [t.scale(v) + g0 for g0, v in zip(self.gamma, _direction(len(self.gamma)))]
        return _family_inputs(self.variant, self.m, self.n, g)

    def _limit(self, sigma, z) -> Rat:
        """The product form of C_sigma over Q[t], as its exact limit t -> 0,
        with the kernels of this z shared across sigma."""
        if self._t_kernels[0] != z:
            self._t_kernels = (z, {})
        fold_num, kernels, den = self._factors(sigma, z, *self._over_t, self._t_kernels[1])
        return _limit_at_zero(prod(kernels, start=fold_num), prod(den))


class ZMappedCoefficient:
    """One general-family coefficient read through a nu -> z change of variables:
    entry ``index`` of its family's column at z(nu)."""

    def __init__(self, family: _FoldedFamily, sigma: tuple):
        self.family = family
        self.sigma = sigma
        self.index = sum((s + 1) * 3 ** l for l, s in enumerate(reversed(sigma)))

    def eval(self, nu) -> Rat:
        return self.family.at(nu)[self.index]


def predicted_m_action(variant: str, j: int, n: int, d: int, gamma) -> RacahOp:
    """Difference operator representing M_j^+ (plus) or M_j^- (minus) on |nu| = n.

    Both read the general family with m = j - 1 (plus) or d + 1 - j (minus)
    along an ``order`` of the indices of nu, forwards for M_j^+ and backwards
    for M_j^-: z_l sums the first l entries of nu in that order, and sigma_l
    moves one unit from nu[order[l]] to nu[order[l-1]]."""
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    if not 2 <= j <= d:
        raise ValueError(f"j must satisfy 2 <= j <= {d}")
    params = require_valid(gamma, d)
    m, order = (j - 1, range(d)) if variant == "plus" else (d + 1 - j, range(d - 1, -1, -1))
    take = itemgetter(*order[: m + 1])

    def z_of_nu(nu):
        return tuple(accumulate(take(nu)))

    def shift_of(sigma):
        mu = [0] * d
        for l, s in enumerate(sigma):
            mu[order[l]] += s
            mu[order[l + 1]] -= s
        return tuple(mu)

    family = _FoldedFamily(variant, m, n, params.gamma, z_of_nu)
    terms = [
        RacahTerm(shift_of(sigma), ZMappedCoefficient(family, sigma))
        for sigma in _sign_patterns(m)
    ]
    return RacahOp(d, f"R{'+' if variant == 'plus' else '-'}:{j}", terms)
