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
shifted by the constant n(n + beta^+_j - beta^+_0 - 1).  Its coefficients
are evaluated pointwise from the product form: the kernels over the factors
b_i at the involuted point, times the g(nu) factor.  Every matrix entry is a
rational function of gamma that is regular at a valid gamma0.  Wherever no
factor of the unreduced denominator vanishes, the product form's value is
that entry.  Where one vanishes, the same product form runs over Q[t] at
gamma0 + t·v for a fixed direction v, and the entry is its exact limit as
t -> 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import isqrt, prod
from typing import Callable, Sequence

from .errors import DegenerateParameter, DimensionMismatch, InvariantViolation
from .jacobi import level_indices
from .linalg import ExactMatrix
from .params import require_valid
from .poly import MultiPoly
from .scalar import Rat, as_rat, rat_str

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
        MultiPoly._raw(poly.dim, by_power.get(p, {})) for p in range(max_pow + 1)
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
    return MultiPoly._raw(poly.dim, quotient_terms), remainder


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

    def __getitem__(self, i: int) -> Rat:
        return self.values[i]


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


class CoefficientEvaluator:
    """Interface: exact coefficient of one shift, as a function of nu."""

    def eval(self, nu) -> Rat:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class RacahTerm:
    shift: tuple
    coef: CoefficientEvaluator


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
        escaping coefficient is an error.
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
                    raise ValueError(
                        f"{self.name}: nonzero coefficient {rat_str(value)} escapes the "
                        f"range at nu={nu}, shift {term.shift}"
                    )
                entries[index[target]][col] += value
        return ExactMatrix(entries)


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


class PrintedCoefficient(CoefficientEvaluator):
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


def _b_table(m: int, beta) -> dict:
    """(k, bit) -> b_k^bit as (constant, roots of its monic linear factors)."""
    table = {}
    for k in range(1, m + 1):
        for bit in (0, 1):
            const, factors = _b_denominator(k, bit, beta)
            table[k, bit] = (const, [root for _, root in factors])
    return table


class _FoldedFamily:
    """The coefficients of one predicted M_j action, C_{m,sigma} read on nu.

    ``value`` evaluates a coefficient from the paper's product form: the
    kernels B_k over the factors b_k at I_sigma(z), times the g(nu) fold
    factor of the plus variant, and on the zero shift minus the identity
    term plus the plus variant's constant.  Where no unreduced denominator
    factor vanishes this is the coefficient's value.  Where one does,
    ``_limit`` runs the same product form over Q[t], with beta and the fold's
    (g_1, A) at gamma0 + t·v (``series``, called on the first limit) and z
    and the boundary free of t, and returns its exact limit as t -> 0.  The
    zero shift's polynomial terms are continuous, so they are read at t = 0.
    """

    def __init__(self, m: int, beta, boundary, fold, constant, z_of_nu: Callable, series):
        self.m = m
        self.beta = tuple(as_rat(b) for b in beta[: m + 2])
        self.boundary = boundary
        self.fold = fold  # (gamma_1, A) for the plus variant, else None
        self.constant = constant
        self.z_of_nu = z_of_nu
        self.b_factors = _b_table(m, self.beta)
        self.identity_const = (self.beta[0] + 1) * (self.beta[m + 1] - 1) / 2
        self.series = series  # () -> (beta, fold) over Q[t] along gamma0 + t·v

    def value(self, sigma, z) -> Rat:
        """C_sigma at z from the product form, or its limit along gamma0 + t·v."""
        m, beta = self.m, self.beta
        zs = [0, *z]  # zs[k] = z_k with z_0 = 0
        if self.boundary is not None:
            zs[m + 1] = self.boundary
        z1 = zs[1]
        bits = [0] * (m + 2)
        for k, s in enumerate(sigma, start=1):
            bits[k] = abs(s)
            if s == -1:
                zs[k] = -zs[k] - beta[k]
        den = []  # the unreduced denominator, factor by factor
        for k in range(1, m + 1):
            const, roots = self.b_factors[k, bits[k]]
            den.append(const)
            den += (zs[k] - root for root in roots)
        fold_num = 1
        if self.fold is not None and sigma[0]:
            g1, A = self.fold
            if sigma[0] == 1:
                # g(nu+mu)/g(nu) = (z_1 + g_1 + 1) / (A - 1 - z_1)
                fold_num = z1 + g1 + 1
                den.append(A - 1 - z1)
            else:
                # g(nu+mu)/g(nu) = (A - z_1) / (z_1 + g_1)
                fold_num = A - z1
                den.append(z1 + g1)
        if 0 in den:
            value = self._limit(sigma, z)
        else:
            value = as_rat(fold_num)
            for k in range(m + 1):
                value *= _kernel(bits[k], bits[k + 1], zs[k], zs[k + 1], beta[k], beta[k + 1])
                if value == 0:
                    break
            else:
                value /= prod(den)
        if not any(sigma):
            last = zs[m + 1]
            value -= last * (last + beta[m + 1]) + self.identity_const
            value += self.constant
        return value

    @cached_property
    def _over_t(self):
        """beta, the fold and the b table over Q[t], built on the first limit."""
        beta, fold = self.series()
        beta = tuple(beta[: self.m + 2])
        return beta, fold, _b_table(self.m, beta)

    def _limit(self, sigma, z) -> Rat:
        """The product form of C_sigma as in ``value``, over Q[t], as its
        exact limit t -> 0."""
        m = self.m
        beta, fold, b_factors = self._over_t
        zs = [0, *z]
        if self.boundary is not None:
            zs[m + 1] = self.boundary
        z1 = zs[1]
        bits = (0, *map(abs, sigma), 0)
        for k, s in enumerate(sigma, start=1):
            if s == -1:
                zs[k] = -zs[k] - beta[k]
        num, den = 1, 1
        for k in range(1, m + 1):
            const, roots = b_factors[k, bits[k]]
            den = prod((zs[k] - root for root in roots), start=den * const)
        if fold is not None and sigma[0]:
            g1, A = fold  # the g(nu+mu)/g(nu) factor, as in value
            num, den = (z1 + g1 + 1, den * (A - 1 - z1)) if sigma[0] == 1 else (A - z1, den * (z1 + g1))
        for k in range(m + 1):
            num = _kernel(bits[k], bits[k + 1], zs[k], zs[k + 1], beta[k], beta[k + 1]) * num
        return _limit_at_zero(num, den)


class ZMappedCoefficient(CoefficientEvaluator):
    """One general-family coefficient read through a nu -> z change of variables."""

    def __init__(self, family: _FoldedFamily, sigma: tuple):
        self.family = family
        self.sigma = sigma
        self.z_of_nu = family.z_of_nu

    def eval(self, nu) -> Rat:
        return self.family.value(self.sigma, self.z_of_nu(tuple(nu)))


def predicted_m_action(variant: str, j: int, n: int, d: int, gamma) -> RacahOp:
    """Difference operator representing M_j^+ (plus) or M_j^- (minus) on |nu| = n."""
    if variant not in ("plus", "minus"):
        raise ValueError("variant must be 'plus' or 'minus'")
    if not 2 <= j <= d:
        raise ValueError(f"j must satisfy 2 <= j <= {d}")
    params = require_valid(gamma, d)
    beta_plus, beta_minus = parameter_maps(params, n, d)

    def series():
        """beta and the fold over Q[t] at gamma0 + t·v, by the same affine maps."""
        t = MultiPoly.variable(1, 0)
        g = [t.scale(v) + g0 for g0, v in zip(params.gamma, _direction(d + 1))]
        plus, minus = _beta_maps(g, n, d)
        if variant == "minus":
            return minus, None
        return plus, (g[0], sum(g, Rat(0)) + 2 * n + d)

    if variant == "plus":
        m = j - 1
        beta = beta_plus
        boundary = n if j == d else None
        # the diagonal conjugation by g(nu): shifts with sigma_1 = +1 gain
        # (1+g_1+z_1)/(A-1-z_1), sigma_1 = -1 gain (A-z_1)/(g_1+z_1), where
        # A = |gamma| + 2n + d; the zero shift gains n(n + beta_j - beta_0 - 1)
        fold = (params[1], params.total() + 2 * n + d)
        constant = n * (n + beta[j] - beta[0] - 1)

        def z_of_nu(nu):
            return tuple(sum(nu[:l]) for l in range(1, m + 2))

        def shift_of(sigma):
            mu = [0] * d
            for l, s in enumerate(sigma, start=1):
                mu[l - 1] += s
                mu[l] -= s
            return tuple(mu)

        name = f"R+:{j}"
    else:
        m = d + 1 - j
        beta = beta_minus
        boundary = n if j == 2 else None
        fold, constant = None, 0

        def z_of_nu(nu):
            return tuple(sum(nu[d - l :]) for l in range(1, m + 2))

        def shift_of(sigma):
            mu = [0] * d
            for l, s in enumerate(sigma, start=1):
                mu[d - l] += s
                mu[d - l - 1] -= s
            return tuple(mu)

        name = f"R-:{j}"

    family = _FoldedFamily(m, beta.values, boundary, fold, constant, z_of_nu, series)
    terms = [
        RacahTerm(shift_of(sigma), ZMappedCoefficient(family, sigma))
        for sigma in _sign_patterns(m)
    ]
    return RacahOp(d, name, terms)
