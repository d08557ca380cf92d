"""Parameter vectors gamma = (gamma_1, ..., gamma_{d+1}) and their validity.

The d-variable Jacobi family is well defined iff, for every j = 1..d+1,

    gamma_j is not an integer <= -1, and
    gamma_j + gamma_{j+1} + ... + gamma_{d+1} is not an integer <= j - d - 2.

These conditions also guarantee that every one-variable Jacobi factor in the
product formula has admissible parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvalidParameter
from .scalar import Rat, as_rat, is_int_leq, rat_str


@dataclass(frozen=True)
class ParamVector:
    """gamma_1..gamma_{d+1} for the d-variable family (immutable)."""

    gamma: tuple

    def __init__(self, gamma: Iterable):
        object.__setattr__(self, "gamma", tuple(as_rat(g) for g in gamma))
        if len(self.gamma) < 2:
            raise InvalidParameter("need at least two parameters (d >= 1)")

    @property
    def d(self) -> int:
        return len(self.gamma) - 1

    def __len__(self) -> int:
        return len(self.gamma)

    def __getitem__(self, j: int) -> Rat:
        """1-based access: self[j] = gamma_j."""
        if not 1 <= j <= len(self.gamma):
            raise IndexError(f"gamma_{j} out of range")
        return self.gamma[j - 1]

    def tail_sum(self, j: int) -> Rat:
        """gamma_j + gamma_{j+1} + ... + gamma_{d+1}; zero when j = d+2."""
        return sum(self.gamma[j - 1 :], Rat(0))

    def to_json(self) -> list:
        return [rat_str(g) for g in self.gamma]

    @cached_property
    def violations(self) -> tuple:
        """check_gamma for this vector's own d, computed once (it is frozen)."""
        return tuple(check_gamma(self))

    @classmethod
    def parse(cls, text: str) -> "ParamVector":
        return cls(token for token in text.split(","))

    def __repr__(self) -> str:
        return "(" + ", ".join(rat_str(g) for g in self.gamma) + ")"


def as_params(gamma) -> ParamVector:
    if isinstance(gamma, ParamVector):
        return gamma
    return ParamVector(gamma)


def check_jacobi_params(alpha, beta) -> list:
    """Violations of the one-variable admissibility conditions (empty = ok)."""
    alpha, beta = as_rat(alpha), as_rat(beta)
    violations = []
    if is_int_leq(alpha, -1):
        violations.append(f"alpha = {rat_str(alpha)} is an integer <= -1")
    if is_int_leq(beta, -1):
        violations.append(f"beta = {rat_str(beta)} is an integer <= -1")
    if is_int_leq(alpha + beta, -2):
        violations.append(f"alpha+beta = {rat_str(alpha + beta)} is an integer <= -2")
    return violations


def check_gamma(gamma, d: int | None = None) -> list:
    """Violations of the d-variable admissibility conditions (empty = ok)."""
    params = as_params(gamma)
    if d is not None and params.d != d:
        return [f"expected {d + 1} parameters, got {len(params)}"]
    d = params.d
    violations = []
    for j in range(1, d + 2):
        if is_int_leq(params[j], -1):
            violations.append(f"gamma_{j} = {rat_str(params[j])} is an integer <= -1")
    for j in range(1, d + 2):
        bound = -d + j - 2
        tail = params.tail_sum(j)
        if is_int_leq(tail, bound):
            violations.append(
                f"gamma_{j}+...+gamma_{d + 1} = {rat_str(tail)} is an integer <= {bound}"
            )
    return violations


def require_valid(gamma, d: int | None = None) -> ParamVector:
    """as_params + raise InvalidParameter listing every violated condition;
    a ParamVector is frozen, so it checks its own conditions once."""
    params = as_params(gamma)
    if d is not None and params.d != d:
        raise InvalidParameter(f"expected {d + 1} parameters, got {len(params)}")
    if params.violations:
        raise InvalidParameter("; ".join(params.violations))
    return params
