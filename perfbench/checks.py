"""Correctness checks on the program's outputs, made after the timed cells.

Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

from simplexalg.verify import ModuleContext

from workloads import (
    ACCEPTED_RACAH_DEGENERATE,
    ESCAPE_CELLS,
    WRONG_FAIL_CELLS,
    gamma_key,
    has_gamma_le_minus_one,
)

# suite -> the check names its report entries carry, in order
SUITE_CHECKS = {
    "spectral": ("spectral",),
    "racah": ("racah",),
    "f-relation": ("f-relation",),
    "kd": ("kd", "kd-matrix"),
    "orthogonality": ("orthogonality",),
    "irreducibility": ("irreducibility", "submodules"),
    "separation": ("separation",),
    "relations": ("relations",),
}


def expected_checks(suites) -> list:
    return [name for suite in suites for name in SUITE_CHECKS[suite]]


def expected_status(workload: str, check: str, gamma) -> "set[str]":
    """Verdicts a check may return on a cell of this workload."""
    if workload != "sweep-random":
        return {"pass"}  # generic gamma: the paper's theorems hold
    if check == "orthogonality":
        return {"degenerate"} if has_gamma_le_minus_one(gamma) else {"pass"}
    if check == "racah" and gamma_key(gamma) in WRONG_FAIL_CELLS:
        return {"fail", "degenerate"}  # the known wrong verdict, or its mend
    if check == "racah" and gamma_key(gamma) in ACCEPTED_RACAH_DEGENERATE:
        return {"pass", "degenerate"}
    return {"pass"}


def cell_problems(workload: str, cell, report, error) -> list:
    d, n, gamma, suites, _ = cell
    label = f"d={d} n={n} gamma=({gamma_key(gamma)})"
    if report is None:
        if workload == "sweep-random" and gamma_key(gamma) in ESCAPE_CELLS and error.startswith("ValueError") and "escapes the range" in error:
            return []  # the known escape fault: a failed cell, not a wrong output
        return [f"{label}: unexpected failure {error}"]
    names = [check.name for check in report.checks]
    if names != expected_checks(suites):
        return [f"{label}: report carries checks {names}"]
    return [
        f"{label}: {check.name} is {check.status}"
        for check in report.checks
        if check.status not in expected_status(workload, check.name, gamma)
    ]


def joint_eigenvalue(j: int, nu, gamma) -> int:
    """-|nu_{j..d}| (|nu_{j..d}| + gamma_j + ... + gamma_{d+1} + d + 1 - j)."""
    d = len(nu)
    tail = sum(nu[j - 1 :])
    return -tail * (tail + sum(gamma.gamma[j - 1 :]) + d + 1 - j)


def spectrum_problems(cell) -> list:
    """The M_j matrices of the cell are diagonal with the joint spectrum."""
    d, n, gamma, _, _ = cell
    ctx = ModuleContext(d, n, gamma)
    for j in range(1, d + 1):
        matrix = ctx.m_matrix(j)
        for a, nu in enumerate(ctx.level):
            for b in range(len(ctx.level)):
                expected = joint_eigenvalue(j, nu, gamma) if a == b else 0
                if matrix[(a, b)] != expected:
                    return [f"d={d} n={n}: M_{j} entry ({a},{b}) is not {expected}"]
    return []
