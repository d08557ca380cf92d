"""The benchmark's inputs: three workloads of simplexalg cells, made from a seed.

A cell is the CLI's work item ``(d, n, gamma, suites, mode)``, as built by
``simplexalg.cli.RunConfig.cells()`` and run by ``simplexalg.cli._run_cell``.
The same workload and seed always give the same cells in the same order.
"""

from __future__ import annotations

import random

from simplexalg.cli import RunConfig
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat
from simplexalg.verify import SUITES

WORKLOADS = ("levels-fixed", "racah-highdim", "sweep-random")

# Generic gammas are seeded orders of these reciprocal primes.  All entries
# are positive and no tail sum is an integer, so every theorem of the paper
# holds on the cell and every check must pass.
RECIPROCAL_PRIMES = (2, 3, 5, 7, 11, 13)

# levels-fixed: every level 1..top for one gamma per d.
LEVEL_TOPS = {2: 5, 3: 3, 4: 2}

# racah-highdim: the racah suite alone on these levels, one gamma per d.
RACAH_LEVELS = {4: (2, 3), 5: (2,)}

# sweep-random: seeded cells per d, split by whether some gamma_j <= -1
# (then orthogonality is degenerate and skipped).  The split is fixed so the
# seed does not change how much of the round is orthogonality work.
SWEEP_D = (2, 3)
SWEEP_N = 2
SWEEP_SPLIT = {False: 12, True: 8}  # has some gamma_j <= -1 -> cells per d
SWEEP_DRAWS = 200

# Cells that fail on every run: RacahOp.matrix_on_level raises
# "ValueError: ... escapes the range" (gamma_2 + gamma_3 in {0, -1}).  They
# do not depend on the seed, so every round fails the same number of cells.
ESCAPE_CELLS = ("-1/2,-5/2,5/2", "1/2,-2/3,2/3", "0,3/2,-3/2", "1,1/2,-1/2")

# Cells on which the racah suite returns a wrong "fail" verdict on every run:
# a tail sum gamma_j + ... + gamma_{d+1} is an integer <= 0 (-2 and -1 here),
# where the verdict should be "degenerate".  The first has some gamma_j <= -1
# (orthogonality degenerate), the second none.
WRONG_FAIL_CELLS = ("5/3,1/2,-5/4,-5/4", "1/2,1/2,-1/2,-1/2")

# Cells whose Racah verdict may be "degenerate": the escape and wrong-fail
# cells (their verdict once the fault is mended) and the known lenient-mode
# degenerate cells, of which scan_nongeneric.py has found none so far.
ACCEPTED_RACAH_DEGENERATE = frozenset(ESCAPE_CELLS + WRONG_FAIL_CELLS)


def gamma_key(gamma: ParamVector) -> str:
    return ",".join(gamma.to_json())


def generic_gamma(rng: random.Random, d: int) -> ParamVector:
    values = [Rat(1, p) for p in RECIPROCAL_PRIMES[: d + 1]]
    rng.shuffle(values)
    return ParamVector(values)


def has_gamma_le_minus_one(gamma: ParamVector) -> bool:
    return any(g <= -1 for g in gamma.gamma)


def nongeneric(gamma: ParamVector) -> bool:
    """Some tail sum gamma_j + ... + gamma_{d+1}, 2 <= j <= d+1, is an
    integer <= 0.  On such cells the Racah suite can raise the escape error
    or return a wrong "fail" verdict depending on the draw, so seeded cells
    avoid them (see CHANGES.md)."""
    for j in range(2, gamma.d + 2):
        tail = gamma.tail_sum(j)
        if tail.denominator == 1 and tail <= 0:
            return True
    return False


def sweep_draws(seed: int):
    """(drawn, skipped, picked) for sweep-random: the valid and the invalid
    CLI draws, and the seeded cells picked from the valid ones in draw order,
    with the draws doubled until every quota is filled."""
    wanted = {(d, neg): k for d in SWEEP_D for neg, k in SWEEP_SPLIT.items()}
    draws = SWEEP_DRAWS
    while True:
        config = RunConfig(
            d_values=SWEEP_D,
            n_values=(SWEEP_N,),
            suites=tuple(SUITES),
            mode="lenient",
            seed=seed,
            draws=draws,
        )
        drawn, skipped = config.cells()
        picked = {key: [] for key in wanted}
        for cell in drawn:
            if nongeneric(cell[2]):
                continue
            key = (cell[0], has_gamma_le_minus_one(cell[2]))
            if len(picked[key]) < wanted[key]:
                picked[key].append(cell)
        if all(len(picked[key]) == k for key, k in wanted.items()):
            return drawn, skipped, [cell for key in wanted for cell in picked[key]]
        # A rare seed: draw more.  The first draws stay the same, so the
        # cells already picked stay picked.
        draws *= 2


def make_cells(workload: str, seed: int):
    """(cells, info): the workload's CLI cells and a summary of the draws."""
    if workload == "levels-fixed":
        rng = random.Random(seed)
        cells = []
        for d, top in LEVEL_TOPS.items():
            config = RunConfig(
                d_values=(d,),
                n_values=tuple(range(1, top + 1)),
                suites=tuple(SUITES),
                mode="strict",
                gamma=generic_gamma(rng, d),
            )
            cells.extend(config.cells()[0])
        return cells, {"cells": len(cells)}
    if workload == "racah-highdim":
        rng = random.Random(seed)
        cells = []
        for d, levels in RACAH_LEVELS.items():
            config = RunConfig(
                d_values=(d,),
                n_values=levels,
                suites=("racah",),
                mode="strict",
                gamma=generic_gamma(rng, d),
            )
            cells.extend(config.cells()[0])
        return cells, {"cells": len(cells)}
    if workload == "sweep-random":
        drawn, skipped, picked = sweep_draws(seed)
        cells = list(picked)
        for text in ESCAPE_CELLS + WRONG_FAIL_CELLS:
            gamma = ParamVector.parse(text)
            cells.append((gamma.d, SWEEP_N, gamma, tuple(SUITES), "lenient"))
        info = {
            "cells": len(cells),
            "fixed_escape_cells": len(ESCAPE_CELLS),
            "fixed_wrong_fail_cells": len(WRONG_FAIL_CELLS),
            "invalid_draws": len(skipped),
            "nongeneric_draws": sum(1 for cell in drawn if nongeneric(cell[2])),
        }
        return cells, info
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def spectrum_cell(cells):
    """The cell whose M_j matrices the joint-spectrum check compares: the
    first cell of the largest d with n >= 2."""
    d_max = max(cell[0] for cell in cells)
    return next(cell for cell in cells if cell[0] == d_max and cell[1] >= 2)
