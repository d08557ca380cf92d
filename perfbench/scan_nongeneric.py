"""Lenient Racah verdicts on the cells sweep-random considers, to regenerate
the list of cells whose Racah verdict may be degenerate.

    PYTHONPATH=src python3 perfbench/scan_nongeneric.py

For every seed of SCAN_SEEDS, takes the valid draws that
``workloads.sweep_draws`` picks sweep-random's seeded cells from (with the
doubling a rare seed needs), adds the fixed escape and wrong-fail cells, runs
the racah suite in lenient mode on each, and prints each cell whose verdict
is not "pass".  It ends with a count of verdicts split by whether the
workload runs the cell and by the ``nongeneric`` predicate.  A verdict of
"escape" is the ValueError of RacahOp.matrix_on_level.  On these seeds,
ACCEPTED_RACAH_DEGENERATE in workloads.py must hold every cell printed as
"degenerate" or "escape" that the workload runs.
"""

from __future__ import annotations

from collections import Counter

from simplexalg.params import ParamVector
from simplexalg.verify import run_suites

from workloads import ESCAPE_CELLS, SWEEP_N, WRONG_FAIL_CELLS, gamma_key, nongeneric, sweep_draws

SCAN_SEEDS = range(0, 40)


def racah_verdict(d: int, n: int, gamma) -> str:
    try:
        return run_suites(d, n, gamma, ("racah",), "lenient").checks[0].status
    except ValueError as exc:
        if "escapes the range" not in str(exc):
            raise
        return "escape"


def main() -> int:
    cells = []
    for text in ESCAPE_CELLS + WRONG_FAIL_CELLS:
        gamma = ParamVector.parse(text)
        cells.append((gamma.d, SWEEP_N, gamma, "fixed", True))
    for seed in SCAN_SEEDS:
        drawn, _, picked = sweep_draws(seed)
        for cell in drawn:
            cells.append((*cell[:3], f"seed {seed}", cell in picked))
    counts: Counter = Counter()
    for d, n, gamma, source, runs in cells:
        verdict = racah_verdict(d, n, gamma)
        kind = "nongeneric" if nongeneric(gamma) else "generic"
        counts[("run" if runs else "not run", kind, verdict)] += 1
        if verdict != "pass":
            print(f"{source:9s} d={d} n={n} gamma=({gamma_key(gamma)}) {verdict}{'' if runs else ' (not run)'}")
    for (runs, kind, verdict), count in sorted(counts.items()):
        print(f"{runs:8s} {kind:10s} {verdict:10s} {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
