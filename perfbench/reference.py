"""Reference figures: the ROADMAP Baseline cells, measured with the tracer.

    PYTHONPATH=src python3 perfbench/reference.py

Not a workload: it runs once, for about two minutes, on gamma = (1/2, 1/3,
1/5, 1/7, 1/11, 1/13) truncated to d + 1 entries.  It prints the all-suite
cells d=2 n=6, d=3 n=4 and d=4 n=3 (total, orthogonality, irreducibility),
the split of the Racah suite at d=5 n=3, and the build time of the general
family for j = 3 and 4, and writes them to perfbench/out/reference.json.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from simplexalg import racah
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat
from simplexalg.verify import SUITES, run_suites

from tracer import Tracer, inclusive_times, instrument

OUT = Path(__file__).resolve().parent / "out" / "reference.json"


def gamma_for(d: int) -> ParamVector:
    return ParamVector([Rat(1, p) for p in (2, 3, 5, 7, 11, 13)[: d + 1]])


def traced(d: int, n: int, suites) -> dict:
    tracer = Tracer()
    start = time.perf_counter()
    with instrument(tracer):
        run_suites(d, n, gamma_for(d), suites, "strict")
    wall = time.perf_counter() - start
    busy = inclusive_times(tracer.spans)
    return {"wall_s": wall, **{name: busy[name] for name in sorted(busy)}, **tracer.counters}


def main() -> int:
    figures = {}
    for d, n in ((2, 6), (3, 4), (4, 3)):
        figures[f"all d={d} n={n}"] = traced(d, n, SUITES)
    figures["racah d=5 n=3"] = traced(5, 3, ("racah",))
    beta_minus = racah.parameter_maps(gamma_for(5), 3, 5)[1]
    for j in (3, 4):
        start = time.perf_counter()
        racah._build_racah_operator(j, beta_minus.values[: j + 2], None)
        figures[f"family build j={j}"] = {"wall_s": time.perf_counter() - start}
    for label, row in figures.items():
        parts = [f"{row['wall_s']:.2f} s"]
        for key in ("suite.orthogonality", "suite.irreducibility", "context.build", "verify.matrix_of",
                    "racah.family_build", "racah.assemble", "racah.coefficient_evals"):
            if row.get(key):
                parts.append(f"{key} {row[key]:.4g}")
        print(f"{label:20s} " + ", ".join(parts))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
