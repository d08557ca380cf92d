"""One round of a workload in a fresh interpreter, as one CLI invocation runs.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

MODE is ``setup`` (stop before the first cell), ``time`` (run every cell
untraced), ``trace`` (run them with spans and counters and write the trace
file) or ``profile`` (run them under cProfile for the scalar layer).  The
last line of standard output is one JSON object.  Times are taken with
``time.monotonic`` where the parent compares them with its own clock.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import simplexalg  # noqa: E402  (found through PYTHONPATH=<root>/src)
from simplexalg import cli  # noqa: E402
from simplexalg.scalar import Rat  # noqa: E402

from checks import cell_problems, spectrum_problems  # noqa: E402
from tracer import Tracer, instrument, layer_metrics, trace_summary  # noqa: E402
from workloads import make_cells, spectrum_cell  # noqa: E402

TRACE_DIR = ROOT / "perfbench" / "out"


def run_cells(cells, run_cell):
    """Run every cell; an exception fails that cell and the round goes on."""
    outcomes = []
    for cell in cells:
        start = time.perf_counter()
        try:
            _, report = run_cell(cell)
            error = None
        except Exception as exc:  # a failed cell is counted, not fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((time.perf_counter() - start, report, error))
    return outcomes


def scalar_profile(profile: cProfile.Profile) -> dict:
    """Fraction constructions and the profiled share of time in fractions.py.
    Both read about 0 when ``Rat`` is ``gmpy2.mpq``; ``info`` names the
    backend that ran."""
    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values())
    in_fractions = 0.0
    constructions = 0
    for (filename, _, function), (_, calls, tottime, _, _) in stats.items():
        if filename.endswith("fractions.py"):
            in_fractions += tottime
            if function == "__new__":
                constructions += calls
    return {
        "scalar.fraction_new": constructions,
        "scalar.profiled_share": in_fractions / total if total else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace", "profile"), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if Path(simplexalg.__file__).resolve().parent.parent != src:
        print(f"simplexalg was imported from {simplexalg.__file__}, not {src}", file=sys.stderr)
        return 2
    cells, info = make_cells(args.workload, args.seed)
    # The scalar metrics see only fractions.Fraction (gmpy2.mpq runs in C).
    info["scalar_backend"] = f"{Rat.__module__}.{Rat.__name__}"
    first_cell_at = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"first_cell_at": first_cell_at, "info": info}))
        return 0

    tracer = profile = None
    run_cell = cli._run_cell
    if args.mode == "trace":
        tracer = Tracer()
        run_cell = tracer.wrap("cell", run_cell)
    elif args.mode == "profile":
        profile = cProfile.Profile()

    round_start = time.perf_counter()
    if tracer is not None:
        with instrument(tracer):
            outcomes = run_cells(cells, run_cell)
    elif profile is not None:
        profile.enable()
        outcomes = run_cells(cells, run_cell)
        profile.disable()
    else:
        outcomes = run_cells(cells, run_cell)
    wall = time.perf_counter() - round_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the timed region.
    results = []
    problems = []
    report_bytes = 0
    for cell, (seconds, report, error) in zip(cells, outcomes):
        digest = error
        if report is not None:
            data = report.json_bytes()
            report_bytes += len(data) + 1  # as cli._write_report persists it
            digest = hashlib.sha256(data).hexdigest()
        results.append({"seconds": seconds, "verdict": report is not None, "digest": digest})
        problems.extend(cell_problems(args.workload, cell, report, error))
    problems.extend(spectrum_problems(spectrum_cell(cells)))

    out = {
        "first_cell_at": first_cell_at,
        "wall": wall,
        "peak_rss_mib": peak_rss_mib,
        "cells": results,
        "problems": problems,
        "info": info,
        "report_bytes": report_bytes,
    }
    if tracer is not None:
        summary = trace_summary(tracer)
        out["layers"] = layer_metrics(tracer)
        out["self_sum_s"] = summary["self_sum_s"]
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "info": info, "wall_s": wall, **summary}))
        out["trace_file"] = str(path.relative_to(ROOT))
    if profile is not None:
        out["layers"] = scalar_profile(profile)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
