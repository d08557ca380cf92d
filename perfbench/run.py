"""Benchmark of simplexalg cell verification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of a workload runs in a fresh
interpreter (perfbench/worker.py with PYTHONPATH=src), as one CLI invocation
does, so module-level caches start empty.  The load is one process at a
time.

--trace 0 runs setup probes, then whole rounds until S seconds have passed
(at least two, whose reports must be byte-identical), and prints the
end-to-end metrics.  --trace 1 runs one untraced round, one traced round
(spans and counters; the trace goes to perfbench/out/) and one cProfile
round, and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 1 when a correctness check fails and 2 when a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"setup_s": "s", "cells_per_s": "1/s", "cell_s_p50": "s", "peak_rss_mib": "MiB"}
SETUP_PROBES = 40
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 170


class RoundError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """One worker process; its result, with its measured set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{mode} round of {workload} exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RoundError(f"{mode} round of {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_cell_at"] - started
    return result


def tally(rounds) -> "tuple[int, int, list]":
    """attempted, failed and problems over rounds of the same cells."""
    attempted = sum(len(r["cells"]) for r in rounds)
    failed = sum(1 for r in rounds for c in r["cells"] if not c["verdict"])
    problems = [p for r in rounds for p in r["problems"]]
    first = [c["digest"] for c in rounds[0]["cells"]]
    for index, r in enumerate(rounds[1:], start=2):
        if [c["digest"] for c in r["cells"]] != first:
            problems.append(f"round {index} reports differ from round 1")
    return attempted, failed, problems


def end_to_end(workload: str, seed: int, seconds: int) -> "tuple[dict, list]":
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds.append(spawn(workload, seed, "time"))
    setups += [r["setup_s"] for r in rounds]
    verdict_times = [c["seconds"] for r in rounds for c in r["cells"] if c["verdict"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "cells_per_s": len(verdict_times) / sum(r["wall"] for r in rounds),
        "cell_s_p50": statistics.median(verdict_times),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, rounds


def per_layer(workload: str, seed: int) -> "tuple[dict, list]":
    plain = spawn(workload, seed, "time")
    traced = spawn(workload, seed, "trace")
    profiled = spawn(workload, seed, "profile")
    metrics = {**traced["layers"], **profiled["layers"]}
    metrics["cli.report_bytes"] = plain["report_bytes"]
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    metrics["trace.unattributed_s"] = traced["wall"] - traced["self_sum_s"]
    rounds = [plain, traced, profiled]
    # For spans nested in one thread the self times sum to the top-level cell
    # spans, so this identity only measures the cell loop's gap between cells;
    # it fails only if cells run outside their spans.
    if abs(metrics["trace.unattributed_s"]) > max(abs(metrics["trace.overhead_s"]), 0.01 * traced["wall"]):
        rounds[1]["problems"].append("traced self times do not add up to the traced wall time")
    print(f"trace written to {traced['trace_file']}")
    return {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simplexalg cell-verification benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            metrics, rounds = per_layer(args.workload, args.seed)
        else:
            metrics, rounds = end_to_end(args.workload, args.seed, args.seconds)
    except RoundError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted, failed, problems = tally(rounds)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, inputs {rounds[0]['info']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
