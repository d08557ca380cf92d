"""Command-line front end.

Subcommands:

  matrix   print the exact matrix of a named operator on the degree-n space
  verify   run verification suites for explicit (d, n, gamma) cells
  sweep    run suites over seeded random rational gamma draws

Operator names: "L:i,j", "Ltot", "M:j", "M+:j", "M-:j", "F:i,j,k,l" on the
differential side; "B12", "B23", "B134", "B123", "R+:j", "R-:j" on the
difference side.  Gamma values are comma-separated exact rationals ("p/q" or
integers); decimal input is rejected everywhere.

Exit codes: 0 all checks pass, 1 check failure, 2 usage error, 3 invalid
parameters, 4 degenerate parameters (for verify and sweep, a degenerate check
in strict mode; --mode sets only this policy), 5 internal error (an
unexpected exception, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .diffops import f_combination, l_operator, l_total, m_operator
from .errors import DegenerateParameter, InvalidParameter
from .jacobi import level_indices
from .params import ParamVector, check_gamma
from .racah import PRINTED_OPERATORS, RacahOp, predicted_m_action
from .scalar import Rat
from .verify import SUITES, ModuleContext, VerificationReport, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_DEGENERATE = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    pass


def parse_gamma(text: str) -> ParamVector:
    try:
        return ParamVector.parse(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse gamma {text!r}: {exc}") from None
    except InvalidParameter as exc:
        raise UsageError(str(exc)) from None


def parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from None


def parse_dimensions(text: "str | None", default: tuple) -> tuple:
    """--d values for verify and sweep; the suites need d >= 2."""
    d_values = tuple(parse_int_list(text)) if text else default
    small = [d for d in d_values if d < 2]
    if small:
        raise UsageError(f"d = {small[0]} is not supported; verify and sweep need d >= 2")
    return d_values


def require_nonnegative(flag: str, values) -> tuple:
    """Degrees and draw counts are >= 0."""
    values = tuple(values)
    if any(value < 0 for value in values):
        raise UsageError(f"{flag} = {min(values)} is negative; {flag} must be >= 0")
    return values


def require_positive(flag: str, value: int) -> int:
    """Worker counts are >= 1."""
    if value < 1:
        raise UsageError(f"{flag} = {value} is below 1; {flag} must be >= 1")
    return value


def build_operator(name: str, d: int, n: int, gamma: ParamVector):
    """Resolve an operator name to a DiffOp or RacahOp."""
    if name == "Ltot":
        return l_total(d, gamma)
    if ":" in name:
        head, tail = name.split(":", 1)
        indices = parse_int_list(tail)
        try:
            if head == "L" and len(indices) == 2:
                return l_operator(indices[0], indices[1], d, gamma)
            if head in ("M", "M+", "M-") and len(indices) == 1:
                variant = {"M": "plain", "M+": "plus", "M-": "minus"}[head]
                return m_operator(indices[0], d, gamma, variant)
            if head == "F" and len(indices) == 4:
                return f_combination(*indices, d, gamma)
            if head in ("R+", "R-") and len(indices) == 1:
                variant = "plus" if head == "R+" else "minus"
                return predicted_m_action(variant, indices[0], n, d, gamma)
        except ValueError as exc:  # an index out of range for d, or repeated
            raise UsageError(str(exc)) from None
        raise UsageError(f"unknown operator name {name!r}")
    if name in PRINTED_OPERATORS:
        expected_d, builder = PRINTED_OPERATORS[name]
        if d != expected_d:
            raise UsageError(f"operator {name} requires --d {expected_d}")
        return builder(gamma)
    raise UsageError(f"unknown operator name {name!r}")


def cmd_matrix(args) -> int:
    require_nonnegative("n", (args.n,))
    gamma = parse_gamma(args.gamma)
    violations = check_gamma(gamma, args.d)
    if violations:
        print("invalid parameters: " + "; ".join(violations), file=sys.stderr)
        return EXIT_INVALID
    try:
        op = build_operator(args.op, args.d, args.n, gamma)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(op, RacahOp):
        matrix = op.matrix_on_level(args.n)  # main reports a DegenerateParameter
    else:
        matrix = ModuleContext(args.d, args.n, gamma).matrix_of(op)
    payload = {
        "op": args.op,
        "d": args.d,
        "n": args.n,
        "gamma": gamma.to_json(),
        "basis": [list(nu) for nu in level_indices(args.n, args.d)],
        "matrix": matrix.to_json(),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_PASS


@dataclass(frozen=True)
class RunConfig:
    """One reproducible verification run (explicit cells or seeded sweep).

    Identical configurations produce byte-identical report files: gamma draws
    come from the seed alone and persisted reports carry no volatile fields.
    """

    d_values: tuple
    n_values: tuple
    suites: tuple
    mode: str
    gamma: "ParamVector | None" = None
    seed: "int | None" = None
    draws: int = 0
    out: "str | None" = None
    workers: int = 1

    def cells(self):
        """(d, n, gamma, suites, mode) work items, in deterministic order,
        plus the skip records for invalid sampled draws."""
        cells = []
        skipped = []
        if self.gamma is not None:
            for d in self.d_values:
                violations = check_gamma(self.gamma, d)
                if violations:
                    raise InvalidParameter("; ".join(violations))
                for n in self.n_values:
                    cells.append((d, n, self.gamma, self.suites, self.mode))
            return cells, skipped
        rng = random.Random(self.seed)
        for index in range(self.draws):
            for d in self.d_values:
                gamma = sample_gamma(rng, d)
                if check_gamma(gamma, d):
                    skipped.append(
                        {
                            "draw": index,
                            "d": d,
                            "gamma": gamma.to_json(),
                            "reason": "invalid-parameter",
                        }
                    )
                    continue
                for n in self.n_values:
                    cells.append((d, n, gamma, self.suites, self.mode))
        return cells, skipped

    def run(self):
        cells, skipped = self.cells()
        if self.workers > 1:
            # the cells of one (d, gamma) are consecutive, one per degree.  With
            # a group for every worker, a group runs as one chunk in one worker,
            # whose caches then serve all its levels; with fewer groups, each
            # level is its own chunk so that all workers stay busy
            per_group = len(self.n_values)
            chunksize = per_group if len(cells) >= per_group * self.workers else 1
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(_run_cell, cells, chunksize=chunksize))
        else:
            results = [_run_cell(cell) for cell in cells]
        return results, skipped


def _suite_list(text: str) -> tuple:
    if text == "all":
        return tuple(SUITES)
    suites = tuple(tok.strip() for tok in text.split(","))
    for suite in suites:
        if suite not in SUITES:
            raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return suites


def _report_summary(report: VerificationReport, label: str) -> str:
    worst = "pass"
    if report.degenerate:
        worst = "degenerate"
    if not report.ok and any(c.status == "fail" for c in report.checks):
        worst = "fail"
    lines = [f"[{worst:10s}] {label}"]
    for check in report.checks:
        lines.append(
            f"    {check.name:15s} {check.status:10s} {check.millis:6d}ms  {check.details}"
        )
    return "\n".join(lines)


def _run_cell(cell) -> "tuple[str, VerificationReport]":
    d, n, gamma, suites, mode = cell
    report = run_suites(d, n, gamma, suites, mode)
    label = f"d={d} n={n} gamma=({','.join(gamma.to_json())})"
    return label, report


def _write_report(report: VerificationReport, out_dir: Path, stem: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_bytes(report.json_bytes() + b"\n")


def _exit_code(reports, mode: str) -> int:
    if any(any(c.status == "fail" for c in r.checks) for r in reports):
        return EXIT_FAIL
    if mode == "strict" and any(r.degenerate for r in reports):
        return EXIT_DEGENERATE
    return EXIT_PASS


def cmd_verify(args) -> int:
    gamma = parse_gamma(args.gamma)
    config = RunConfig(
        d_values=parse_dimensions(args.d, (gamma.d,)),
        n_values=require_nonnegative("n", parse_int_list(args.n) if args.n else (1, 2, 3, 4)),
        suites=_suite_list(args.suite),
        mode=args.mode,
        gamma=gamma,
        out=args.out,
        workers=require_positive("workers", args.workers),
    )
    try:
        results, _ = config.run()
    except InvalidParameter as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    reports = []
    for index, (label, report) in enumerate(results):
        reports.append(report)
        print(_report_summary(report, label))
        if config.out:
            _write_report(report, Path(config.out), f"report_{index:04d}")
    return _exit_code(reports, config.mode)


def sample_gamma(rng: random.Random, d: int) -> ParamVector:
    """One random rational gamma draw, each entry num/den with |num| <= 6 and
    1 <= den <= 4 (may be invalid; caller filters)."""
    values = []
    for _ in range(d + 1):
        den = rng.randint(1, 4)
        num = rng.randint(-6, 6)
        values.append(Rat(num, den))
    return ParamVector(values)


def cmd_sweep(args) -> int:
    require_nonnegative("draws", (args.draws,))
    config = RunConfig(
        d_values=parse_dimensions(args.d, (2, 3)),
        n_values=require_nonnegative("n", parse_int_list(args.n) if args.n else (2,)),
        suites=_suite_list(args.suite),
        mode=args.mode,
        seed=args.seed,
        draws=args.draws,
        out=args.out,
        workers=require_positive("workers", args.workers),
    )
    results, skipped = config.run()
    reports = []
    aggregate: dict = {}
    for index, (label, report) in enumerate(results):
        reports.append(report)
        print(_report_summary(report, label))
        for check in report.checks:
            entry = aggregate.setdefault(check.name, {"pass": 0, "fail": 0, "degenerate": 0})
            entry[check.status] += 1
        if config.out:
            _write_report(report, Path(config.out), f"sweep_{index:04d}")
    summary = {
        "seed": config.seed,
        "draws": config.draws,
        "cells": len(results),
        "skipped": skipped,
        "aggregate": aggregate,
    }
    text = json.dumps(summary, indent=2)
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.json").write_text(text + "\n")
    print(text)
    return _exit_code(reports, config.mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexalg",
        description="Exact symmetry-algebra toolkit for simplex Jacobi polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="print the exact matrix of an operator")
    matrix.add_argument("--op", required=True, help='operator name, e.g. "L:1,2" or "B12"')
    matrix.add_argument("--d", type=int, required=True)
    matrix.add_argument("--n", type=int, required=True)
    matrix.add_argument("--gamma", required=True, help='comma-separated rationals, e.g. "1/2,1/3,1/4"')
    matrix.add_argument("--out", help="write JSON to this file instead of stdout")
    matrix.set_defaults(fn=cmd_matrix)

    verify = sub.add_parser("verify", help="run verification suites on explicit cells")
    verify.add_argument("--d", help="comma-separated dimensions (default: gamma length - 1)")
    verify.add_argument("--n", help="comma-separated degrees (default: 1,2,3,4)")
    verify.add_argument("--gamma", required=True)
    verify.add_argument("--suite", default="all", help=f"all or a comma list of {','.join(SUITES)}")
    verify.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    verify.add_argument("--out", help="directory for JSON reports")
    verify.add_argument("--workers", type=int, default=1)
    verify.set_defaults(fn=cmd_verify)

    sweep = sub.add_parser("sweep", help="run suites over seeded random gamma draws")
    sweep.add_argument("--d", help="comma-separated dimensions (default: 2,3)")
    sweep.add_argument("--n", help="comma-separated degrees (default: 2)")
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--draws", type=int, default=10)
    sweep.add_argument("--suite", default="all")
    sweep.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    sweep.add_argument("--out", help="directory for JSON reports and the summary")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.set_defaults(fn=cmd_sweep)
    return parser


def _merge_gamma_flag(argv) -> list:
    """Rewrite ["--gamma", "-1,0,0"] as ["--gamma=-1,0,0"] so argparse does
    not mistake a negative rational for an option."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--gamma" and i + 1 < len(argv):
            out.append(f"--gamma={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_gamma_flag(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidParameter as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateParameter as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Exception as exc:  # a fault of the program, not a verdict on the cell
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
