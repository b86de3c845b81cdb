"""Command-line interface.

Subcommands::

    zenogate run <scenario.yaml> [--out PATH] [--format csv|json-like] [--timing]
    zenogate sweep <scenario.yaml> --axis {N,gamma,alpha,T,steps} --values v1,v2,...
                   [--out PATH] [--format csv|json-like] [--timing]
    zenogate check [--cases 100] [--seed 2024]

A sweep axis applies to the engines that read the key it edits: N (the
zeno engine), gamma (dissipative), alpha (zeno and dissipative, with
control.mode alpha_frame), T (every engine) and steps (adiabatic and
dissipative).

Exit codes: 0 success (and --help), 1 malformed command line, scenario
parse/validation error or a file that cannot be read or written, 2 engine
error, 3 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .checks import run_checks
from .errors import ParseError, ValidationError, ZenogateError
from .runner import AXIS_KEYS, CSV_COLUMNS, emit, run, sweep
from .scenario import load_scenario


def _print_record(rec):
    pairs = zip(CSV_COLUMNS, rec.as_row(include_timing=True))
    print("  ".join(f"{k}={v}" for k, v in pairs if v != ""))


def _parse_values(text: str):
    try:  # floats on every axis: `sweep` alone judges whether a count is integral
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"--values: {exc}") from exc


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    record = run(scenario)
    _print_record(record)
    if args.out:
        emit([record], args.out, fmt=args.format, include_timing=args.timing)
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    summary = sweep(scenario, args.axis, _parse_values(args.values))
    for rec in summary.records:
        _print_record(rec)
    for name, slope in summary.slopes.items():
        print(f"loglog_slope[{name}] = {slope:.4f}")
    if args.out:
        emit(summary.records, args.out, fmt=args.format, include_timing=args.timing)
    return 0


def _cmd_check(args) -> int:
    results = run_checks(cases=args.cases, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariant checks passed")
    return 3 if failed else 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zenogate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=["csv", "json-like"], default="csv")
    p_run.add_argument("--timing", action="store_true", help="include measured wall_ms in the output file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario along one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, choices=list(AXIS_KEYS))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=["csv", "json-like"], default="csv")
    p_sweep.add_argument("--timing", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_check.add_argument("--cases", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=2024)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message: code 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZenogateError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
