"""Command-line front end.

Subcommands: gen, solve, check, export-lp, gantt. Paths named "-" read
stdin or write stdout. Exit codes: 0 success, 1 domain trouble (violations
found, instance invalid, no feasible schedule), 2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterable
from dataclasses import replace

from . import __version__
from .gantt import render_svg
from .generator import generate, params_for_class
from .jsonio import dumps_instance, dumps_manifest, dumps_report, dumps_result, loads_instance, loads_schedule
from .milp import build_model, lp_lines
from .model import Instance, validate_instance
from .solvers import greedy_result, solve_exact
from .timing import DecodeInfeasible, check_schedule

NODE_CAP = 100_000  # `solve --alg exact` without limits stops here instead of searching for hours


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces unjoined as they come, buffered by the file; stdout gets a final newline if the text lacks one."""
    if path == "-":
        last = ""
        for last in pieces:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _load_valid_instance(path: str) -> Instance:
    """Parse and validate, translating failures into exit codes 2 and 1."""
    inst = loads_instance(_read(path))
    report = validate_instance(inst)
    if report:
        for v in report:
            print(f"instance invalid: {v}", file=sys.stderr)
        raise SystemExit(1)
    return inst


def _cmd_gen(args: argparse.Namespace) -> int:
    params = replace(params_for_class(args.instance_class, args.k), seed=args.seed)
    inst = generate(params)
    _write(args.out, (dumps_instance(inst),))
    if args.out != "-":
        manifest = {
            "class": args.instance_class,
            "k": args.k,
            "seed": args.seed,
            "generator_version": __version__,
            "jobs": params.n,
            "operations": len(inst.operations),
            "machines": inst.num_machines,
        }
        _write(args.out + ".manifest.json", (dumps_manifest(manifest),))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    for flag, value in (("--time-limit", args.time_limit), ("--node-limit", args.node_limit)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must not be negative, got {value}")
        if value is not None and args.alg == "greedy":
            raise ValueError(f"{flag} applies to --alg exact only")
    inst = _load_valid_instance(args.instance)
    if args.alg == "exact":
        no_limit = args.node_limit is None and args.time_limit is None
        result = solve_exact(inst, time_limit=args.time_limit, node_limit=NODE_CAP if no_limit else args.node_limit)
    else:
        try:
            result = greedy_result(inst)
        except DecodeInfeasible as exc:
            print(f"greedy failed: {exc}", file=sys.stderr)
            return 1
    _write(args.out, (dumps_result(result),))
    return 0 if result.schedule is not None else 1


def _cmd_check(args: argparse.Namespace) -> int:
    inst = _load_valid_instance(args.instance)
    report = check_schedule(inst, loads_schedule(_read(args.schedule)))
    _write(args.out, (dumps_report(report),))
    return 1 if report else 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    inst = _load_valid_instance(args.instance)
    _write(args.out, lp_lines(build_model(inst)))
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    inst = _load_valid_instance(args.instance)
    sched = loads_schedule(_read(args.schedule))
    _write(args.out, (render_svg(inst, sched),))
    return 0


def _finite_seconds(text: str) -> float:
    """A time limit; nan and inf are refused because they would never stop a search."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds):
        raise argparse.ArgumentTypeError(f"not a finite number of seconds: {text!r}")
    return seconds


@functools.cache  # built once per process: parsing reads the parser and never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexshop",
                                     description="Job-shop scheduling with calendars, "
                                                 "sequence setups, and operation overlap")
    parser.add_argument("--version", action="version", version=f"flexshop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("instance_class", choices=("small", "medium", "large"))
    p.add_argument("k", type=int, help="1-based instance number within the class")
    p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p.add_argument("--out", default="-", help="instance JSON path, - for stdout")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance", help="instance JSON path, - for stdin")
    p.add_argument("--alg", choices=("exact", "greedy"), default="exact")
    p.add_argument("--time-limit", type=_finite_seconds, default=None,
                   help="seconds for the whole solve, greedy incumbent included; exact only, "
                        "refused with --alg greedy")
    p.add_argument("--node-limit", type=int, default=None,
                   help=f"search nodes, exact only (with neither limit: {NODE_CAP}); refused with --alg greedy")
    p.add_argument("--out", default="-", help="result JSON path, - for stdout")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="validate a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--out", default="-", help="violation report JSON path, - for stdout")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("export-lp", help="write the exact model in LP format")
    p.add_argument("instance")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_export_lp)

    p = sub.add_parser("gantt", help="render a schedule as SVG")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_gantt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
