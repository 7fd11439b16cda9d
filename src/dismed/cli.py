"""Command-line front end.

Subcommands: validate, decide, conditions, optimize, pareto, sweep,
sensitivity. Every subcommand accepts --config (or the DISMED_CONFIG
environment variable), --format json|csv and --out. Verdicts are payload,
never exit status:

    0  evaluation completed
    2  unusable inputs: a parse or validation failure, an undecided
       sensitivity base, a sweep rejection limit, no capital link
    3  infeasible optimization
    4  internal error
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional

from .conditions import ConditionId, ConditionSet, decide, eval_condition_set
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    DismedError,
    IndeterminateAtBase,
    MissingCapitalResponse,
    ParseError,
    RejectionLimit,
    ValidationError,
)
from .io import load_scenario, read_json, report_csv, report_json
from .model import ValidationReport

# The optimizer and sweep engines are imported by the subcommands that run
# them. Only sweep loads numpy: the optimizer's restart stream is plain Python.

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get("DISMED_CONFIG")
    if not path:
        cfg = DEFAULT_CONFIG
    else:
        cfg = RunConfig.from_dict(read_json(path, "config"))
    if args.format:
        cfg = cfg.replace(output_format=args.format)
    return cfg


def render_report(result: Any, fmt: str, out: Optional[str]) -> str:
    """Serialize a result and write it to ``out`` (or stdout). Returns the text."""
    if fmt == "json":
        text = report_json(result) + "\n"
    elif fmt == "csv":
        text = report_csv(result)
    else:
        raise ParseError(f"unknown output format {fmt!r}")
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output file {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args, cfg: RunConfig) -> int:
    try:
        load_scenario(args.scenario)  # validates
    except ValidationError as exc:
        report = ValidationReport(ok=False, violations=tuple(exc.violations))
        render_report(report, cfg.output_format, args.out)
        print(f"invalid scenario: {', '.join(report.codes())}", file=sys.stderr)
        return EXIT_INVALID
    render_report(ValidationReport(ok=True, violations=()), cfg.output_format, args.out)
    return EXIT_OK


def _cmd_decide(args, cfg: RunConfig) -> int:
    summary = decide(load_scenario(args.scenario), cfg)
    render_report(summary, cfg.output_format, args.out)
    return EXIT_OK


_SET_ALIASES = {"buyer": ConditionSet.BUYER, "broker": ConditionSet.BROKER_WEB,
                "broker_web": ConditionSet.BROKER_WEB, "seller": ConditionSet.SELLER}


def _cmd_conditions(args, cfg: RunConfig) -> int:
    report = eval_condition_set(load_scenario(args.scenario), _SET_ALIASES[args.set], cfg)
    render_report(report, cfg.output_format, args.out)
    return EXIT_OK


def _cmd_optimize(args, cfg: RunConfig) -> int:
    from .optimizer import Bounds, OptimizerConfig, optimize_broker

    scenario = load_scenario(args.scenario)
    bounds = Bounds.from_dict(read_json(args.bounds, "bounds"))
    result = optimize_broker(scenario, bounds, OptimizerConfig())
    render_report(result, cfg.output_format, args.out)
    if not result.feasible:
        why = ("no start scores above -inf" if result.iterations
               else "commission cannot cover the cost box")
        print(f"optimization infeasible: {why}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_pareto(args, cfg: RunConfig) -> int:
    from .optimizer import Bounds, OptimizerConfig, pareto_sweep

    scenario = load_scenario(args.scenario)
    bounds = Bounds.from_dict(read_json(args.bounds, "bounds"))
    frontier = pareto_sweep(scenario, bounds, args.points, OptimizerConfig())
    render_report(frontier, cfg.output_format, args.out)
    if not frontier:
        print("pareto sweep infeasible: empty frontier", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args, cfg: RunConfig) -> int:
    from .simulate import DistributionSpec, run_sweep

    scenario = load_scenario(args.scenario)
    dist = DistributionSpec.from_dict(read_json(args.dist, "distribution"))
    stats = run_sweep(scenario, dist, args.n, args.seed, cfg, workers=args.workers)
    render_report(stats, cfg.output_format, args.out)
    return EXIT_OK


def _cmd_sensitivity(args, cfg: RunConfig) -> int:
    from .simulate import sensitivity

    scenario = load_scenario(args.scenario)
    result = sensitivity(scenario, args.condition, args.param, rel_step=args.rel_step, cfg=cfg)
    render_report(result, cfg.output_format, args.out)
    return EXIT_OK


def _arg(convert, expected: str, ok=lambda value: True):
    """An argparse ``type=`` that turns a value ``convert`` or ``ok`` refuses
    into a usage error (exit 2) instead of a ``ValueError`` from the engine."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {expected}")
    return parse


def _points(text: str) -> int:
    """``--points``: imports the optimizer for its bound, so only ``pareto``
    loads it while parsing."""
    from .optimizer import MAX_PARETO_POINTS
    return _arg(int, f"an integer from 2 to {MAX_PARETO_POINTS}",
                lambda k: 2 <= k <= MAX_PARETO_POINTS)(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismed",
        description="Evaluate, optimize and stress-test broker disintermediation scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--config", help="run-config JSON file (default: $DISMED_CONFIG)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", help="write the report here instead of stdout")

    common(sub.add_parser("validate", help="validate a scenario file"))
    common(sub.add_parser("decide", help="evaluate all three condition sets"))

    p = sub.add_parser("conditions", help="evaluate one condition set")
    common(p)
    p.add_argument("--set", required=True, choices=tuple(_SET_ALIASES))

    p = sub.add_parser("optimize", help="maximize the broker objective")
    common(p)
    p.add_argument("--bounds", required=True, help="bounds JSON file")

    p = sub.add_parser("pareto", help="trace the cost/capital frontier")
    common(p)
    p.add_argument("--bounds", required=True, help="bounds JSON file")
    p.add_argument("--points", type=_points, default=11,
                   help="epsilon levels (2 <= k <= optimizer.MAX_PARETO_POINTS)")

    p = sub.add_parser("sweep", help="Monte Carlo sweep over a distribution")
    common(p)
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("-n", type=_arg(int, "an integer >= 1", lambda n: n >= 1),
                   required=True, help="number of draws")
    p.add_argument("--seed", type=_arg(int, "an integer >= 0", lambda seed: seed >= 0),
                   required=True, help="master seed")
    p.add_argument("--workers", type=_arg(int, "an integer >= 1", lambda w: w >= 1),
                   default=1)

    p = sub.add_parser("sensitivity", help="margin/elasticity for one condition")
    common(p)
    p.add_argument("--condition", type=_arg(ConditionId.parse, "a condition id such as B5"),
                   required=True, help="condition id, e.g. B5")
    p.add_argument("--param", required=True, help="symbol to perturb, e.g. psi_b")
    p.add_argument("--rel-step", type=_arg(float, "a number in (0, 0.5)", lambda r: 0 < r < 0.5),
                   default=0.05, dest="rel_step")

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "decide": _cmd_decide,
    "conditions": _cmd_conditions,
    "optimize": _cmd_optimize,
    "pareto": _cmd_pareto,
    "sweep": _cmd_sweep,
    "sensitivity": _cmd_sensitivity,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except ValidationError as exc:
        codes = ", ".join(v.code for v in exc.violations)
        print(f"error: invalid scenario: {codes}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, IndeterminateAtBase, RejectionLimit, MissingCapitalResponse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DismedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
