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
    cfg = _read(RunConfig, path, "config") if path else DEFAULT_CONFIG
    return cfg.replace(output_format=args.format) if args.format else cfg


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


def _read(cls, path: str, what: str):
    """The record of class ``cls`` that the JSON file at ``path`` declares."""
    return cls.from_dict(read_json(path, what), what)


# ---------------------------------------------------------------------------
# Subcommands: each runs on (args, cfg) and returns its result
# ---------------------------------------------------------------------------

def _validate(args, cfg: RunConfig) -> ValidationReport:
    try:
        load_scenario(args.scenario)  # validates
    except ValidationError as exc:
        return ValidationReport(ok=False, violations=tuple(exc.violations))
    return ValidationReport(ok=True, violations=())


_SET_ALIASES = {"buyer": ConditionSet.BUYER, "broker": ConditionSet.BROKER_WEB,
                "broker_web": ConditionSet.BROKER_WEB, "seller": ConditionSet.SELLER}


def _optimize(args, cfg: RunConfig):
    """``optimize``, or ``pareto``: the frontier at ``--points`` levels."""
    from .optimizer import Bounds, OptimizerConfig, optimize_broker, pareto_sweep

    scenario = load_scenario(args.scenario)
    bounds = _read(Bounds, args.bounds, "bounds")
    if args.command == "pareto":
        return pareto_sweep(scenario, bounds, args.points, OptimizerConfig())
    return optimize_broker(scenario, bounds, OptimizerConfig())


def _sweep(args, cfg: RunConfig):
    from .simulate import DistributionSpec, run_sweep

    scenario = load_scenario(args.scenario)
    dist = _read(DistributionSpec, args.dist, "distribution")
    return run_sweep(scenario, dist, args.n, args.seed, cfg, workers=args.workers)


def _sensitivity(args, cfg: RunConfig):
    from .simulate import sensitivity

    return sensitivity(load_scenario(args.scenario), args.condition, args.param,
                       rel_step=args.rel_step, cfg=cfg)


def _refusal(result) -> tuple[int, Optional[str]]:
    """A result's exit code, and the stderr line of one that refuses its inputs."""
    if isinstance(result, ValidationReport) and not result.ok:
        return EXIT_INVALID, f"invalid scenario: {', '.join(result.codes())}"
    if isinstance(result, list) and not result:  # a pareto frontier
        return EXIT_INFEASIBLE, "pareto sweep infeasible: empty frontier"
    if getattr(result, "feasible", True) is False:  # an optimize result
        why = ("no start scores above -inf" if result.iterations
               else "commission cannot cover the cost box")
        return EXIT_INFEASIBLE, f"optimization infeasible: {why}"
    return EXIT_OK, None


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


_BOUNDS = ("--bounds", dict(required=True, help="bounds JSON file"))
_AT_LEAST_1 = _arg(int, "an integer >= 1", lambda n: n >= 1)

#: Each subcommand: its name, help, the arguments it adds to the common ones
#: (flags, then ``add_argument`` keywords) and its run from (args, cfg) to a result.
_SUBCOMMAND_TABLE = (
    ("validate", "validate a scenario file", (), _validate),
    ("decide", "evaluate all three condition sets", (),
     lambda args, cfg: decide(load_scenario(args.scenario), cfg)),
    ("conditions", "evaluate one condition set",
     (("--set", dict(required=True, choices=tuple(_SET_ALIASES))),),
     lambda args, cfg: eval_condition_set(load_scenario(args.scenario),
                                          _SET_ALIASES[args.set], cfg)),
    ("optimize", "maximize the broker objective", (_BOUNDS,), _optimize),
    ("pareto", "trace the cost/capital frontier", (_BOUNDS, (
        "--points", dict(type=_points, default=11,
                         help="epsilon levels (2 <= k <= optimizer.MAX_PARETO_POINTS)"))),
     _optimize),
    ("sweep", "Monte Carlo sweep over a distribution", (
        ("--dist", dict(required=True, help="distribution JSON file")),
        ("-n", dict(type=_AT_LEAST_1, required=True, help="number of draws")),
        ("--seed", dict(type=_arg(int, "an integer >= 0", lambda seed: seed >= 0),
                        required=True, help="master seed")),
        ("--workers", dict(type=_AT_LEAST_1, default=1))),
     _sweep),
    ("sensitivity", "margin/elasticity for one condition", (
        ("--condition", dict(type=_arg(ConditionId.parse, "a condition id such as B5"),
                             required=True, help="condition id, e.g. B5")),
        ("--param", dict(required=True, help="symbol to perturb, e.g. psi_b")),
        ("--rel-step", dict(type=_arg(float, "a number in (0, 0.5)", lambda r: 0 < r < 0.5),
                            default=0.05, dest="rel_step"))),
     _sensitivity),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismed",
        description="Evaluate, optimize and stress-test broker disintermediation scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, extra, run in _SUBCOMMAND_TABLE:
        p = sub.add_parser(name, help=text)
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--config", help="run-config JSON file (default: $DISMED_CONFIG)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", help="write the report here instead of stdout")
        for argument in extra:
            p.add_argument(*argument[:-1], **argument[-1])
        p.set_defaults(run=run)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        result = args.run(args, cfg)
        render_report(result, cfg.output_format, args.out)
        code, line = _refusal(result)
        if line:
            print(line, file=sys.stderr)
        return code
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
