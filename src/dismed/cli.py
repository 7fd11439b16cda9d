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
import io as _io
import math
import os
import sys
from json.encoder import encode_basestring
from typing import Any, Callable, Optional

from .calculus import ExtendedValue
from .conditions import (
    ConditionId,
    ConditionReport,
    ConditionSet,
    ConditionVerdict,
    DecisionSummary,
    PartTrace,
    decide,
    eval_condition_set,
)
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    DismedError,
    IndeterminateAtBase,
    MissingCapitalResponse,
    ParseError,
    RejectionLimit,
    ValidationError,
)
from .io import json_array, json_atom, json_object, json_text, load_scenario, read_json
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
        cfg = cfg.with_overrides(output_format=args.format)
    return cfg


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only CSV output loads it

    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _ev_cells(ev: Optional[ExtendedValue]) -> list:
    return [None, None] if ev is None else ev.to_json()


def _report_rows(report: ConditionReport) -> list[list]:
    return [[v.id.label, v.status.value, *_ev_cells(v.lhs), *_ev_cells(v.rhs),
             v.guard_status, "; ".join(v.notes)] for v in report.verdicts]


_REPORT_HEADER = ["id", "status", "lhs_lower", "lhs_upper",
                  "rhs_lower", "rhs_upper", "guard", "notes"]


def _to_csv(result: Any) -> str:
    if isinstance(result, ValidationReport):
        return _csv_text(["code", "message"],
                         [[v.code, v.message] for v in result.violations])
    if isinstance(result, ConditionReport):
        return _csv_text(_REPORT_HEADER, _report_rows(result))
    if isinstance(result, DecisionSummary):
        rows = []
        for name in ("buyer", "broker_web", "seller"):
            report = result.reports[name]
            rows.append([name, "aggregate", report.aggregate.value])
            rows.extend([name, v.id.label, v.status.value] for v in report.verdicts)
        return _csv_text(["set", "id", "status"], rows)
    # The remaining results come from simulate or the optimizer. Simulate's
    # types are checked first, so a sensitivity CSV never loads the optimizer.
    from .simulate import SensitivityResult, SweepStats

    if isinstance(result, SweepStats):
        return _csv_text(
            ["id", "frequency", "indeterminate_rate"],
            [[label, stats["frequency"], stats["indeterminate_rate"]]
             for label, stats in result.per_condition.items()])
    if isinstance(result, SensitivityResult):
        d = result.to_dict()
        return _csv_text(list(d), [list(d.values())])
    from .optimizer import DecisionVector, OptResult, ParetoPoint

    decision = DecisionVector._fields
    if isinstance(result, OptResult):
        d = result.decision
        return _csv_text(
            ["feasible", "objective", "iterations", "mode", *decision],
            [[result.feasible, result.objective, result.iterations, result.mode,
              *(d._values() if d else (None,) * len(decision))]])
    if isinstance(result, list) and all(isinstance(p, ParetoPoint) for p in result):
        return _csv_text(["cost", "capital", *decision],
                         [[p.cost, p.capital, *p.decision._values()] for p in result])
    raise TypeError(f"no CSV rendering for {type(result).__name__}")


def _to_payload(result: Any) -> Any:
    if isinstance(result, list):
        return [p.to_dict() for p in result]
    return result.to_dict()


# Condition reports are written straight from their fields, with the text
# ``json_text(result.to_dict())`` would give; only a report's config dict goes
# through the generic writer. Every other field has one type, so it goes
# through that type's writer: ``encode_basestring`` for text, ``_FLAG`` for
# Optional[bool], and the interval writer of one ``render_report`` call for
# intervals.

_FLAG = {None: "null", True: "true", False: "false"}


def _interval_writer() -> Callable[[Optional[ExtendedValue], str], str]:
    """``ExtendedValue.to_json``'s text (an infinite endpoint is null), for
    the intervals of one report: the text of each float endpoint is kept, as a
    report repeats few distinct floats. Zeros are never kept, so 0.0 and -0.0
    never share a text, and only floats are looked up, so an int never takes
    the text of the float it equals."""
    memo: dict[float, str] = {}
    known = memo.get

    def endpoint(x) -> str:
        if x.__class__ is not float:
            return "null" if math.isinf(x) else json_atom(x)
        text = float.__repr__(x) if math.isfinite(x) else "NaN" if x != x else "null"
        if x:
            memo[x] = text
        return text

    def interval(ev: Optional[ExtendedValue], nl: str) -> str:
        if ev is None:
            return "null"
        inner = nl + "  "
        x, y = ev.lower, ev.upper
        lo = x.__class__ is float and known(x) or endpoint(x)
        # Most values are points, whose two endpoints are one float object.
        hi = lo if y is x else y.__class__ is float and known(y) or endpoint(y)
        return f"[{inner}{lo},{inner}{hi}{nl}]"
    return interval


# Verdicts and parts are most of a report, so their keys are spelled out.

def _part_json(p: PartTrace, nl: str, ev_json) -> str:
    n = nl + "  "
    return (f'{{{n}"check": {encode_basestring(p.desc)},{n}"op": {encode_basestring(p.op)},'
            f'{n}"lhs": {ev_json(p.lhs, n)},{n}"rhs": {ev_json(p.rhs, n)},'
            f'{n}"holds": {_FLAG[p.holds]}{nl}}}')


def _verdict_json(v: ConditionVerdict, nl: str, ev_json) -> str:
    n = nl + "  "
    notes = json_array(map(encode_basestring, v.notes), n)
    parts = json_array([_part_json(p, n + "  ", ev_json) for p in v.parts], n)
    return (f'{{{n}"id": {encode_basestring(v.id.label)},'
            f'{n}"status": {encode_basestring(v.status.value)},'
            f'{n}"lhs": {ev_json(v.lhs, n)},{n}"rhs": {ev_json(v.rhs, n)},'
            f'{n}"guard_status": {_FLAG[v.guard_status]},'
            f'{n}"skipped": {_FLAG[v.skipped]},'
            f'{n}"notes": {notes},{n}"parts": {parts}{nl}}}')


def _condition_report_json(r: ConditionReport, nl: str, ev_json) -> str:
    inner = nl + "  "
    return json_object((
        ("scenario", json_atom(r.scenario_label)),
        ("set", json_atom(r.set.value)),
        ("aggregate", json_atom(r.aggregate.value)),
        ("verdicts", json_array([_verdict_json(v, inner + "  ", ev_json) for v in r.verdicts],
                                inner)),
        ("config", json_text(dict(r.config), inner)),
    ), nl)


def _json(result: Any) -> str:
    if isinstance(result, ConditionReport):
        return _condition_report_json(result, "\n", _interval_writer())
    if isinstance(result, DecisionSummary):
        ev_json = _interval_writer()
        return json_object((
            ("scenario", json_atom(result.scenario_label)),
            ("buyer_disintermediates", json_atom(result.buyer_disintermediates.value)),
            ("broker_provides_web_info", json_atom(result.broker_provides_web_info.value)),
            ("seller_disintermediates", json_atom(result.seller_disintermediates.value)),
            ("reports", json_object([(k, _condition_report_json(r, "\n    ", ev_json))
                                     for k, r in result.reports.items()], "\n  ")),
        ))
    return json_text(_to_payload(result))


def render_report(result: Any, fmt: str, out: Optional[str]) -> str:
    """Serialize a result and write it to ``out`` (or stdout). Returns the text."""
    if fmt == "json":
        text = _json(result) + "\n"
    elif fmt == "csv":
        text = _to_csv(result)
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
        print("optimization infeasible: commission cannot cover the cost box",
              file=sys.stderr)
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
    p.add_argument("--points", type=_arg(int, "an integer >= 2", lambda k: k >= 2),
                   default=11, help="epsilon levels (k >= 2)")

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
