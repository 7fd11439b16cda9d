"""dismed: decision analysis for real-estate broker disintermediation.

The engine evaluates three families of formal conditions (buyer
disintermediation B1-B19, broker web-information incentives W1-W7, seller
disintermediation S1-S18) over user-supplied scenarios with three-valued
interval semantics, solves the broker's cost/capital trade-off, and runs
seeded Monte Carlo sweeps and sensitivity analysis.

The optimizer and sweep names load their module on first access (PEP 562),
so ``import dismed`` never imports numpy; of the commands, only sweep does.
"""

from .calculus import (
    ExtendedValue,
    argmin_state,
    evaluate_expression,
    finite_difference,
    integrate_horizon,
)
from .conditions import (
    ALL_CONDITION_IDS,
    ConditionId,
    ConditionReport,
    ConditionSet,
    ConditionVerdict,
    DecisionSummary,
    SetDecision,
    Status,
    condition_ids,
    decide,
    eval_condition,
    eval_condition_set,
)
from .config import RunConfig
from .errors import (
    DismedError,
    IndeterminateAtBase,
    MissingCapitalResponse,
    ParseError,
    RejectionLimit,
    UnknownField,
    ValidationError,
)
from .io import load_scenario, save_scenario, scenario_from_dict, scenario_to_dict, scenario_to_json
from .model import (
    DECISION_FIELDS,
    SYMBOLS,
    ResponseFunction,
    Scenario,
    TimePath,
    ValidationReport,
    validate_scenario,
    with_values,
)

#: Public name -> the module that defines it, imported when the name is first read.
_LAZY = {
    **dict.fromkeys(("Bounds", "DecisionVector", "OptResult", "OptimizerConfig",
                     "ParetoPoint", "optimize_broker", "pareto_sweep"), "optimizer"),
    **dict.fromkeys(("DistributionSpec", "Marginal", "SensitivityResult", "SweepStats",
                     "run_sweep", "sensitivity"), "simulate"),
}

__all__ = [
    # calculus
    "ExtendedValue", "argmin_state", "evaluate_expression", "finite_difference",
    "integrate_horizon",
    # conditions
    "ALL_CONDITION_IDS", "ConditionId", "ConditionReport", "ConditionSet",
    "ConditionVerdict", "DecisionSummary", "SetDecision", "Status", "condition_ids",
    "decide", "eval_condition", "eval_condition_set",
    # config, errors, io, model
    "RunConfig",
    "DismedError", "IndeterminateAtBase", "MissingCapitalResponse", "ParseError",
    "RejectionLimit", "UnknownField", "ValidationError",
    "load_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "scenario_to_json",
    "DECISION_FIELDS", "SYMBOLS", "ResponseFunction", "Scenario", "TimePath",
    "ValidationReport", "validate_scenario", "with_values",
    # optimizer and simulate, loaded lazily
    *_LAZY,
]


def __getattr__(name: str):
    from importlib import import_module

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
