"""dismed: decision analysis for real-estate broker disintermediation.

The engine evaluates three families of formal conditions (buyer
disintermediation B1-B19, broker web-information incentives W1-W7, seller
disintermediation S1-S18) over user-supplied scenarios with three-valued
interval semantics, solves the broker's cost/capital trade-off, and runs
seeded Monte Carlo sweeps and sensitivity analysis.
"""

from .calculus import (
    ExtendedValue,
    INDETERMINATE,
    approx_equal,
    argmax_state,
    argmin_state,
    evaluate_expression,
    finite_difference,
    integrate_horizon,
    joint_prob,
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
    condition_margin,
    decide,
    eval_condition,
    eval_condition_set,
    referenced_symbols,
)
from .config import RunConfig
from .errors import (
    DismedError,
    DivisionByZeroInterval,
    IndeterminateAtBase,
    IndeterminateIntegrand,
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
from .optimizer import (
    Bounds,
    DecisionVector,
    OptResult,
    OptimizerConfig,
    ParetoPoint,
    broker_objective,
    optimize_broker,
    pareto_sweep,
)
from .simulate import (
    DistributionSpec,
    Marginal,
    SensitivityResult,
    SweepStats,
    run_sweep,
    sample_scenarios,
    sensitivity,
)

__version__ = "0.1.0"
