"""Report rendering: every payload is the text ``json.dumps(indent=2)`` would give.

The JSON writer in ``dismed.io`` and the report writer in ``dismed.cli`` must
give exactly the bytes of ``json.dumps(payload, indent=2, ensure_ascii=False)``
for every subcommand's result, and CSV rows must keep the text they had when
they were built from ``to_dict``.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import RunConfig, ValidationError, decide, eval_condition_set, load_scenario
from dismed.calculus import ExtendedValue
from dismed.cli import _to_csv, _to_payload, render_report
from dismed.conditions import (
    ALL_CONDITION_IDS,
    ConditionId,
    ConditionReport,
    ConditionSet,
    ConditionVerdict,
    DecisionSummary,
    PartTrace,
    SetDecision,
    Status,
)
from dismed.config import GUARD_MODES
from dismed.io import json_text, scenario_from_dict, scenario_to_dict, scenario_to_json
from dismed.model import ValidationReport, validate_scenario

from fixture_defs import broker_retained_dict, fixture_dict
from scen_gen import drop_responses, random_scenario

FIXTURES = ("all_satisfied_buyer", "all_satisfied_seller",
            "all_satisfied_broker_web", "all_three_satisfied")

# Quotes, a backslash, control characters, DEL, a line separator and
# characters outside the BMP: everything encode_basestring treats specially.
ODD_LABEL = 'Zürich "Süd" \\ \t\n\x00\x1f\x7f \u2028 ☃ 𝄞'


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _fixture(fixtures_dir, name):
    return load_scenario(fixtures_dir / f"{name}.json")


def _odd_label():
    return scenario_from_dict(fixture_dict(ODD_LABEL))


def _bare():
    """No response links: derivative conditions are Indeterminate over (-inf, inf)."""
    data = fixture_dict("bare")
    data["responses"] = []
    return scenario_from_dict(data)


def _invalid(fixtures_dir):
    with pytest.raises(ValidationError) as exc:
        _fixture(fixtures_dir, "bad_c")
    return ValidationReport(ok=False, violations=tuple(exc.value.violations))


def _sweep(fixtures_dir):
    from dismed.simulate import DistributionSpec, run_sweep

    dist = DistributionSpec.from_dict(json.loads((fixtures_dir / "rho_dist.json").read_text()))
    return run_sweep(_fixture(fixtures_dir, "all_three_satisfied"), dist, 6, 7, RunConfig())


def _sensitivity(fixtures_dir):
    from dismed.simulate import sensitivity

    return sensitivity(_fixture(fixtures_dir, "all_three_satisfied"), ConditionId.parse("B5"),
                       "psi_b", cfg=RunConfig())


def _solve(fixtures_dir, bounds, points=None):
    from dismed.optimizer import Bounds, OptimizerConfig, optimize_broker, pareto_sweep

    scenario = _fixture(fixtures_dir, "broker_opt")
    box = Bounds.from_dict(json.loads((fixtures_dir / f"{bounds}.json").read_text()))
    if points is None:
        return optimize_broker(scenario, box, OptimizerConfig())
    return pareto_sweep(scenario, box, points, OptimizerConfig())


RESULTS = {
    "validate-ok": lambda f: validate_scenario(_fixture(f, "all_three_satisfied")),
    "validate-violations": _invalid,
    **{f"conditions-{cset.value}": (lambda f, cset=cset: eval_condition_set(
        _fixture(f, "all_three_satisfied"), cset, RunConfig())) for cset in ConditionSet},
    "decide": lambda f: decide(_fixture(f, "all_three_satisfied"), RunConfig(guard_mode="skip")),
    "decide-odd-label": lambda f: decide(_odd_label(), RunConfig()),
    "conditions-odd-label": lambda f: eval_condition_set(_odd_label(), ConditionSet.SELLER,
                                                         RunConfig()),
    "decide-indeterminate": lambda f: decide(_bare(), RunConfig()),
    "sweep": _sweep,
    "sensitivity": _sensitivity,
    "optimize": lambda f: _solve(f, "bounds_bi"),
    "optimize-infeasible": lambda f: _solve(f, "bounds_infeasible"),
    "pareto": lambda f: _solve(f, "bounds_bi", points=4),
    "pareto-empty": lambda f: _solve(f, "bounds_infeasible", points=3),
}


@pytest.fixture(scope="module")
def random_scenarios():
    """100 random scenarios. Knife-edge margins (separation 0) keep the first
    draw of each seed, and every other scenario loses about half its links."""
    drawn = (random_scenario([18, i], label=f"random {i}", separation=0.0) for i in range(100))
    return [drop_responses(s, [18, i]) if i % 2 else s for i, s in enumerate(drawn)]


@pytest.mark.parametrize("name", RESULTS)
def test_every_json_report_is_the_json_dumps_text(fixtures_dir, name):
    result = RESULTS[name](fixtures_dir)
    assert render_report(result, "json", os.devnull) == _reference(_to_payload(result))


@pytest.mark.parametrize("guard_mode", GUARD_MODES)
def test_decide_reports_of_random_scenarios_are_the_json_dumps_text(random_scenarios,
                                                                    guard_mode):
    cfg = RunConfig(guard_mode=guard_mode)
    for s in random_scenarios:
        summary = decide(s, cfg)
        assert render_report(summary, "json", os.devnull) == _reference(summary.to_dict()), s.label


def _interval(lower, upper) -> ExtendedValue:
    """An interval built without the ``lower <= upper`` check, which NaN fails."""
    ev = object.__new__(ExtendedValue)
    ev.__dict__.update(lower=lower, upper=upper)
    return ev


def test_zero_signs_nan_infinities_and_ints_keep_their_own_text():
    zero, minus_zero, nan = 0.0, -0.0, math.nan
    pieces = [
        ExtendedValue(zero, zero), ExtendedValue(minus_zero, minus_zero),
        ExtendedValue(minus_zero, zero), ExtendedValue(-math.inf, math.inf),
        ExtendedValue(-math.inf, 0.5), ExtendedValue(1, 2), ExtendedValue(1.0, 2.0),
        ExtendedValue(2, 2.0), ExtendedValue(np.float64(0.5), np.float64(1e300)),
        _interval(nan, nan), _interval(nan, 1.0), _interval(1.0, nan),
    ]
    parts = tuple(PartTrace(f"part {k}", "gt", ev, pieces[-1 - k], (True, False, None)[k % 3])
                  for k, ev in enumerate(pieces))
    verdicts = tuple(
        ConditionVerdict(cid, Status.SATISFIED, ev, pieces[k - 1], (None, True, False)[k % 3],
                         (f"note {k}",) * (k % 3), parts[k:] + parts[:k], skipped=k % 2 == 0)
        for k, (cid, ev) in enumerate(zip(ALL_CONDITION_IDS, pieces)))
    reports = {cset.value: ConditionReport("signs", cset, verdicts, SetDecision.INDETERMINATE,
                                           {"zero_tol": -0.0, "rel_tol": 1, "quorum": 0.0})
               for cset in ConditionSet}
    summary = DecisionSummary("signs", SetDecision.SATISFIED, SetDecision.NOT_SATISFIED,
                              SetDecision.INDETERMINATE, reports)
    text = render_report(summary, "json", os.devnull)
    assert text == _reference(summary.to_dict())
    assert '"rhs": null' not in text  # every rhs was given
    for spelled in ("0.0", "-0.0", "NaN", "null", "1,", "2\n", "1.0", "2.0", "0.5", "1e+300"):
        assert spelled in text, spelled
    report = reports["buyer"]
    assert render_report(report, "json", os.devnull) == _reference(report.to_dict())


def test_the_indeterminate_case_has_infinite_endpoints():
    payload = decide(_bare(), RunConfig()).to_dict()
    verdicts = [v for r in payload["reports"].values() for v in r["verdicts"]]
    assert any(v["status"] == "Indeterminate" and v["lhs"] == [None, None] for v in verdicts)


@pytest.mark.parametrize("scenario", ["all_three_satisfied", "odd-label", "broker_retained"])
def test_scenario_dump_is_the_json_dumps_text(fixtures_dir, scenario):
    s = {"odd-label": _odd_label,
         "broker_retained": lambda: scenario_from_dict(broker_retained_dict())}.get(
        scenario, lambda: _fixture(fixtures_dir, scenario))()
    assert scenario_to_json(s) == _reference(scenario_to_dict(s))


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def _dict_rows(report) -> list[list]:
    """CSV rows as they were built from ``to_dict``, one verdict at a time."""
    rows = []
    for v in report.verdicts:
        d = v.to_dict()
        rows.append([d["id"], d["status"], *(d["lhs"] or [None, None]),
                     *(d["rhs"] or [None, None]), d["guard_status"], "; ".join(d["notes"])])
    return rows


@pytest.mark.parametrize("name", [*FIXTURES, "bare"])
@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(guard_mode="skip", intersection="min")],
                         ids=["default", "skip-min"])
def test_condition_csv_keeps_the_to_dict_rows(fixtures_dir, name, cfg):
    from dismed.cli import _REPORT_HEADER, _csv_text

    scenario = _bare() if name == "bare" else _fixture(fixtures_dir, name)
    for cset in ConditionSet:
        report = eval_condition_set(scenario, cset, cfg)
        assert _to_csv(report) == _csv_text(_REPORT_HEADER, _dict_rows(report))


# ---------------------------------------------------------------------------
# The JSON writer over arbitrary trees
# ---------------------------------------------------------------------------

class _Float(float):
    def __repr__(self):
        return "not json's spelling"


class _Int(int):
    def __repr__(self):
        return "not json's spelling"


_TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "  ", "naïve ☃ 𝄞", "\ud800"])
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf])
_INTS = (st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200)
         | st.integers(max_value=-2 ** 64, min_value=-2 ** 200))
_ATOMS = (st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
          | _FLOATS.map(_Float) | _INTS.map(_Int))
_TREES = st.recursive(
    _ATOMS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("value", [{1: 2}, {"a": [object()]}, {"b": {None: 1}}],
                         ids=["int-key", "object", "none-key"])
def test_json_text_refuses_what_is_not_json(value):
    with pytest.raises(TypeError):
        json_text(value)
