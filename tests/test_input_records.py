"""Input records: every refusal of the readers, the closed schema per kind,
and the canonical scenario bytes.

Each refusal is checked twice: the reader raises the stated exception class
(``UnknownField`` only for a key outside the schema), and ``dismed`` exits 2
on the same input given as a file. A refusal at validation also keeps its
``validate`` payload.
"""

import hashlib
import json

import numpy as np
import pytest

from dismed import DismedError, ParseError, UnknownField, ValidationError
from dismed.cli import main
from dismed.config import RunConfig
from dismed.io import load_scenario, scenario_from_dict, scenario_to_dict, scenario_to_json
from dismed.model import SYMBOLS
from dismed.optimizer import Bounds
from dismed.simulate import DistributionSpec

from conftest import FIXTURES_DIR
from fixture_defs import fixture_dict
from scen_gen import random_scenario

SCENARIO = FIXTURES_DIR / "all_three_satisfied.json"
BROKER = FIXTURES_DIR / "broker_opt.json"
BOUNDS = {"B_b": [0, 0], "B_s": [0, 0], "B_i": [0, 3], "B_n": [0, 0]}
UNIFORM = {"kind": "uniform", "lo": 0.35, "hi": 0.85}


def _exact(expected, call, *args):
    """Run ``call(*args)``, which must raise exactly ``expected`` (a class or a tuple)."""
    with pytest.raises(DismedError) as exc:
        call(*args)
    allowed = expected if isinstance(expected, tuple) else (expected,)
    assert type(exc.value) in allowed, repr(exc.value)


def _exit(capsys, tmp_path, doc, *argv):
    """``dismed`` with ``doc`` written as the file that ``{}`` in ``argv`` names."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([str(path) if a == "{}" else a for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def _scenario(**top):
    return {**fixture_dict("x"), **top}


def _path(**fields):
    return _scenario(time_paths=[fields])


def _link(**fields):
    data = fixture_dict("x")
    data["responses"][0].update(fields)
    for key, value in fields.items():
        if value is None:
            del data["responses"][0][key]
    return data


_PARSE_REFUSALS = {
    "path-not-object": (_scenario(time_paths=[3]), ParseError),
    "path-unknown-key": (_path(symbol="rho_s", kind="constant", value=0.4, zzz=1), UnknownField),
    "path-unknown-key-no-kind": (_path(symbol="rho_s", zzz=1), UnknownField),
    "path-symbol-number": (_path(symbol=3, kind="constant", value=0.4), ParseError),
    "path-symbol-missing": (_path(kind="constant", value=0.4), ParseError),
    "path-kind-number": (_path(symbol="rho_s", kind=3, value=0.4), ParseError),
    "path-kind-list": (_path(symbol="rho_s", kind=["constant"], value=0.4), ParseError),
    "path-kind-missing": (_path(symbol="rho_s", value=0.4), ParseError),
    "path-kind-unknown": (_path(symbol="rho_s", kind="cubic"), ParseError),
    "samples-times-text": (_path(symbol="rho_s", kind="samples", times="ab",
                                 values=[0.1, 0.2]), ParseError),
    "samples-values-missing": (_path(symbol="rho_s", kind="samples", times=[0.0, 1.0]),
                               ParseError),
    "constant-value-missing": (_path(symbol="rho_s", kind="constant"), ParseError),
    "linear-slope-text": (_path(symbol="rho_s", kind="linear", v0=0.5, slope="0"), ParseError),
    "linear-v0-missing": (_path(symbol="rho_s", kind="linear", slope=0.0), ParseError),
    "overlays-list": (_scenario(overlays=[]), ParseError),
    "overlays-state-unknown": (_scenario(overlays={"E_x": {}}), UnknownField),
    "overrides-list": (_scenario(overlays={"E_s": [1.0]}), ParseError),
    "overrides-symbol-unknown": (_scenario(overlays={"E_s": {"zeta": 1.0}}), UnknownField),
    "responses-object": (_scenario(responses={}), ParseError),
    "time-paths-object": (_scenario(time_paths={}), ParseError),
    "label-number": (_scenario(label=3), ParseError),
    "prospect-count-float": (_scenario(prospect_count=2.5), ParseError),
    "prospect-count-bool": (_scenario(prospect_count=True), ParseError),
    "link-not-object": (_scenario(responses=["I_o"]), ParseError),
    "link-kind-unknown": (_link(kind="cubic"), ParseError),
    "link-kind-list": (_link(kind=["polynomial"]), ParseError),
    "link-driver-missing": (_link(driver=None), ParseError),
    "link-context-unknown": (_link(context="E_x"), ParseError),
    "link-context-list": (_link(context=["base"]), ParseError),
    "link-coeffs-empty": (_link(coeffs=[]), ParseError),
    "link-coeffs-text": (_link(coeffs="12"), ParseError),
    "link-knots-empty": (_link(kind="piecewise_linear", coeffs=None, knots=[]), ParseError),
    "link-knots-number": (_link(kind="piecewise_linear", coeffs=None, knots=[1.0, 2.0]),
                          ParseError),
    "link-knot-triple": (_link(kind="piecewise_linear", coeffs=None,
                               knots=[[0.0, 1.0], [1.0, 2.0, 3.0]]), ParseError),
}


@pytest.mark.parametrize("name", _PARSE_REFUSALS)
def test_scenario_parse_refusal(capsys, tmp_path, name):
    doc, expected = _PARSE_REFUSALS[name]
    _exact(expected, scenario_from_dict, doc)
    code, out, err = _exit(capsys, tmp_path, doc, "validate", "{}")
    assert (code, out) == (2, "") and err.startswith("error: ") and "internal" not in err


def _two_paths(first, second):
    return _scenario(time_paths=[first, second])


def _nan_coefficient():
    data = fixture_dict("x")
    data["responses"][0]["coeffs"][0] = float("nan")
    return data


def _nan_knot():
    return _link(kind="piecewise_linear", coeffs=None, knots=[[0.0, 1.0], [1.0, float("nan")]])


_VALIDATION_REFUSALS = {
    "path-symbol-unknown": (_path(symbol="zeta", kind="constant", value=0.4),
                            "TimePathUnknownSymbol"),
    "path-duplicate": (_two_paths({"symbol": "rho_s", "kind": "constant", "value": 0.4},
                                  {"symbol": "rho_s", "kind": "linear", "v0": 0.4,
                                   "slope": 0.0}), "TimePathDuplicate"),
    "times-not-increasing": (_path(symbol="rho_s", kind="samples", times=[0.0, 0.0],
                                   values=[0.4, 0.5]), "TimePathInvalid"),
    "link-driven-unknown": (_link(driven="zeta"), "ResponseUnknownSymbol"),
    "coefficient-nan": (_nan_coefficient(), "NonFiniteValue"),
    "knot-nan": (_nan_knot(), "NonFiniteValue"),
}


@pytest.mark.parametrize("name", _VALIDATION_REFUSALS)
def test_scenario_validation_refusal(capsys, tmp_path, name):
    doc, violation = _VALIDATION_REFUSALS[name]
    _exact(ValidationError, scenario_from_dict, doc)
    code, out, err = _exit(capsys, tmp_path, doc, "validate", "{}")
    assert code == 2 and violation in err
    payload = json.loads(out)
    assert payload["ok"] is False and violation in [v["code"] for v in payload["violations"]]


# ---------------------------------------------------------------------------
# The schema closes per kind: another kind's parameter is an unknown field
# ---------------------------------------------------------------------------

_OTHER_KIND_KEYS = {
    "constant-with-slope": _path(symbol="rho_s", kind="constant", value=0.4, slope=2.0),
    "linear-with-times": _path(symbol="rho_s", kind="linear", v0=0.4, slope=0.0,
                               times=[0.0, 1.0]),
    "samples-with-value": _path(symbol="rho_s", kind="samples", times=[0.0, 1.0],
                                values=[0.4, 0.5], value=0.4),
    "polynomial-with-knots": _link(knots=[[0.0, 1.0], [1.0, 2.0]]),
    # the first link, psi_b = 4.6 + 0.2 U_ip, as a line through two knots
    "piecewise-with-coeffs": _link(kind="piecewise_linear", knots=[[0.0, 4.6], [10.0, 6.6]]),
}


@pytest.mark.parametrize("name", _OTHER_KIND_KEYS)
def test_another_kinds_parameter_is_an_unknown_field(capsys, tmp_path, name):
    doc = _OTHER_KIND_KEYS[name]
    _exact(UnknownField, scenario_from_dict, doc)
    code, out, err = _exit(capsys, tmp_path, doc, "validate", "{}")
    assert (code, out) == (2, "") and "has no field" in err


def test_a_marginals_other_kind_parameter_is_an_unknown_field():
    _exact(UnknownField, DistributionSpec.from_dict,
           {"marginals": {"rho_s": {**UNIFORM, "sd": 1.0}}})


# ---------------------------------------------------------------------------
# Bounds, distribution and config files
# ---------------------------------------------------------------------------

_OTHER_REFUSALS = {
    "bounds-list": (Bounds.from_dict, [0, 1], ParseError),
    "bounds-unknown": (Bounds.from_dict, {**BOUNDS, "B_x": [0, 1]}, UnknownField),
    "bounds-missing": (Bounds.from_dict, {k: v for k, v in BOUNDS.items() if k != "B_s"},
                       ParseError),
    "bounds-single": (Bounds.from_dict, {**BOUNDS, "B_i": [0]}, ParseError),
    "bounds-triple": (Bounds.from_dict, {**BOUNDS, "B_i": [0, 1, 2]}, ParseError),
    "bounds-number": (Bounds.from_dict, {**BOUNDS, "B_i": 3}, ParseError),
    "dist-list": (DistributionSpec.from_dict, [UNIFORM], ParseError),
    "dist-unknown": (DistributionSpec.from_dict, {"marginals": {}, "seed": 1}, UnknownField),
    "marginals-list": (DistributionSpec.from_dict, {"marginals": [UNIFORM]}, ParseError),
    "marginal-number": (DistributionSpec.from_dict, {"marginals": {"rho_s": 0.5}},
                        ParseError),
    "marginal-kind-missing": (DistributionSpec.from_dict,
                              {"marginals": {"rho_s": {"lo": 0.1, "hi": 0.2}}}, ParseError),
    "marginal-kind-unknown": (DistributionSpec.from_dict,
                              {"marginals": {"rho_s": {**UNIFORM, "kind": "beta"}}},
                              ParseError),
    "marginal-kind-list": (DistributionSpec.from_dict,
                           {"marginals": {"rho_s": {**UNIFORM, "kind": ["uniform"]}}},
                           ParseError),
    "marginal-unknown": (DistributionSpec.from_dict,
                         {"marginals": {"rho_s": {**UNIFORM, "mode": 0.5}}}, UnknownField),
    "marginal-missing": (DistributionSpec.from_dict,
                         {"marginals": {"rho_s": {"kind": "normal", "mean": 0.5}}},
                         ParseError),
    "marginal-symbol-unknown": (DistributionSpec.from_dict, {"marginals": {"zeta": UNIFORM}},
                                ParseError),
    "config-list": (RunConfig.from_dict, ["quorum"], ParseError),
    "config-unknown": (RunConfig.from_dict, {"quorum": 0.8, "quorom": 0.8}, UnknownField),
    "config-horizon-negative": (RunConfig.from_dict, {"horizon_T": -1.0}, ParseError),
    "config-w5-driver-unknown": (RunConfig.from_dict, {"w5_driver": "zeta"}, ParseError),
}

_ARGV = {
    Bounds.from_dict: ("optimize", str(BROKER), "--bounds", "{}"),
    DistributionSpec.from_dict: ("sweep", str(SCENARIO), "--dist", "{}", "-n", "2",
                                 "--seed", "1"),
    RunConfig.from_dict: ("decide", str(SCENARIO), "--config", "{}"),
}


@pytest.mark.parametrize("name", _OTHER_REFUSALS)
def test_input_file_refusal(capsys, tmp_path, name):
    read, doc, expected = _OTHER_REFUSALS[name]
    _exact(expected, read, doc)
    code, out, err = _exit(capsys, tmp_path, doc, *_ARGV[read])
    assert (code, out) == (2, "") and err.startswith("error: ") and "internal" not in err


def test_marginals_keep_file_order_and_write_sorted_keys():
    marginals = {"rho_s": UNIFORM, "c": {"kind": "point", "value": 0.05},
                 "P": {"kind": "normal", "mean": 300.0, "sd": 10.0}}
    dist = DistributionSpec.from_dict({"marginals": marginals})
    assert list(dist.marginals) == ["rho_s", "c", "P"]  # the draw columns' order
    assert dist.to_dict() == {"marginals": {k: marginals[k] for k in sorted(marginals)}}
    assert list(dist.to_dict()["marginals"]) == ["P", "c", "rho_s"]


def test_records_read_back_what_they_write():
    paths = [{"symbol": "rho_s", "kind": "samples", "times": [0.0, 1.0], "values": [0.7, 0.7]},
             {"symbol": "rho_p", "kind": "linear", "v0": 0.6, "slope": 0.0},
             {"symbol": "rho_i", "kind": "constant", "value": 0.4}]
    scenario = scenario_from_dict(_link(kind="piecewise_linear", knots=[[0.0, 4.6], [10.0, 6.6]],
                                        coeffs=None) | {"time_paths": paths})
    for record in (*scenario.responses, *scenario.time_paths):
        assert type(record).from_dict(record.to_dict()) == record
    assert [tp.to_dict() for tp in scenario.time_paths] == paths
    for bounds in (BOUNDS, {**BOUNDS, "B_b": [0.5, 1.0]}):
        assert Bounds.from_dict(bounds).to_dict() == bounds


def test_readers_keep_what_they_accept():
    cfg = RunConfig.from_dict({"rel_tol": 1, "quorum": 1})
    assert type(cfg.rel_tol) is int and cfg == RunConfig(rel_tol=1, quorum=1)
    assert Bounds.from_dict(BOUNDS) == Bounds(B_b=(0.0, 0.0), B_s=(0.0, 0.0), B_i=(0.0, 3.0),
                                              B_n=(0.0, 0.0))
    assert Bounds.from_dict(BOUNDS).B_i[1].__class__ is float


# ---------------------------------------------------------------------------
# Canonical scenario bytes
# ---------------------------------------------------------------------------

# sha256 over scenario_to_json of the scenario fixtures and of 300 generated
# scenarios carrying all three time-path kinds, as the writer gave them before
# links and paths were written from their declarations.
SCENARIO_BYTES_SHA256 = "5acbb83c8c91f52c4e45c1557f1ee96dab5a2679e4761d8f6838e6e0056ba300"
SCENARIO_FIXTURES = ("all_satisfied_broker_web", "all_satisfied_buyer", "all_satisfied_seller",
                     "all_three_satisfied", "broker_opt", "broker_retained")


def _with_time_paths(k: int) -> dict:
    data = scenario_to_dict(random_scenario([27, k], separation=0.0))
    rng = np.random.default_rng(np.random.SeedSequence([27, k, 1]))
    first, second, third = rng.choice(list(SYMBOLS), 3, replace=False)
    times = np.cumsum(rng.uniform(0.01, 0.5, size=int(rng.integers(2, 6))))
    data["time_paths"] = [
        {"symbol": str(first), "kind": "samples", "times": [float(t) for t in times],
         "values": [float(v) for v in rng.normal(size=len(times))]},
        {"symbol": str(second), "kind": "linear", "v0": float(rng.normal()),
         "slope": float(rng.normal())},
        {"symbol": str(third), "kind": "constant", "value": float(rng.normal())},
    ]
    return data


def test_scenario_bytes_are_pinned():
    digest = hashlib.sha256()
    for name in SCENARIO_FIXTURES:
        digest.update(scenario_to_json(load_scenario(FIXTURES_DIR / f"{name}.json")).encode())
    for k in range(300):
        scenario = scenario_from_dict(_with_time_paths(k))
        assert {tp.kind for tp in scenario.time_paths} == {"constant", "linear", "samples"}
        digest.update(scenario_to_json(scenario).encode())
    assert digest.hexdigest() == SCENARIO_BYTES_SHA256
