"""Scenario file loading, closed schema, and canonical round trips."""

import json

import pytest

from dismed import ParseError, UnknownField, ValidationError, load_scenario
from dismed.io import scenario_from_dict, scenario_to_json, save_scenario

from fixture_defs import fixture_dict


def test_load_fixture_gets_label(fixtures_dir):
    s = load_scenario(fixtures_dir / "all_satisfied_buyer.json")
    assert s.label == "all_satisfied_buyer"
    assert s.value("psi_b") == 5.0


def test_label_defaults_to_file_stem(tmp_path):
    data = fixture_dict("x")
    del data["label"]
    path = tmp_path / "my_market.json"
    path.write_text(json.dumps(data))
    assert load_scenario(path).label == "my_market"


def test_bad_commission_names_violation(fixtures_dir):
    with pytest.raises(ValidationError) as exc:
        load_scenario(fixtures_dir / "bad_c.json")
    assert "CommissionOutOfRange" in str(exc.value)


def test_unknown_top_level_key(tmp_path):
    data = fixture_dict("x")
    data["zeta"] = 3
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    with pytest.raises(UnknownField):
        load_scenario(path)


def test_unknown_response_key():
    data = fixture_dict("x")
    data["responses"][0]["surprise"] = 1
    with pytest.raises(UnknownField):
        scenario_from_dict(data)


def test_malformed_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_missing_field_is_parse_error():
    data = fixture_dict("x")
    del data["rho_s"]
    with pytest.raises(ParseError):
        scenario_from_dict(data)


def test_non_numeric_symbol_rejected():
    data = fixture_dict("x")
    data["psi_b"] = "five"
    with pytest.raises(ParseError):
        scenario_from_dict(data)
    data = fixture_dict("x")
    data["psi_b"] = True
    with pytest.raises(ParseError):
        scenario_from_dict(data)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.json")


@pytest.mark.parametrize("name", [
    "all_three_satisfied.json",
    "all_satisfied_buyer.json",
    "broker_retained.json",
    "broker_opt.json",
])
def test_canonical_round_trip_is_byte_stable(fixtures_dir, tmp_path, name):
    first = scenario_to_json(load_scenario(fixtures_dir / name))
    path = tmp_path / "canon.json"
    path.write_text(first, encoding="utf-8")
    second = scenario_to_json(load_scenario(path))
    assert first == second


def test_save_scenario_writes_canonical_form(tmp_path, base_scenario):
    path = save_scenario(base_scenario, tmp_path / "out.json")
    assert path.read_text(encoding="utf-8") == scenario_to_json(base_scenario)
    assert path.read_text(encoding="utf-8").endswith("\n")


def _with_time_path(**path):
    data = fixture_dict("x")
    data["time_paths"] = [{"symbol": "rho_s", "kind": "samples", **path}]
    return data


def _with_first_response(**fields):
    data = fixture_dict("x")
    data["responses"][0].update(fields)
    return data


@pytest.mark.parametrize("data", [
    _with_first_response(coeffs=["1.2525", "0.05"]),
    _with_first_response(coeffs=[1.0, [0.05]]),
    _with_first_response(coeffs=[1.0, True]),
    _with_first_response(kind="piecewise_linear", coeffs=None, knots=[[0.0, 1.0], [1.0, False]]),
    _with_first_response(kind="piecewise_linear", coeffs=None, knots=[[0.0, 1.0], [1.0]]),
    _with_first_response(kind="piecewise_linear", coeffs=None, knots=[[0.0, 1.0], "ab"]),
    _with_time_path(times=[False, True], values=[0.1, 0.2]),
    _with_time_path(times=["a", "b"], values=[0.1, 0.2]),
    _with_time_path(times=[0.0, 1.0], values=[0.1, None]),
    {**fixture_dict("x"), "valued_time_share": "0.5"},
    {**fixture_dict("x"), "overlays": {"E_s": {"psi_b": "4"}}},
    {**fixture_dict("x"), "psi_b": 10 ** 400},
], ids=["coeff-strings", "coeff-nested-list", "coeff-bool", "knot-bool", "knot-short",
        "knot-string", "times-bools", "times-strings", "values-null", "vts-string",
        "overlay-string", "symbol-overflow"])
def test_every_number_is_checked_as_a_number(data):
    with pytest.raises(ParseError):
        scenario_from_dict(data)
