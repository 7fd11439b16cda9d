"""Scenario file loading, closed schema, and canonical round trips."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import ParseError, UnknownField, ValidationError, load_scenario
from dismed.cli import main
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
    link = data["responses"][0]
    link.update(fields)
    if link["kind"] == "piecewise_linear":
        del link["coeffs"]  # a piecewise link has no coefficients
    return data


@pytest.mark.parametrize("data, message", [
    (_with_first_response(coeffs=["1.2525", "0.05"]),
     "responses[0].coeffs[0] must be a number, got '1.2525'"),
    (_with_first_response(coeffs=[1.0, [0.05]]),
     "responses[0].coeffs[1] must be a number, got [0.05]"),
    (_with_first_response(coeffs=[1.0, True]),
     "responses[0].coeffs[1] must be a number, got True"),
    (_with_first_response(kind="piecewise_linear", knots=[[0.0, 1.0], [1.0, False]]),
     "responses[0].knots[1][1] must be a number, got False"),
    (_with_first_response(kind="piecewise_linear", knots=[[0.0, 1.0], [1.0]]),
     "responses[0]: knots must be [x, y] pairs"),
    (_with_first_response(kind="piecewise_linear", knots=[[0.0, 1.0], "ab"]),
     "responses[0]: knots must be [x, y] pairs"),
    (_with_time_path(times=[False, True], values=[0.1, 0.2]),
     "time_paths[0].times[0] must be a number, got False"),
    (_with_time_path(times=["a", "b"], values=[0.1, 0.2]),
     "time_paths[0].times[0] must be a number, got 'a'"),
    (_with_time_path(times=[0.0, 1.0], values=[0.1, None]),
     "time_paths[0].values[1] must be a number, got None"),
    ({**fixture_dict("x"), "valued_time_share": "0.5"},
     "valued_time_share must be a number, got '0.5'"),
    ({**fixture_dict("x"), "overlays": {"E_s": {"psi_b": "4"}}},
     "overlays.E_s.psi_b must be a number, got '4'"),
    ({**fixture_dict("x"), "psi_b": 10 ** 400},
     "scenario: field 'psi_b': integer too large for a float"),
], ids=["coeff-strings", "coeff-nested-list", "coeff-bool", "knot-bool", "knot-short",
        "knot-string", "times-bools", "times-strings", "values-null", "vts-string",
        "overlay-string", "symbol-overflow"])
def test_every_number_is_checked_as_a_number(data, message):
    with pytest.raises(ParseError) as exc:
        scenario_from_dict(data)
    assert str(exc.value) == message


def test_json_integers_load_as_floats():
    # every integral number of a valid file, written as a JSON integer
    text = json.dumps(_fuzz_base())
    data = json.loads(text, parse_float=lambda s: int(float(s)) if float(s).is_integer()
                      else float(s))
    def numbers(links, paths):
        return ([x for r in links for x in r.get("coeffs", ())],
                [x for r in links for k in r.get("knots", ()) for x in k],
                [x for tp in paths for x in tp.get("times", ())])

    for given in numbers(data["responses"], data["time_paths"]):
        assert int in set(map(type, given))
    s = scenario_from_dict(data)
    loaded = (*s.values, *(x for r in s.responses for x in r.coeffs),
              *(x for r in s.responses for k in r.knots for x in k),
              *(x for tp in s.time_paths for x in tp.times))
    assert all(type(x) is float for x in loaded)
    assert scenario_to_json(s) == scenario_to_json(scenario_from_dict(json.loads(text)))


# ---------------------------------------------------------------------------
# Fuzz: a mutated scenario file is a typed error, never a crash
# ---------------------------------------------------------------------------

def _fuzz_base() -> dict:
    """A valid scenario that reaches every branch of the loader: overlays, all
    three time-path kinds and both response kinds."""
    data = fixture_dict("fuzz")
    data["overlays"] = {"E_s": {"psi_b": 5.0}, "E_p": {"U_iw": 3.0}}
    data["time_paths"] = [
        {"symbol": "rho_s", "kind": "samples", "times": [0.0, 1.0], "values": [0.7, 0.7]},
        {"symbol": "rho_p", "kind": "linear", "v0": 0.6, "slope": 0.0},
        {"symbol": "rho_i", "kind": "constant", "value": 0.4},
    ]
    data["responses"].append({"driven": "SC_s", "driver": "B_s", "kind": "piecewise_linear",
                              "knots": [[0.0, 25.0], [1.0, 25.0]]})
    return data


_SCHEMA_WORDS = sorted({
    *fixture_dict("x"), "overlays", "time_paths", "responses", "label", "prospect_count",
    "valued_time_share", "driven", "driver", "kind", "coeffs", "knots", "context", "symbol",
    "value", "v0", "slope", "times", "values", "polynomial", "piecewise_linear", "constant",
    "linear", "samples", "base", "E_s", "E_p", "E_m", "B_b+B_s", "I_p+I_i"})
# Lone surrogates arrive through \ud800 escapes in a UTF-8 file.
_FUZZ_TEXT = (st.sampled_from(_SCHEMA_WORDS) | st.text(max_size=4)
              | st.sampled_from(["\ud800", "x\udfff", "", "\x00"]))
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers(min_value=10 ** 308)
    | st.floats() | _FUZZ_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_FUZZ_TEXT, kids, max_size=3),
    max_leaves=6)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


def _mutate(data, doc):
    """Drop, retype or insert one key or element somewhere in ``doc``."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "retype", "insert"]))
    if not path:
        return data.draw(_FUZZ_VALUES) if op == "retype" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "retype":
        parent[path[-1]] = data.draw(_FUZZ_VALUES)
    elif isinstance(node, dict):
        node[data.draw(_FUZZ_TEXT)] = data.draw(_FUZZ_VALUES)
    elif isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(_FUZZ_VALUES))
    else:
        parent[path[-1]] = [node, data.draw(_FUZZ_VALUES)]
    return doc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_scenarios_fail_only_with_typed_errors(tmp_path_factory, data):
    doc = _fuzz_base()
    for _ in range(data.draw(st.integers(1, 4))):
        doc = _mutate(data, doc)
    try:
        scenario_from_dict(doc)
    except (ParseError, ValidationError):
        pass
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", str(path), "--out", os.devnull]) in (0, 2)
