"""Data-model invariants and validation behavior."""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import SYMBOLS, validate_scenario, with_values
from dismed.conditions import ALL_CONDITION_IDS, build_form
from dismed.config import DEFAULT_CONFIG
from dismed.io import scenario_from_dict, scenario_to_dict
from dismed.errors import ParseError, ValidationError
from dismed.model import (MAX_POLY_DEGREE, ResponseFunction, TimePath, compile_response,
                          eval_response)
from dismed.simulate import Marginal

from conftest import expr_symbols
from fixture_defs import BASE_VALUES, fixture_dict, fixture_scenario


def plain_dict(**overrides):
    data = dict(BASE_VALUES)
    data.update(overrides)
    data["label"] = "model-test"
    return data


def build(**overrides):
    return scenario_from_dict(plain_dict(**overrides))


def violation_codes(**overrides):
    try:
        scenario_from_dict(plain_dict(**overrides))
    except ValidationError as exc:
        return {v.code for v in exc.violations}
    return set()


def test_valid_base_scenario_passes():
    report = validate_scenario(build())
    assert report.ok and not report.violations


def test_commission_out_of_range():
    assert "CommissionOutOfRange" in violation_codes(c=1.2)
    assert "CommissionOutOfRange" in violation_codes(c=0.0)


def test_probability_out_of_range():
    assert "ProbabilityOutOfRange" in violation_codes(rho_s=-0.1)
    assert "ProbabilityOutOfRange" in violation_codes(rho_i=1.4)


def test_price_must_be_positive():
    assert "NonPositivePrice" in violation_codes(P=-5.0)
    assert "NonPositivePrice" in violation_codes(P_b=0.0)
    # P_s may be negative
    assert "NonPositivePrice" not in violation_codes(P_s=-3.0)


def test_information_identity_exact():
    # I_p=4, I_i=6, I=10 passes the identity
    assert not violation_codes(I_p=4.0, I_i=6.0, I=10.0, I_o=7.0)
    assert "InformationIdentity" in violation_codes(I=7.5)


def test_information_inclusion():
    assert "InformationInclusion" in violation_codes(I_o=1.0)


def test_prospect_and_time_share_bounds():
    data = plain_dict()
    data["prospect_count"] = 0
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "ProspectCountOutOfRange" in {v.code for v in exc.value.violations}

    data = plain_dict()
    data["valued_time_share"] = 1.5
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "ValuedTimeShareOutOfRange" in {v.code for v in exc.value.violations}


def response(driven, driver, coeffs, context="base"):
    return {"driven": driven, "driver": driver, "kind": "polynomial",
            "coeffs": coeffs, "context": context}


def with_responses(responses, **overrides):
    data = plain_dict(**overrides)
    data["responses"] = responses
    return data


def response_codes(responses, **overrides):
    try:
        scenario_from_dict(with_responses(responses, **overrides))
    except ValidationError as exc:
        return {v.code for v in exc.violations}
    return set()


def test_declining_information_response_is_rejected():
    # I(B_b) = 10 - B_b through (B_b=2, I=8): consistent but falling
    codes = response_codes([response("I", "B_b", [10.0, -1.0])],
                           B_b=2.0, I=8.0, I_p=4.0, I_i=4.0, I_o=6.0)
    assert codes == {"InformationMonotonicity"}


def test_rising_convex_information_response_is_accepted():
    # I(B_b) = 2 + 2*B_b + 0.5*B_b^2 at B_b=2 gives 8
    codes = response_codes([response("I", "B_b", [2.0, 2.0, 0.5])],
                           B_b=2.0, I=8.0, I_p=4.0, I_i=4.0, I_o=6.0)
    assert codes == set()


def test_response_validation_codes():
    anchored = BASE_VALUES["I_o"]  # I_o response must pass through base I_o
    assert "ResponseDegree" in response_codes(
        [response("I_o", "U_a", [anchored] + [0.0] * 7)])
    assert "ResponseConsistency" in response_codes(
        [response("I_o", "U_a", [anchored + 1.0])])
    assert "ResponseDuplicate" in response_codes(
        [response("I_o", "U_a", [anchored]), response("I_o", "U_a", [anchored])])
    assert "ResponseSelfLink" in response_codes(
        [response("I_o", "I_o+U_a", [0.0, 1.0])])
    assert "ResponseUnknownSymbol" in response_codes(
        [response("I_o", "zeta", [anchored])])


@pytest.mark.parametrize("spelling", ["U_ip + U_iw", "U_ip+ U_iw", " U_a", "U_a\t"])
def test_a_driver_has_one_spelling(spelling):
    # conditions look links up as "a+b": any other spelling of a driver would
    # validate and never be read, and beside the plain one it would pass the
    # one-link-per-key rule
    anchored = [BASE_VALUES["I_o"]]
    plain = spelling.replace(" ", "").strip()
    assert response_codes([response("I_o", plain, anchored)]) == set()
    assert response_codes([response("I_o", spelling, anchored)]) == {"ResponseDriverSpelling"}
    assert response_codes([response("I_o", plain, anchored),
                           response("I_o", spelling, anchored)]) == {"ResponseDriverSpelling"}


def test_piecewise_knots_must_increase():
    bad = {"driven": "I_o", "driver": "U_a", "kind": "piecewise_linear",
           "knots": [[0.0, 1.0], [0.0, 2.0]], "context": "base"}
    assert "ResponseKnots" in response_codes([bad])


def test_overlay_validation():
    data = plain_dict()
    data["overlays"] = {"E_s": {"E_p": 3.0}}
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "OverlayListingState" in {v.code for v in exc.value.violations}

    data = plain_dict()
    data["overlays"] = {"E_s": {"I_p": 1.0}}  # breaks I = I_p + I_i under E_s
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "InformationIdentity" in {v.code for v in exc.value.violations}


def test_time_path_validation():
    data = plain_dict()
    data["time_paths"] = [{"symbol": "rho_s", "kind": "samples",
                           "times": [0.0, 1.0], "values": [0.5]}]
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "TimePathInvalid" in {v.code for v in exc.value.violations}


# The readers refuse each of these at parse time; a scenario built in Python
# reaches the validator with them, and it must still name them.
_ANCHORED_LINK = ResponseFunction("I_o", "U_a", "polynomial", coeffs=(BASE_VALUES["I_o"],))


@pytest.mark.parametrize("change, code", [
    ({"overlays": {"E_x": {"P": 1.0}}}, "OverlayUnknownState"),
    ({"overlays": {"E_s": {"zeta": 1.0}}}, "OverlayUnknownSymbol"),
    ({"responses": (_ANCHORED_LINK.replace(context="E_x"),)}, "ResponseUnknownContext"),
    ({"responses": (_ANCHORED_LINK.replace(kind="cubic"),)}, "ResponseKind"),
    ({"time_paths": (TimePath("rho_s", "step", value=0.5),)}, "TimePathInvalid"),
], ids=["overlay-state", "overlay-symbol", "link-context", "link-kind", "path-kind"])
def test_validator_names_what_only_a_python_built_scenario_holds(change, code):
    assert validate_scenario(build().replace(**change)).codes() == (code,)


def test_a_marginal_of_an_unknown_kind_is_refused():
    with pytest.raises(ParseError, match="unknown marginal kind 'beta'"):
        Marginal(kind="beta")


def test_validation_is_deterministic():
    s = fixture_scenario("det")
    assert validate_scenario(s) == validate_scenario(s)


def test_with_values_replaces_symbols():
    s = build()
    s2 = with_values(s, {"psi_b": 7.25, "rho_s": 0.11})
    assert s2.value("psi_b") == 7.25
    assert s2.value("rho_s") == 0.11
    assert s.value("psi_b") == BASE_VALUES["psi_b"]


_WITH_VALUES_BASE = fixture_scenario("with-values").replace(
    prospect_count=3, valued_time_share=0.5,
    overlays={"E_p": {"psi_b": 4.0, "U_iw": 2.5}})


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(SYMBOLS)),
                       st.floats(allow_nan=False, allow_infinity=False)))
def test_with_values_replaces_exactly_the_given_symbols(updates):
    s = _WITH_VALUES_BASE
    before = scenario_to_dict(s)
    moved = with_values(s, updates)
    assert scenario_to_dict(moved) == {**before, **updates}
    assert scenario_to_dict(s) == before


def test_symbol_table_is_one_to_one():
    assert len(SYMBOLS) == 41
    targets = list(SYMBOLS.values())
    assert len(set(targets)) == len(targets)


def test_every_condition_symbol_resolves_uniquely():
    for cid in ALL_CONDITION_IDS:
        form = build_form(cid, DEFAULT_CONFIG)
        for part in filter(None, (form.guard, *form.parts)):
            names = expr_symbols((part.lhs, part.rhs))
            for spec in filter(None, (part.lhs_ctx, part.rhs_ctx)):
                kind, arg = spec  # ("argmax", states) or ("state", state)
                names.update(arg if kind == "argmax" else (arg,))
            for name in names:
                assert name in SYMBOLS, (cid.label, name)


def test_scenario_is_frozen():
    s = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.label = "other"
    with pytest.raises(TypeError):
        s.values[SYMBOLS["P"]] = 1.0


def test_fixture_files_match_builder(fixtures_dir):
    # Regeneration guard: the committed fixtures are exactly what the
    # builder produces today.
    from dismed.io import load_scenario, scenario_to_json
    from fixture_defs import broker_retained_dict, broker_opt_dict

    expect = {
        "all_three_satisfied.json": fixture_dict("all_three_satisfied"),
        "all_satisfied_buyer.json": fixture_dict("all_satisfied_buyer"),
        "all_satisfied_seller.json": fixture_dict("all_satisfied_seller"),
        "all_satisfied_broker_web.json": fixture_dict("all_satisfied_broker_web"),
        "broker_retained.json": broker_retained_dict(),
        "broker_opt.json": broker_opt_dict(),
    }
    for name, data in expect.items():
        on_disk = scenario_to_json(load_scenario(fixtures_dir / name))
        assert on_disk == scenario_to_json(scenario_from_dict(data)), name


def test_response_index_follows_each_copy():
    s = fixture_scenario("index")
    first = s.responses[0]
    key = (first.driven, first.driver)
    assert s.response_for(*key) is first  # builds and caches s's index

    moved = with_values(s, {"rho_s": 0.25})
    assert moved.response_for(*key) is first
    emptied = s.replace(responses=())
    assert emptied.response_for(*key) is None
    assert s.response_for(*key) is first
    swapped = s.replace(responses=(first.replace(coeffs=(1.0, 2.0)),) + s.responses[1:])
    assert swapped.response_for(*key).coeffs == (1.0, 2.0)
    assert with_values(emptied, {"psi_b": 5.5}).response_for(*key) is None
    # many short-lived copies: none may see another copy's index
    for i in range(50):
        kept = s.responses[i % 2:]
        copy = s.replace(responses=kept)
        assert (copy.response_for(*key) is first) == (i % 2 == 0), i


# Violation messages are part of the CLI payload (``dismed validate``), so each
# value check's exact wording is pinned here, on mutations of one fixture.
def _consistency(link, x, y_hat, driven, y):
    return ("ResponseConsistency", f"response {link}: f({x}) = {y_hat} but stored {driven} = {y}")


_INVALID_MUTATIONS = {
    "P = inf": ({"values": {"P": math.inf}},
                [("NonFiniteValue", "P = inf is not finite")]),
    "P = -inf": ({"values": {"P": -math.inf}},
                 [("NonFiniteValue", "P = -inf is not finite")]),
    "c = nan": ({"values": {"c": math.nan}},
                [("NonFiniteValue", "c = nan is not finite")]),
    "rho_i = inf": ({"values": {"rho_i": math.inf}},
                    [("NonFiniteValue", "rho_i = inf is not finite")]),
    "P < 0": ({"values": {"P": -5.0}}, [
        ("NonPositivePrice", "P = -5.0 must be > 0"),
        _consistency("(P, c, base)", 0.3, 10.0, "P", -5.0),
        _consistency("(P, pi_s, base)", 1.5, 10.0, "P", -5.0),
        _consistency("(P, pi_sb, base)", 2.0, 10.0, "P", -5.0),
        _consistency("(P_b, P, base)", -5.0, 6715.0, "P_b", 10.0),
        _consistency("(P_s, P, base)", -5.0, -12.5, "P_s", 10.0)]),
    "P_b = 0": ({"values": {"P_b": 0.0}}, [
        ("NonPositivePrice", "P_b = 0.0 must be > 0"),
        _consistency("(P_b, P, base)", 10.0, 10.0, "P_b", 0.0)]),
    "c > 1": ({"values": {"c": 1.2}}, [
        ("CommissionOutOfRange", "c = 1.2 must lie in (0, 1)"),
        _consistency("(P, c, base)", 1.2, 28.0, "P", 10.0),
        _consistency("(pi_s, c, base)", 1.2, 1.77, "pi_s", 1.5),
        _consistency("(pi_sb, c, base)", 1.2, 3.3499999999999996, "pi_sb", 2.0),
        _consistency("(psi_sb, c, base)", 1.2, 3.6, "psi_sb", 1.8),
        _consistency("(psi_si, c, base)", 1.2, 2.35, "psi_si", 1.9)]),
    "c = 0": ({"values": {"c": 0.0}}, [
        ("CommissionOutOfRange", "c = 0.0 must lie in (0, 1)"),
        _consistency("(P, c, base)", 0.0, 4.0, "P", 10.0),
        _consistency("(pi_s, c, base)", 0.0, 1.41, "pi_s", 1.5),
        _consistency("(pi_sb, c, base)", 0.0, 1.55, "pi_sb", 2.0),
        _consistency("(psi_sb, c, base)", 0.0, 1.2000000000000002, "psi_sb", 1.8),
        _consistency("(psi_si, c, base)", 0.0, 1.75, "psi_si", 1.9)]),
    "rho_s < 0": ({"values": {"rho_s": -0.1}},
                  [("ProbabilityOutOfRange", "rho_s = -0.1 must lie in [0, 1]")]),
    "rho_i > 1": ({"values": {"rho_i": 1.4}}, [
        ("ProbabilityOutOfRange", "rho_i = 1.4 must lie in [0, 1]"),
        _consistency("(rho_i, B_b, base)", 0.3, 0.4, "rho_i", 1.4),
        _consistency("(rho_i, U_ip+U_iw, base)", 5.0, 0.4, "rho_i", 1.4),
        _consistency("(rho_i, U_sp+U_sw, base)", 2.2, 0.4, "rho_i", 1.4),
        _consistency("(rho_i, rho_p, base)", 0.6, 0.4, "rho_i", 1.4)]),
    "I != I_p + I_i": ({"values": {"I": 7.5}},
                       [("InformationIdentity", "I = 7.5 must equal I_p + I_i = 6.95")]),
    "I != I_p + I_i under E_s": ({"overlays": {"E_s": {"I_p": 1.0}}}, [
        ("InformationIdentity", "under overlay E_s: I = 6.95 must equal I_p + I_i = 5.95")]),
    "I_o < I_i": ({"values": {"I_o": 1.0}}, [
        ("InformationInclusion", "I_o = 1.0 must be >= I_i = 4.95"),
        _consistency("(I_o, I_p+I_i, base)", 6.95, 8.0, "I_o", 1.0),
        _consistency("(I_o, U_a, base)", 4.0, 8.0, "I_o", 1.0),
        _consistency("(I_o, psi_bi, base)", 4.9, 8.0, "I_o", 1.0),
        _consistency("(I_o, psi_sb, base)", 1.8, 8.0, "I_o", 1.0),
        _consistency("(I_o, psi_si, base)", 1.9, 7.999999999999998, "I_o", 1.0)]),
    "U_a off its links": ({"values": {"U_a": 5.0}}, [
        _consistency("(I_o, U_a, base)", 5.0, 8.925, "I_o", 8.0),
        _consistency("(U_a, psi_si, base)", 1.9, 4.000000000000001, "U_a", 5.0),
        _consistency("(pi_s, U_a, base)", 5.0, 1.6, "pi_s", 1.5)]),
    "I(B_b) falling": ({"responses": [("I", "B_b", (7.25, -1.0))]}, [
        ("InformationMonotonicity",
         "response (I, B_b, base): I(B_b) must have positive first and second central "
         "differences at B_b = 0.3 (got -1, -8.88178e-10)")]),
    "overlay psi_b = inf": ({"overlays": {"E_p": {"psi_b": math.inf}}},
                            [("NonFiniteValue", "overlay E_p.psi_b = inf is not finite")]),
    "prospect_count = 0": ({"prospect_count": 0}, [
        ("ProspectCountOutOfRange", "prospect_count = 0 must be >= 1")]),
    "valued_time_share > 1": ({"valued_time_share": 1.5}, [
        ("ValuedTimeShareOutOfRange", "valued_time_share = 1.5 must lie in [0, 1]")]),
}


@pytest.mark.parametrize("mutation, expected", _INVALID_MUTATIONS.values(),
                         ids=_INVALID_MUTATIONS.keys())
def test_violation_messages_are_pinned(fixtures_dir, mutation, expected):
    from dismed.io import load_scenario
    from dismed.model import ResponseFunction

    s = load_scenario(fixtures_dir / "all_three_satisfied.json")
    mutation = dict(mutation)
    s = with_values(s, mutation.pop("values", {}))
    links = tuple(ResponseFunction(driven, driver, "polynomial", coeffs)
                  for driven, driver, coeffs in mutation.pop("responses", ()))
    s = s.replace(responses=s.responses + links, **mutation)
    got = [(v.code, v.message) for v in validate_scenario(s).violations]
    assert got == expected


# --- compiled links against eval_response, bit for bit -------------------------

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308)
_COEFFS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-10.0, 10.0),
                    st.floats(allow_nan=False, allow_infinity=False))
_DRIVERS = st.lists(st.one_of(
    st.sampled_from((*_EXTREMES, math.inf, -math.inf, math.nan)), st.floats(-10.0, 10.0),
    st.floats()), min_size=1, max_size=8)


def _packed(x: float) -> bytes:
    return struct.pack("<d", x)


def _same_bits(r, xs):
    compiled = compile_response(r)
    for x in xs:
        assert _packed(compiled(x)) == _packed(eval_response(r, x)), (r, x)


@pytest.mark.parametrize("n", range(1, MAX_POLY_DEGREE + 2))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_polynomial_equals_eval_response_bit_for_bit(n, data):
    coeffs = tuple(data.draw(st.lists(_COEFFS, min_size=n, max_size=n)))
    _same_bits(ResponseFunction("SC_br", "B_i", "polynomial", coeffs=coeffs), data.draw(_DRIVERS))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFFS, min_size=1, max_size=6, unique=True), st.data())
def test_compiled_piecewise_link_equals_eval_response_bit_for_bit(xs, data):
    knots = tuple((x, data.draw(_COEFFS)) for x in sorted(xs))
    _same_bits(ResponseFunction("SC_br", "B_i", "piecewise_linear", knots=knots),
               data.draw(_DRIVERS))
