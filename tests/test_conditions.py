"""Condition registry semantics: guards, traces, aggregation, config switches."""

import dataclasses
import hashlib
import json
import os
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import (
    ConditionId,
    ConditionSet,
    RunConfig,
    SetDecision,
    Status,
    condition_ids,
    decide,
    eval_condition,
    eval_condition_set,
    with_values,
)
from dismed.cli import render_report
from dismed.conditions import ALL_CONDITION_IDS, build_form, condition_margin
from dismed.io import scenario_from_dict, scenario_to_dict
from dismed.model import PROBABILITY_SYMBOLS, SYMBOLS

from fixture_defs import fixture_dict
from oracle import oracle_statuses
from scen_gen import drop_responses, random_determinate_scenario, random_scenario
from test_golden import DIGEST_CONFIGS

CFG = RunConfig()
PASS = {Status.SATISFIED, Status.VACUOUS}


def bare_scenario(**value_overrides):
    data = fixture_dict("bare", value_overrides=value_overrides)
    data["responses"] = []
    return scenario_from_dict(data)


def without_pairs(scenario, pairs):
    import dataclasses

    kept = tuple(r for r in scenario.responses
                 if (r.driven, r.driver) not in pairs)
    return dataclasses.replace(scenario, responses=kept)


# --- condition ids -----------------------------------------------------------

def test_condition_id_parsing():
    cid = ConditionId.parse("s14")
    assert cid.set is ConditionSet.SELLER and cid.index == 14
    assert cid.label == "S14"
    assert len(condition_ids(ConditionSet.BUYER)) == 19
    assert len(condition_ids(ConditionSet.BROKER_WEB)) == 7
    assert len(condition_ids(ConditionSet.SELLER)) == 18
    with pytest.raises(ValueError):
        ConditionId.parse("B20")
    with pytest.raises(ValueError):
        ConditionId.parse("Q1")


# Every form's repr (descriptions, ops, expressions, contexts and notes) under
# each digest config. Payloads cannot pin this: a failed guard leaves out its
# parts, and the oracle compares statuses only.
FORMS_SHA256 = "e1eb93115b0a945b6594109d0869e95b1908342dd81efc9a47a99162cd367ea5"


def test_every_condition_form_is_pinned():
    digest = hashlib.sha256()
    for name, overrides in DIGEST_CONFIGS.items():
        cfg = RunConfig(**overrides)
        for cid in ALL_CONDITION_IDS:
            digest.update(f"{name} {cid.label} {build_form(cid, cfg)!r}\n".encode())
    assert digest.hexdigest() == FORMS_SHA256


# --- single conditions -------------------------------------------------------

def test_b5_violated_on_first_conjunct(base_scenario):
    s = with_values(base_scenario,
                    {"psi_b": 5.0, "psi_bi": 7.0, "U_iw": 9.0, "U_ip": 4.0})
    v = eval_condition(s, ConditionId.parse("B5"), CFG)
    assert v.status is Status.VIOLATED
    assert v.lhs.lower == 5.0 and v.rhs.lower == 7.0


def test_b2_similarity(base_scenario):
    s = with_values(base_scenario, {"I_i": 10.0, "psi_b": 10.2})
    assert eval_condition(s, ConditionId.parse("B2"), CFG).status is Status.SATISFIED
    s = with_values(base_scenario, {"I_i": 10.0, "psi_b": 11.0})
    assert eval_condition(s, ConditionId.parse("B2"), CFG).status is Status.VIOLATED


def test_b8_missing_response_note(base_scenario):
    s = without_pairs(base_scenario, {("I_o", "psi_bi")})
    v = eval_condition(s, ConditionId.parse("B8"), CFG)
    assert v.status is Status.INDETERMINATE
    assert "missing response (I_o, psi_bi)" in v.notes


def test_s14_squared_term_trace(base_scenario):
    v = eval_condition(base_scenario, ConditionId.parse("S14"), CFG)
    # SC_s - psi_si - pi_sb^2 = 25 - 1.9 - 4
    assert v.lhs.lower == pytest.approx(19.1)
    assert any("squared" in n for n in v.notes)


def test_s11_self_derivative_contributes_one(base_scenario):
    v = eval_condition(base_scenario, ConditionId.parse("S11"), CFG)
    assert v.status is Status.SATISFIED
    assert v.lhs.lower == pytest.approx(1.2, abs=1e-6)  # 0.2 slope + identity


def test_b3_lhs_increases_with_commission(base_scenario):
    low = eval_condition(with_values(base_scenario, {"c": 0.3}),
                         ConditionId.parse("B3"), CFG)
    high = eval_condition(with_values(base_scenario, {"c": 0.35}),
                          ConditionId.parse("B3"), CFG)
    assert low.guard_status and high.guard_status
    assert high.lhs.lower > low.lhs.lower


def test_w2_reads_the_overlay(base_scenario):
    import dataclasses

    v = eval_condition(base_scenario, ConditionId.parse("W2"), CFG)
    assert v.status is Status.SATISFIED
    flipped = dataclasses.replace(
        base_scenario, overlays={"E_s": {"U_ip": 5.0, "U_iw": 1.0}})
    v = eval_condition(flipped, ConditionId.parse("W2"), CFG)
    assert v.status is Status.VIOLATED


def test_s13_intersection_mode_changes_the_verdict(base_scenario):
    s = with_values(base_scenario, {"psi_s": 8.0, "rho_s": 0.3})
    cid = ConditionId.parse("S13")
    assert eval_condition(s, cid, CFG).status is Status.SATISFIED
    min_cfg = CFG.with_overrides(intersection="min")
    assert eval_condition(s, cid, min_cfg).status is Status.VIOLATED


def test_w5_driver_is_configurable(base_scenario):
    cid = ConditionId.parse("W5")
    assert eval_condition(base_scenario, cid, CFG).status is Status.SATISFIED
    other = CFG.with_overrides(w5_driver="B_s")
    v = eval_condition(base_scenario, cid, other)
    assert v.status is Status.INDETERMINATE
    assert any("B_s" in n for n in v.notes)


def test_s3_seller_utility_switch(base_scenario):
    cid = ConditionId.parse("S3")
    assert eval_condition(base_scenario, cid, CFG).status is Status.SATISFIED
    swapped = CFG.with_overrides(seller_uses_U_sa=True)
    v = eval_condition(base_scenario, cid, swapped)
    assert v.status is Status.INDETERMINATE  # no (U_sa, psi_si) link declared


# --- guards ------------------------------------------------------------------

def test_guard_modes(base_scenario):
    s = with_values(base_scenario, {"psi_b": 3.0, "psi_bi": 4.0})
    cid = ConditionId.parse("W1")
    v = eval_condition(s, cid, CFG)
    assert v.status is Status.VACUOUS and v.guard_status is False
    assert v.lhs is None and v.rhs is None
    v = eval_condition(s, cid, CFG.with_overrides(guard_mode="violated"))
    assert v.status is Status.VIOLATED
    v = eval_condition(s, cid, CFG.with_overrides(guard_mode="skip"))
    assert v.status is Status.VACUOUS and v.skipped


def test_b1_guard_versus_joint(base_scenario):
    s = with_values(base_scenario, {"U_iw": 1.0, "U_ip": 2.0})
    cid = ConditionId.parse("B1")
    assert eval_condition(s, cid, CFG).status is Status.VACUOUS
    joint = CFG.with_overrides(b1_guard_joint=True)
    assert eval_condition(s, cid, joint).status is Status.VIOLATED


def test_guard_soundness_property():
    for i in range(25):
        s = random_determinate_scenario([777, i])
        for label in ("B1", "B3", "B4", "W1"):
            v = eval_condition(s, ConditionId.parse(label), CFG)
            if v.guard_status is False:
                assert v.status is Status.VACUOUS


# Every symbol the model does not bound above, scaled by up to 1e300: sums
# and stencil points overflow, inf - inf appears, and h ** 3 has no finite
# value, yet evaluation is total.
_UNBOUNDED = tuple(name for name in SYMBOLS if name not in ("c", *PROBABILITY_SYMBOLS))


@lru_cache(maxsize=None)
def _linkless_scenario(i):
    return dataclasses.replace(random_scenario([31, i]), responses=())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.integers(0, 300), min_size=len(_UNBOUNDED), max_size=len(_UNBOUNDED)),
       st.sampled_from((CFG, RunConfig(intersection="min", guard_mode="skip",
                                       b1_guard_joint=True, horizon_T=2.0))))
def test_decide_raises_nothing_at_any_magnitude(i, exponents, cfg):
    s = _linkless_scenario(i)
    s = with_values(s, {name: s.value(name) * 10.0 ** k
                        for name, k in zip(_UNBOUNDED, exponents)})
    render_report(decide(s, cfg), "json", os.devnull)


# --- sets, aggregation, decide ----------------------------------------------

def test_fixture_set_fully_satisfied(base_scenario):
    report = eval_condition_set(base_scenario, ConditionSet.BUYER, CFG)
    assert report.aggregate is SetDecision.SATISFIED
    assert all(v.status is Status.SATISFIED for v in report.verdicts)


def test_swapped_search_costs_flip_b5(base_scenario):
    s = scenario_from_dict(fixture_dict(
        "swap", value_overrides={"psi_b": 4.9, "psi_bi": 5.0}))
    report = eval_condition_set(s, ConditionSet.BUYER, CFG)
    assert report.statuses()["B5"] is Status.VIOLATED
    assert report.aggregate is SetDecision.NOT_SATISFIED


def test_quorum_aggregation(base_scenario):
    # drop three single-condition links: B6, B12, B14 become indeterminate
    s = without_pairs(base_scenario, {("psi_b", "U_ip"), ("P_b", "P"),
                                      ("u_hat_s", "pi_sb+I_p+I_i")})
    conj = eval_condition_set(s, ConditionSet.BUYER, CFG)
    assert conj.aggregate is SetDecision.INDETERMINATE
    statuses = conj.statuses()
    indeterminate = [k for k, v in statuses.items() if v is Status.INDETERMINATE]
    assert sorted(indeterminate) == ["B12", "B14", "B6"]

    quorum = CFG.with_overrides(aggregation="quorum", quorum=0.8)
    report = eval_condition_set(s, ConditionSet.BUYER, quorum)
    assert report.aggregate is SetDecision.SATISFIED  # 16/19 = 0.842

    tight = CFG.with_overrides(aggregation="quorum", quorum=0.9)
    report = eval_condition_set(s, ConditionSet.BUYER, tight)
    # 16/19 < 0.9 but (16+3)/19 = 1.0 >= 0.9: could still reach quorum
    assert report.aggregate is SetDecision.INDETERMINATE


def test_quorum_blocking_violations(base_scenario):
    s = with_values(base_scenario, {"u_hat_s": 13.0})  # B13 violated
    quorum = CFG.with_overrides(aggregation="quorum", quorum=0.5,
                                quorum_violations_block=True)
    report = eval_condition_set(s, ConditionSet.BUYER, quorum)
    assert report.aggregate is SetDecision.NOT_SATISFIED


def test_decide_all_three(base_scenario):
    summary = decide(base_scenario, CFG)
    assert summary.buyer_disintermediates is SetDecision.SATISFIED
    assert summary.broker_provides_web_info is SetDecision.SATISFIED
    assert summary.seller_disintermediates is SetDecision.SATISFIED


def test_decide_broker_retained(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_retained.json")
    summary = decide(s, CFG)
    assert summary.buyer_disintermediates is SetDecision.NOT_SATISFIED
    assert summary.broker_provides_web_info is SetDecision.SATISFIED
    assert summary.seller_disintermediates is SetDecision.NOT_SATISFIED


def test_zero_responses_make_derivative_conditions_indeterminate():
    s = bare_scenario()
    summary = decide(s, CFG)
    assert summary.buyer_disintermediates is SetDecision.INDETERMINATE
    assert summary.broker_provides_web_info is SetDecision.INDETERMINATE
    assert summary.seller_disintermediates is SetDecision.INDETERMINATE
    derivative_conditions = [
        "B6", "B7", "B8", "B9", "B10", "B11", "B12", "B14", "B16", "B17",
        "B18", "B19", "W4", "W5", "W6", "W7", "S2", "S3", "S6", "S7", "S8",
        "S9", "S10", "S11", "S15", "S16", "S17", "S18",
    ]
    statuses = {}
    for report in summary.reports.values():
        statuses.update(report.statuses())
    for label in derivative_conditions:
        assert statuses[label] is Status.INDETERMINATE, label


def test_determinism(base_scenario):
    a = decide(base_scenario, CFG)
    b = decide(base_scenario, CFG)
    assert a.to_dict() == b.to_dict()


def test_trace_completeness(base_scenario):
    for report in decide(base_scenario, CFG).reports.values():
        for v in report.verdicts:
            if v.status is not Status.VACUOUS:
                assert v.lhs is not None and v.parts


def test_report_json_round_trip(base_scenario):
    report = eval_condition_set(base_scenario, ConditionSet.SELLER, CFG)
    text = json.dumps(report.to_dict())
    assert json.loads(text) == report.to_dict()
    labels = [v["id"] for v in report.to_dict()["verdicts"]]
    assert labels == [f"S{i}" for i in range(1, 19)]


# --- refinement monotonicity --------------------------------------------------

def test_monotone_refinement_small():
    for i in range(12):
        full = random_determinate_scenario([4242, i])
        partial = drop_responses(full, [4242, 1000 + i], keep_fraction=0.6)
        full_statuses, partial_statuses = {}, {}
        for report in decide(full, CFG).reports.values():
            full_statuses.update(report.statuses())
        for report in decide(partial, CFG).reports.values():
            partial_statuses.update(report.statuses())
        for label, st_partial in partial_statuses.items():
            assert st_partial in (full_statuses[label], Status.INDETERMINATE), label


# --- margins ------------------------------------------------------------------

def test_margin_sign_matches_status():
    for i in range(10):
        s = random_determinate_scenario([31337, i])
        for report in decide(s, CFG).reports.values():
            for v in report.verdicts:
                if v.status is Status.VACUOUS:
                    continue
                margin = condition_margin(v, CFG)
                if v.status is Status.SATISFIED:
                    assert margin > 0, v.id.label
                elif v.status is Status.VIOLATED:
                    assert margin <= 0, v.id.label


def test_engine_matches_oracle_on_fixture_variants(fixtures_dir):
    from dismed.io import load_scenario

    for name in ("all_three_satisfied", "broker_retained", "broker_opt"):
        s = load_scenario(fixtures_dir / f"{name}.json")
        expected = oracle_statuses(s, CFG)
        got = {}
        for report in decide(s, CFG).reports.values():
            got.update({k: v.value for k, v in report.statuses().items()})
        assert got == expected, name


def test_full_link_set_keeps_every_trace_point_valued(base_scenario):
    # interval semantics degenerate to points when every link is declared
    for report in decide(base_scenario, CFG).reports.values():
        for v in report.verdicts:
            for part in v.parts:
                assert part.lhs.is_point
                if part.rhs is not None:
                    assert part.rhs.is_point


def test_piecewise_linear_link_drives_a_condition():
    # S6 needs dP_s/dP > 1; a piecewise-linear link of slope 1.5 satisfies it
    data = fixture_dict("pl_s6")
    data["responses"] = [r for r in data["responses"]
                         if not (r["driven"] == "P_s" and r["driver"] == "P")]
    data["responses"].append({
        "driven": "P_s", "driver": "P", "kind": "piecewise_linear",
        "knots": [[0.0, -5.0], [20.0, 25.0]], "context": "base"})
    s = scenario_from_dict(data)
    v = eval_condition(s, ConditionId.parse("S6"), CFG)
    assert v.status is Status.SATISFIED
    assert v.lhs.lower == pytest.approx(1.5, abs=1e-6)


# --- metamorphic relation: the buyer/seller mirror ----------------------------

_MIRROR = {"SC_b": "SC_s", "psi_b": "psi_s", "psi_bi": "psi_si", "U_ip": "U_sp", "U_iw": "U_sw"}
_MIRROR.update({seller: buyer for buyer, seller in _MIRROR.items()})


def _swap(name):
    """A symbol or "+"-bundle with every buyer/seller symbol swapped."""
    return "+".join(_MIRROR.get(n, n) for n in name.split("+"))


def mirrored(scenario):
    """The scenario with the buyer's and the seller's symbols swapped in its
    values, its overlays and the names of its links."""
    data = {_swap(k): v for k, v in scenario_to_dict(scenario).items()}
    data["overlays"] = {state: {_swap(k): v for k, v in values.items()}
                        for state, values in data.get("overlays", {}).items()}
    data["responses"] = [{**r, "driven": _swap(r["driven"]), "driver": _swap(r["driver"])}
                         for r in data.get("responses", ())]
    data["time_paths"] = [{**tp, "symbol": _swap(tp["symbol"])}
                          for tp in data.get("time_paths", ())]
    return scenario_from_dict(data)


def _trace(scenario, label):
    v = eval_condition(scenario, ConditionId.parse(label), CFG)
    return v.status, [(p.op, repr(p.lhs), repr(p.rhs), p.holds) for p in v.parts]


def test_buyer_seller_mirror_maps_b16_b19_onto_s15_s18():
    # the mirror is its own inverse, so each pair is checked both ways
    pairs = [(f"B{16 + k}", f"S{15 + k}") for k in range(4)]
    seen = set()
    for i in range(60):
        s = random_scenario([7, i])
        mirror = mirrored(s)
        for buyer, seller in pairs:
            for a, b in ((buyer, seller), (seller, buyer)):
                want = _trace(s, a)
                assert _trace(mirror, b) == want, (i, a, b)
                seen.add(want[0])
    assert {Status.SATISFIED, Status.VIOLATED} <= seen
