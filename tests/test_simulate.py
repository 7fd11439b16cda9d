"""Seeded sampling, sweep statistics, and sensitivity analysis."""

import json

import numpy as np
import pytest

from dismed import (
    ConditionId,
    DistributionSpec,
    IndeterminateAtBase,
    Marginal,
    ParseError,
    RejectionLimit,
    RunConfig,
    run_sweep,
    sample_scenarios,
    sensitivity,
    validate_scenario,
    with_values,
)
from dismed.io import scenario_from_dict
from dismed.simulate import draw_scenario

from fixture_defs import fixture_dict

CFG = RunConfig()


def bare_scenario(**value_overrides):
    data = fixture_dict("bare", value_overrides=value_overrides)
    data["responses"] = []
    return scenario_from_dict(data)


def dist(**marginals) -> DistributionSpec:
    return DistributionSpec.from_dict({"marginals": marginals})


# --- sampling -----------------------------------------------------------------

def test_point_mass_returns_copies(base_scenario):
    sample, rejections = sample_scenarios(base_scenario, dist(), n=5, seed=7)
    assert len(sample) == 5
    assert all(s == base_scenario for s in sample)
    assert rejections == 0


def test_same_seed_same_sequence():
    base = bare_scenario()
    d = dist(psi_b={"kind": "normal", "mean": 5.0, "sd": 1.0})
    a, _ = sample_scenarios(base, d, n=20, seed=42)
    b, _ = sample_scenarios(base, d, n=20, seed=42)
    assert a == b
    c, _ = sample_scenarios(base, d, n=20, seed=43)
    assert c != a


def test_uniform_commission_rejects_out_of_domain():
    base = bare_scenario()
    d = dist(c={"kind": "uniform", "lo": 0.9, "hi": 1.1})
    sample, rejections = sample_scenarios(base, d, n=50, seed=3)
    assert all(s.value("c") < 1.0 for s in sample)
    assert rejections > 0
    assert all(validate_scenario(s).ok for s in sample)


def test_rejection_limit():
    base = bare_scenario()
    d = dist(c={"kind": "uniform", "lo": 1.5, "hi": 2.0})
    with pytest.raises(RejectionLimit):
        sample_scenarios(base, d, n=1, seed=1)


def test_sampling_derives_information_total():
    base = bare_scenario()
    d = dist(I_p={"kind": "uniform", "lo": 1.0, "hi": 3.0})
    sample, rejections = sample_scenarios(base, d, n=10, seed=11)
    for s in sample:
        assert s.value("I") == pytest.approx(s.value("I_p") + s.value("I_i"))
    assert rejections == 0


def test_unknown_marginal_symbol_rejected():
    with pytest.raises(ParseError):
        dist(zeta={"kind": "point", "value": 1.0})


def test_marginal_parameter_validation():
    with pytest.raises(ParseError):
        Marginal(kind="uniform", lo=2.0, hi=1.0)
    with pytest.raises(ParseError):
        Marginal(kind="normal", mean=0.0, sd=0.0)
    with pytest.raises(ParseError):
        dist(c={"kind": "uniform", "lo": 0.1, "hi": 0.5, "value": 3.0})


# --- sweeps -------------------------------------------------------------------

def test_point_mass_sweep_rates(base_scenario):
    stats = run_sweep(base_scenario, dist(), n=10, seed=5, cfg=CFG)
    assert stats.per_set["buyer"]["satisfied_rate"] == 1.0
    assert stats.per_condition["B5"]["frequency"] == 1.0


def test_violating_point_mass_sweep():
    # swapped search costs re-anchored through the builder so the draw is valid
    data = fixture_dict("b5off", value_overrides={"psi_b": 4.9, "psi_bi": 5.0})
    flipped = scenario_from_dict(data)
    stats = run_sweep(flipped, dist(), n=8, seed=5, cfg=CFG)
    assert stats.per_set["buyer"]["satisfied_rate"] == 0.0
    assert stats.per_condition["B5"]["frequency"] == 0.0


def test_threshold_sweep_matches_replayed_draws(base_scenario):
    # rho_s ~ U(0.35, 0.85): the seller set holds exactly when rho_s > 0.6
    d = dist(rho_s={"kind": "uniform", "lo": 0.35, "hi": 0.85})
    n, seed = 400, 42
    stats = run_sweep(base_scenario, d, n=n, seed=seed, cfg=CFG)
    hits = 0
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        if rng.uniform(0.35, 0.85) > 0.6:
            hits += 1
    assert stats.per_set["seller"]["satisfied_rate"] == pytest.approx(hits / n)
    assert stats.per_set["buyer"]["satisfied_rate"] == 1.0
    assert 0.0 < stats.per_set["seller"]["satisfied_rate"] < 1.0


def test_sweep_is_byte_identical_across_runs_and_workers(base_scenario):
    d = dist(rho_s={"kind": "uniform", "lo": 0.35, "hi": 0.85})
    runs = [run_sweep(base_scenario, d, n=32, seed=9, cfg=CFG, workers=w)
            for w in (1, 1, 2, 3)]
    payloads = [json.dumps(r.to_dict(), sort_keys=False) for r in runs]
    assert len(set(payloads)) == 1


def test_sweep_rate_bounds_and_conjunction_inequality():
    # bare scenario: derivative conditions stay indeterminate, rho_s varies
    base = bare_scenario()
    d = dist(rho_s={"kind": "uniform", "lo": 0.05, "hi": 0.95},
             SC_s={"kind": "uniform", "lo": 5.0, "hi": 30.0})
    stats = run_sweep(base, d, n=120, seed=17, cfg=CFG)
    for entry in stats.per_condition.values():
        assert 0.0 <= entry["frequency"] <= 1.0
        assert 0.0 <= entry["indeterminate_rate"] <= 1.0
    assert stats.per_condition["S6"]["indeterminate_rate"] == 1.0
    for cset, prefix, count in (("buyer", "B", 19), ("broker_web", "W", 7),
                                ("seller", "S", 18)):
        rate = stats.per_set[cset]["satisfied_rate"]
        freqs = [stats.per_condition[f"{prefix}{i}"]["frequency"]
                 for i in range(1, count + 1)]
        assert rate <= min(freqs) + 1e-12


def test_sweep_embeds_recipe(base_scenario):
    stats = run_sweep(base_scenario, dist(), n=3, seed=99, cfg=CFG)
    assert stats.seed == 99 and stats.n == 3
    assert "SeedSequence" in stats.stream
    assert stats.config == CFG.to_dict()


# --- sensitivity ----------------------------------------------------------------

def test_sensitivity_b5_margin_and_flip(base_scenario):
    s = with_values(base_scenario,
                    {"psi_b": 9.0, "psi_bi": 7.0, "U_iw": 9.0, "U_ip": 4.0})
    res = sensitivity(s, ConditionId.parse("B5"), "psi_b", rel_step=0.05, cfg=CFG)
    assert res.status == "Satisfied"
    assert res.margin == pytest.approx(2.0)
    assert res.delta_to_flip == pytest.approx(-2.0, abs=1e-6)
    assert res.elasticity == pytest.approx(4.5, rel=1e-9)


def test_sensitivity_irrelevant_parameter(base_scenario):
    res = sensitivity(base_scenario, ConditionId.parse("B5"), "B_op", cfg=CFG)
    assert res.elasticity == 0.0
    assert res.delta_to_flip is None


def test_sensitivity_w3_example(base_scenario):
    s = with_values(base_scenario, {"psi_bi": 100.0, "rho_i": 0.5, "c": 0.06,
                                    "P": 300000.0, "rho_p": 0.9})
    res = sensitivity(s, ConditionId.parse("W3"), "psi_bi", rel_step=0.05, cfg=CFG)
    assert res.status == "Violated"
    assert res.margin == pytest.approx(50.0 - 16200.0)
    # straight-line re-evaluation of the W3 margin at psi_bi*(1 +/- 0.05)
    def margin(p):
        return p * 0.5 - 0.06 * 300000.0 * 0.9
    expected = ((margin(105.0) - margin(95.0)) / 2.0 / margin(100.0)) / 0.05
    assert res.elasticity == pytest.approx(expected, rel=1e-9)
    assert res.delta_to_flip is None  # not flippable within +/-50%
    assert res.margin < 0


def test_sensitivity_preconditions(base_scenario):
    bare = bare_scenario()
    with pytest.raises(IndeterminateAtBase):
        sensitivity(bare, ConditionId.parse("B8"), "psi_bi", cfg=CFG)
    vac = with_values(base_scenario, {"psi_b": 3.0, "psi_bi": 4.0})
    with pytest.raises(IndeterminateAtBase):
        sensitivity(vac, ConditionId.parse("W1"), "B_i", cfg=CFG)
    with pytest.raises(ParseError):
        sensitivity(base_scenario, ConditionId.parse("B5"), "zeta", cfg=CFG)


def test_sensitivity_flip_resolves_threshold(base_scenario):
    # S1 flips when rho_s crosses rho_p = 0.6; base rho_s = 0.7
    res = sensitivity(base_scenario, ConditionId.parse("S1"), "rho_s",
                      rel_step=0.05, cfg=CFG)
    assert res.status == "Satisfied"
    assert res.delta_to_flip == pytest.approx(-0.1, abs=1e-6)


def test_draw_scenario_deterministic(base_scenario):
    d = dist(rho_s={"kind": "uniform", "lo": 0.1, "hi": 0.9})
    a, ra = draw_scenario(base_scenario, d, seed=5, index=3)
    b, rb = draw_scenario(base_scenario, d, seed=5, index=3)
    assert a == b and ra == rb
