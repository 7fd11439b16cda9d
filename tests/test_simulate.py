"""Seeded sampling, sweep statistics, and sensitivity analysis."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dismed.simulate
from dismed import (
    ConditionId,
    DistributionSpec,
    IndeterminateAtBase,
    Marginal,
    ParseError,
    RejectionLimit,
    RunConfig,
    decide,
    run_sweep,
    sample_scenarios,
    sensitivity,
    validate_scenario,
    with_values,
)
from dismed import batch, conditions
from dismed.calculus import (
    Add,
    Axis,
    Const,
    Deriv,
    Div,
    Joint,
    MaxE,
    MinE,
    Mul,
    Sub,
    Sym,
)
from dismed.conditions import Form, Part, compile_part
from dismed.errors import DismedError
from dismed.io import scenario_from_dict
from dismed.model import (SYMBOLS, ResponseFunction, check_scenario, eval_response,
                          split_driver)
from dismed.simulate import draw_scenario

from fixture_defs import fixture_dict
from test_golden import DIGEST_CONFIGS, FIXTURES_DIR, WIDE_OVERLAYS, wide_sweep_case

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


@pytest.mark.parametrize("marginal", [
    {"kind": "uniform", "lo": "0.1", "hi": True},
    {"kind": "uniform", "lo": 0.1, "hi": True},
    {"kind": "point", "value": "3"},
    {"kind": "point", "value": [3.0]},
    {"kind": "normal", "mean": None, "sd": 1.0},
    {"kind": "normal", "mean": 1.0, "sd": math.inf},
    {"kind": "normal", "mean": math.nan, "sd": 1.0},
    {"kind": "uniform", "lo": -math.inf, "hi": 1.0},
    {"kind": "point", "value": 10 ** 400},
    {"kind": "uniform", "lo": 0.1},
    {"kind": ["uniform"], "lo": 0.1, "hi": 0.2},
])
def test_marginal_parameters_are_finite_numbers(marginal):
    with pytest.raises(ParseError):
        dist(c=marginal)


def test_marginal_constructor_rejects_non_finite_parameters():
    with pytest.raises(ParseError, match="sd"):
        Marginal(kind="normal", mean=1.0, sd=math.inf)
    with pytest.raises(ParseError, match="value"):
        Marginal(kind="point", value=math.nan)


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


@pytest.mark.parametrize("workers, n, cpus, processes, edges", [
    (3, 32, {0, 1}, 2, [0, 10, 21, 32]),
    (10_000, 40, {0, 1, 2}, 3, list(range(41))),
])
def test_sweep_starts_no_more_processes_than_usable_cpus(base_scenario, monkeypatch,
                                                          workers, n, cpus, processes, edges):
    import concurrent.futures

    pools = []

    class SerialPool:
        """Records the pool size asked for; maps in this process, so no process starts."""

        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, chunks):
            self.chunks = list(chunks)
            return map(fn, self.chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(dismed.simulate.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    d = dist(rho_s={"kind": "uniform", "lo": 0.35, "hi": 0.85})
    stats = run_sweep(base_scenario, d, n=n, seed=9, cfg=CFG, workers=workers)
    [pool] = pools
    assert pool.max_workers == processes
    assert [c[3] for c in pool.chunks] + [pool.chunks[-1][4]] == edges
    assert stats == run_sweep(base_scenario, d, n=n, seed=9, cfg=CFG, workers=1)


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


# --- the batch path -------------------------------------------------------------

# Configs of the golden outputs, plus config_quorum.json's quorum aggregation,
# alone and with guard failures excluded from it.
QUORUM = json.loads((FIXTURES_DIR / "config_quorum.json").read_text())
EQUIVALENCE_CONFIGS = [RunConfig(**overrides) for overrides in DIGEST_CONFIGS.values()] + [
    RunConfig.from_dict(QUORUM), RunConfig.from_dict(dict(QUORUM, guard_mode="skip"))]


def _piecewise(r: dict, values: dict) -> dict:
    """A three-knot piecewise-linear link through r's base point, on r's curve."""
    x0 = sum(values[p] for p in split_driver(r["driver"]))
    poly = ResponseFunction(r["driven"], r["driver"], "polynomial", tuple(r["coeffs"]))
    knots = [[x, eval_response(poly, x)] for x in (x0 - 0.75, x0 + 0.5)]
    knots.insert(1, [x0, values[r["driven"]]])
    return {"driven": r["driven"], "driver": r["driver"], "kind": "piecewise_linear",
            "knots": knots, "context": "base"}


@st.composite
def wide_distributions(draw):
    """A base with the listing-state overlays of the wide golden and 10-16
    marginals around its values. Responses touching a sampled symbol go,
    except for "tiny" marginals, which move an anchor by about the
    consistency tolerance, so that some of their draws are rejected; "I" is
    only ever tiny, next to tiny or unsampled I_p and I_i. Point masses may
    copy another symbol's value, to make ties. Some kept links become
    piecewise linear."""
    data = fixture_dict("batch_equivalence")
    values = dict(data)
    if draw(st.booleans()):
        data["overlays"] = WIDE_OVERLAYS
    names = draw(st.lists(st.sampled_from(sorted(SYMBOLS)), min_size=10, max_size=16,
                          unique=True))
    tiny = set(draw(st.lists(st.sampled_from(names), max_size=3, unique=True)))
    if "I" in names:
        names = [n for n in names if n not in ("I_p", "I_i") or n in tiny]
        tiny.add("I")
    marginals = {}
    for name in names:
        v = values[name]
        if name in tiny:
            eps = abs(v) * 10 ** draw(st.floats(-13.0, -10.0))
            marginals[name] = {"kind": "uniform", "lo": v - eps, "hi": v + eps}
            continue
        width = draw(st.floats(0.0, 0.6)) * abs(v) + 0.05
        kind = draw(st.sampled_from(("uniform", "normal", "point")))
        if kind == "uniform":
            marginals[name] = {"kind": kind, "lo": v - width, "hi": v + width}
        elif kind == "normal":
            marginals[name] = {"kind": kind, "mean": v, "sd": width}
        else:
            value = draw(st.one_of(st.sampled_from(sorted(values[k] for k in SYMBOLS)),
                                   st.floats(-1.0, 1.0).map(lambda t: v + t * width)))
            marginals[name] = {"kind": kind, "value": value}
    moved = marginals.keys() - tiny
    data["responses"] = [_piecewise(r, values) if draw(st.booleans()) else r
                         for r in data["responses"]
                         if not ({r["driven"], *split_driver(r["driver"])} & moved)]
    return scenario_from_dict(data), DistributionSpec.from_dict({"marginals": marginals})


def _scalar_codes(base, d, seed, n, cfg):
    """The scalar path's statuses, set decisions and rejections per draw."""
    statuses, decisions, rejections = [], [], []
    for i in range(n):
        sc, rej = draw_scenario(base, d, seed, i)
        reports = decide(sc, cfg).reports.values()
        statuses.append([batch.STATUSES.index(v.status) for r in reports for v in r.verdicts])
        decisions.append([batch.DECISIONS.index(r.aggregate) for r in reports])
        rejections.append(rej)
    return statuses, decisions, rejections


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_distributions(), st.integers(0, 2 ** 32 - 1), st.sampled_from(EQUIVALENCE_CONFIGS))
def test_batch_path_equals_scalar_decide_draw_by_draw(case, seed, cfg):
    base, d = case
    n = 24
    try:
        expected = _scalar_codes(base, d, seed, n, cfg)
    except DismedError:
        assume(False)  # the scalar path raises: the replay test covers that
    ev = batch.evaluate(base, d, seed, 0, n, cfg)
    assert ev is not None
    statuses, decisions, rejections = expected
    for i in range(n):
        assert ev.statuses[i].tolist() == statuses[i], i
        assert ev.decisions[i].tolist() == decisions[i], i
        assert int(ev.rejections[i]) == rejections[i], i


@pytest.mark.parametrize("ties", [
    # three-way listing-state tie, and a max-axis tie whose two sides differ
    # in their links (SC_b's psi_b link is dropped because psi_b is sampled)
    {"E_m": {"kind": "point", "value": 2.0}, "E_p": {"kind": "point", "value": 2.0},
     "psi_b": {"kind": "point", "value": 4.9}},
    # comparisons at equality: U_ip < U_iw, psi_s > psi_si, rho_s > rho_p
    {"U_ip": {"kind": "point", "value": 3.0}, "psi_s": {"kind": "point", "value": 1.9},
     "rho_s": {"kind": "point", "value": 0.6}},
])
@pytest.mark.parametrize("cfg", [CFG, RunConfig(aggregation="quorum", quorum=0.5),
                                 RunConfig(aggregation="quorum", quorum=0.75, guard_mode="skip")])
def test_batch_path_breaks_ties_as_scalar_decide(ties, cfg):
    _, wide = wide_sweep_case()
    marginals = dict({k: m.to_dict() for k, m in wide.marginals.items()}, **ties)
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text())
    data["overlays"] = WIDE_OVERLAYS
    data["responses"] = [r for r in data["responses"]
                         if not ({r["driven"], *split_driver(r["driver"])} & marginals.keys())]
    base = scenario_from_dict(data)
    d = DistributionSpec.from_dict({"marginals": marginals})
    n, seed = 60, 11
    statuses, decisions, rejections = _scalar_codes(base, d, seed, n, cfg)
    ev = batch.evaluate(base, d, seed, 0, n, cfg)
    assert ev.statuses.tolist() == statuses
    assert ev.decisions.tolist() == decisions
    assert ev.rejections.tolist() == rejections


@pytest.mark.parametrize("name", ["rho_s", "E_m", "c", "I_p", "psi_b", "I_o", "P"])
def test_batch_path_equals_scalar_decide_for_one_marginal(name):
    # every other symbol is the same plain value in every draw
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text())
    data["overlays"] = WIDE_OVERLAYS
    data["responses"] = [r for r in data["responses"]
                         if name not in {r["driven"], *split_driver(r["driver"])}]
    base = scenario_from_dict(data)
    v = data[name]
    d = dist(**{name: {"kind": "uniform", "lo": v - 0.5 * abs(v) - 0.5, "hi": v + 0.5 * abs(v)}})
    statuses, decisions, rejections = _scalar_codes(base, d, 4, 50, CFG)
    ev = batch.evaluate(base, d, 4, 0, 50, CFG)
    assert ev.statuses.tolist() == statuses
    assert ev.decisions.tolist() == decisions
    assert ev.rejections.tolist() == rejections


# Symbols the random expressions read and differentiate.
_EXPR_SYMBOLS = ("SC_b", "I_o", "P_s", "P", "rho_i", "rho_p", "U_ip", "I_p", "I_i", "pi_sb",
                 "pi_s", "psi_b", "psi_bi", "psi_sb", "psi_si", "c", "E_s")
_AXES = st.sampled_from([
    Axis.sym("psi_b"), Axis.sym("psi_bi"), Axis.sym("P"), Axis.sym("rho_p"), Axis.sym("pi_b"),
    Axis.sym("E_s"), Axis.sym("c"), Axis.bundle("U_ip", "U_iw"), Axis.bundle("U_sp", "U_sw"),
    Axis.bundle("I_p", "I_i"), Axis.max_of("E_m", "E_p", "E_s"), Axis.max_of("pi_sb", "pi_s"),
    Axis.max_of("psi_si", "psi_sb")])
_CONTEXTS = st.one_of(st.none(),
                      st.sampled_from(("E_s", "E_p", "E_m")).map(lambda n: ("state", n)),
                      st.sampled_from((("E_s", "E_p", "E_m"), ("E_s", "E_p")))
                      .map(lambda names: ("argmax", names)))


def _nodes(kids):
    some = st.lists(kids, min_size=1, max_size=3).map(tuple)
    return st.one_of(some.map(Add), some.map(MaxE), some.map(MinE),
                     st.builds(Sub, kids, kids), st.builds(Mul, kids, kids),
                     st.builds(Div, kids, kids))


_NAMES = st.sampled_from(_EXPR_SYMBOLS)
_PLAIN = st.one_of(_NAMES.map(Sym), st.builds(Joint, _NAMES, _NAMES),
                   st.sampled_from((0.0, 1.0, -2.0, 0.5)).map(Const))
_EXPRESSIONS = st.recursive(
    st.one_of(_PLAIN, st.builds(Deriv, st.recursive(_PLAIN, _nodes, max_leaves=3), _AXES,
                                st.integers(1, 3))),
    _nodes, max_leaves=6)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRESSIONS, _CONTEXTS, st.sampled_from(("product", "min")),
       st.lists(st.sampled_from(_EXPR_SYMBOLS + ("E_p", "E_m", "U_iw")), min_size=1,
                max_size=6, unique=True),
       st.integers(0, 300), st.integers(0, 2 ** 32 - 1))
def test_array_algebra_equals_scalar_on_arbitrary_expressions(expr, ctx, intersection,
                                                              varying, magnitude, seed):
    # Each draw of a block equals the scalar value on that draw's scenario, and
    # neither raises nor gives a NaN endpoint: values reach 10 ** magnitude,
    # and some are 0, so products overflow and divisor intervals hold 0.
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text())
    data["overlays"] = WIDE_OVERLAYS
    base = scenario_from_dict(data)
    cfg = RunConfig(intersection=intersection)
    part = Part("expression", "gt", expr, lhs_ctx=ctx)
    lhs = compile_part(part, cfg)[0]
    n, rng = 5, np.random.default_rng(seed)
    X = np.tile(np.array(base.values), (n, 1))
    for name in varying:
        k = SYMBOLS[name]
        if name.startswith("E_"):
            X[:, k] = rng.choice((0.0, 1.0, 2.0), n)  # ties, too
            continue
        X[:, k] = ((X[:, k] * rng.uniform(0.5, 1.5, n) + rng.uniform(-0.1, 0.1, n))
                   * 10.0 ** rng.integers(0, magnitude + 1, n))
        X[rng.random(n) < 0.2, k] = 0.0
    expected = []
    for row in X.tolist():
        s = with_values(base, {name: row[SYMBOLS[name]] for name in varying})
        expected.append(lhs(s, None))
    assert all(x == x for interval in expected for x in interval), expected
    with np.errstate(all="ignore"):
        lo, hi = lhs(batch.block(base, X, varying), None)
    got = list(zip(np.broadcast_to(lo, n).tolist(), np.broadcast_to(hi, n).tolist()))
    assert got == expected


def test_rejection_limit_raises_the_scalar_error():
    base = bare_scenario()
    d = dist(c={"kind": "uniform", "lo": 1.5, "hi": 2.0})
    with pytest.raises(RejectionLimit) as scalar:
        draw_scenario(base, d, 8, 0)
    with pytest.raises(RejectionLimit) as batched:
        batch.evaluate(base, d, 8, 0, 4, CFG)
    with pytest.raises(RejectionLimit) as swept:
        run_sweep(base, d, n=4, seed=8, cfg=CFG)
    assert str(batched.value) == str(swept.value) == str(scalar.value)


def test_rejection_limit_names_the_first_draw_over_budget():
    # c < 1 in 7 of 10,000 candidates, so about half the draws use up their
    # budget: the first that does is neither the block's first nor its last
    base = bare_scenario()
    d = dist(c={"kind": "uniform", "lo": 0.9993, "hi": 1.9993})
    seed, start, stop = 0, 3, 9
    first = None
    for i in range(start, stop):
        try:
            draw_scenario(base, d, seed, i)
        except RejectionLimit as exc:
            first = i, str(exc)
            break
    assert first is not None and start < first[0] < stop - 1
    with pytest.raises(RejectionLimit) as batched:
        batch.evaluate(base, d, seed, start, stop, CFG)
    assert str(batched.value) == first[1]


def test_zero_divisor_is_unknown_per_draw(monkeypatch):
    # 1 / max(E_m, d SC_b/d max(psi_bi, psi_b)): where psi_b wins the
    # derivative is unknown, so the divisor is [E_m, inf], which holds 0 when
    # E_m <= 0; the quotient, and with it B5, is unknown in those draws only.
    divisor = MaxE((Sym("E_m"), Deriv(Sym("SC_b"), Axis.max_of("psi_bi", "psi_b"), 1)))
    form = Form(None, (Part("1 / divisor > 0", "gt", Div(Const(1.0), divisor), Const(0.0)),))
    monkeypatch.setitem(conditions._FORMS, "B5", form)
    cfg = RunConfig(rel_tol=0.0390625)  # compiled by no other test
    base, _ = wide_sweep_case()
    d = dist(psi_b={"kind": "uniform", "lo": 4.7, "hi": 5.2},
             E_m={"kind": "uniform", "lo": -0.5, "hi": 0.8})
    seed, n = 3, 40
    statuses, decisions, _ = _scalar_codes(base, d, seed, n, cfg)
    b5 = [row[4] for row in statuses]
    assert 0 < b5.count(batch.INDETERMINATE) < n and b5.count(batch.SATISFIED) > 0
    stats = run_sweep(base, d, n=n, seed=seed, cfg=cfg)
    for k, cid in enumerate(dismed.ALL_CONDITION_IDS):
        column = [row[k] for row in statuses]
        assert stats.per_condition[cid.label] == {
            "frequency": (column.count(batch.SATISFIED) + column.count(batch.VACUOUS)) / n,
            "indeterminate_rate": column.count(batch.INDETERMINATE) / n}
    for k, cset in enumerate(("buyer", "broker_web", "seller")):
        column = [row[k] for row in decisions]
        assert stats.per_set[cset] == {
            "satisfied_rate": column.count(batch.SET_SATISFIED) / n,
            "indeterminate_rate": column.count(batch.SET_INDETERMINATE) / n}


# The block check: the rows a block keeps are the rows validate_scenario
# accepts. The bases carry polynomial and piecewise links, an I(B_b) link of
# each kind and overlays that set information symbols; row values sit at the
# model's bounds or one ulp past them, on, near or off the information
# identity, or are not finite.
def _block_base(keep_fixture_links, information_link):
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text())
    data["overlays"] = dict(WIDE_OVERLAYS, E_p={**WIDE_OVERLAYS["E_p"], "I": 7.0, "I_i": 5.0})
    if not keep_fixture_links:
        data["responses"] = [r for r in data["responses"]
                             if (r["driven"], r["driver"]) == ("I_o", "U_a")]
    data["responses"] += [
        information_link,
        {"driven": "RC_br", "driver": "psi_b", "kind": "piecewise_linear",
         "knots": [[4.0, 0.5], [5.0, 1.0], [7.0, 1.5]], "context": "base"}]
    return scenario_from_dict(data)


_BLOCK_BASES = (
    _block_base(True, {"driven": "I", "driver": "B_b", "kind": "polynomial",
                       "coeffs": [6.56, 1.0, 1.0], "context": "base"}),
    # I(B_b) has a convex kink at the base B_b = 0.3 and is straight elsewhere
    _block_base(False, {"driven": "I", "driver": "B_b", "kind": "piecewise_linear",
                        "knots": [[0.2, 6.85], [0.3, 6.95], [0.4, 7.15]], "context": "base"}),
)
_BOUNDS = {"P": (0.0, -0.0, 5e-324, -5e-324), "P_b": (0.0, 5e-324, -1.0),
           "c": (0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)),
           **{name: (0.0, 1.0, -5e-324, math.nextafter(1.0, 2.0))
              for name in ("rho_p", "rho_i", "rho_s")}}
_BLOCK_SYMBOLS = ("P", "P_b", "c", "rho_p", "rho_i", "rho_s", "I", "I_p", "I_i", "I_o",
                  "B_b", "psi_b", "U_a", "E_s")


@st.composite
def _block_case(draw):
    base = draw(st.sampled_from(_BLOCK_BASES))
    varying = draw(st.lists(st.sampled_from(_BLOCK_SYMBOLS), min_size=1, max_size=4,
                            unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = dict(zip(SYMBOLS, base.values))
        for name in varying:
            v = row[name]
            row[name] = draw(st.one_of(  # the base value in about 2 of 5 rows
                st.just(v), st.just(v),
                st.sampled_from((math.inf, -math.inf, math.nan, *_BOUNDS.get(name, ()))),
                st.floats(0.5 * v - 1.0, 1.5 * v + 1.0), st.floats()))
        if "I_o" in varying and draw(st.booleans()):
            row["I_o"] = row["I_i"]
        if "I" in varying and draw(st.booleans()):
            row["I"] = (row["I_p"] + row["I_i"]) * draw(
                st.sampled_from((1.0, 1.0 + 1e-13, 1.0 - 2e-13, 1.0 + 4e-13, 1.0 - 1e-12,
                                 1.0 + 1e-12)))
        rows.append(row)
    X = np.array([[row[name] for name in SYMBOLS] for row in rows])
    return base, X, varying


@settings(max_examples=300, deadline=None)
@given(_block_case())
def test_block_check_equals_row_check(case):
    base, X, varying = case
    expected = [validate_scenario(with_values(base, {name: row[SYMBOLS[name]]
                                                    for name in varying})).ok
                for row in X.tolist()]
    with np.errstate(all="ignore"):
        got = batch._valid_rows(batch.block(base, X, varying), len(X), check_scenario)
    assert got.tolist() == expected


def test_block_check_rejects_every_row_of_a_structurally_invalid_base():
    base = _BLOCK_BASES[1]
    invalid = dataclasses.replace(base, responses=base.responses + base.responses[:1])
    X = np.tile(np.array(base.values), (3, 1))
    X[:, SYMBOLS["rho_s"]] = (0.2, 0.5, 0.9)
    rows = [with_values(invalid, {"rho_s": v}) for v in (0.2, 0.5, 0.9)]
    assert [validate_scenario(s).codes() for s in rows] == [("ResponseDuplicate",)] * 3
    assert batch._valid_rows(batch.block(invalid, X, ["rho_s"]), len(X),
                             check_scenario) is None
    d = dist(rho_s={"kind": "uniform", "lo": 0.2, "hi": 0.9})
    with pytest.raises(RejectionLimit) as batched:
        batch.evaluate(invalid, d, 2, 0, 3, CFG)
    with pytest.raises(RejectionLimit) as scalar:
        draw_scenario(invalid, d, 2, 0)
    with pytest.raises(RejectionLimit) as swept:
        run_sweep(invalid, d, n=3, seed=2, cfg=CFG)
    assert str(batched.value) == str(swept.value) == str(scalar.value)
