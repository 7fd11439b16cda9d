"""Broker objective, pattern search, and the epsilon-constraint frontier."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismed import (
    Bounds,
    DecisionVector,
    MissingCapitalResponse,
    OptimizerConfig,
    optimize_broker,
    pareto_sweep,
)
from dismed import optimizer
from dismed.errors import ParseError
from dismed.optimizer import evaluate_capital, filter_nondominated, is_feasible
from dismed.io import scenario_from_dict
from dismed.model import MAX_POLY_DEGREE, STATE_NAMES, ResponseFunction, with_values

import oracle
from fixture_defs import fixture_dict
from oracle import (oracle_capital, oracle_feasible, oracle_objective,
                    oracle_pattern_search)
from scen_gen import random_opt_instance


def capital_scenario(responses, **value_overrides):
    data = fixture_dict("opt", value_overrides=value_overrides)
    data["responses"] = responses
    return scenario_from_dict(data)


def const_response(driven, driver, value):
    return {"driven": driven, "driver": driver, "kind": "polynomial",
            "coeffs": [value], "context": "base"}


def quad_response(driven, driver, c0, c1, c2):
    return {"driven": driven, "driver": driver, "kind": "polynomial",
            "coeffs": [c0, c1, c2], "context": "base"}


def decision(B_b=0.0, B_s=0.0, B_i=0.0, B_n=0.0, state="E_m"):
    return DecisionVector(B_b=B_b, B_s=B_s, B_i=B_i, B_n=B_n, state=state)


def solve_objective(s, d, mode="combined", weights=(1.0, 1.0)):
    """The objective a solve maximizes, at ``d``: under the argmin
    listing-state overlay, -inf where ``d`` is not feasible."""
    objective = optimizer._compile_solve(s, optimizer.argmin_state(s))[3]
    return objective(*optimizer._weights(mode, weights))(optimizer._point(d))


def test_objective_with_constant_capital_links():
    s = capital_scenario(
        [const_response("SC_br", "B_i", 3.0), const_response("RC_br", "B_i", 2.0)],
        SC_br=3.0, RC_br=2.0)
    d = decision(B_b=1.0, B_s=1.0, B_i=0.5, B_n=0.5)
    # capital 5 minus cost 3
    assert solve_objective(s, d, "combined") == pytest.approx(2.0)


def test_weighted_unit_weights_equal_combined():
    s = capital_scenario(
        [const_response("SC_br", "B_i", 3.0), const_response("RC_br", "B_i", 2.0)],
        SC_br=3.0, RC_br=2.0)
    d = decision(B_b=1.0, B_s=1.0, B_i=0.5, B_n=0.5)
    assert solve_objective(s, d, "weighted", (1.0, 1.0)) == \
        pytest.approx(solve_objective(s, d, "combined"))


def test_objective_with_declared_quadratic():
    # RC_br(B_i) = 4*B_i - B_i^2 anchored at B_i = 1, SC_br flat at zero
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 4.0, -1.0)],
                         B_i=1.0, RC_br=3.0, SC_br=0.0,
                         B_b=0.0, B_s=0.0, B_n=0.0)
    d = decision(B_i=1.0)
    assert solve_objective(s, d, "combined") == pytest.approx(2.0)  # 3 - 1


def test_missing_capital_response():
    data = fixture_dict("nocap")
    data["responses"] = []
    s = scenario_from_dict(data)
    with pytest.raises(MissingCapitalResponse):
        solve_objective(s, decision(B_i=1.0))
    with pytest.raises(MissingCapitalResponse):
        optimize_broker(s, Bounds(B_b=(0, 1), B_s=(0, 1), B_i=(0, 1), B_n=(0, 1)))


def test_optimize_recovers_quadratic_vertex():
    # combined objective 3*B_i - B_i^2 peaks at 1.5 with value 2.25
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 4.0, -1.0)],
                         B_i=1.0, RC_br=3.0, SC_br=0.0)
    bounds = Bounds(B_b=(0, 0), B_s=(0, 0), B_i=(0, 3), B_n=(0, 0))
    res = optimize_broker(s, bounds)
    assert res.feasible
    assert res.decision.B_i == pytest.approx(1.5, abs=1e-4)
    assert res.objective == pytest.approx(2.25, abs=1e-6)


def test_optimize_broker_opt_fixture(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds(B_b=(0, 0), B_s=(0, 0), B_i=(0, 3), B_n=(0, 0))
    res = optimize_broker(s, bounds)
    assert res.feasible
    assert res.decision.B_i == pytest.approx(2.0, abs=1e-4)
    assert res.decision.state == "E_m"  # smallest listing-state value
    assert is_feasible(s, res.decision, "E_m")


def test_infeasible_box_is_reported_not_raised(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds(B_b=(4, 5), B_s=(4, 5), B_i=(4, 5), B_n=(0, 1))
    res = optimize_broker(s, bounds)
    assert not res.feasible and res.decision is None and res.objective is None


def test_constraint_respected_when_binding():
    # capital rises steeply in B_i, so the coverage constraint binds: cP = 3
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 10.0, 0.0)],
                         B_i=0.0, RC_br=0.0, SC_br=0.0)
    bounds = Bounds(B_b=(0, 0), B_s=(0, 0), B_i=(0, 10), B_n=(0, 0))
    res = optimize_broker(s, bounds)
    assert res.feasible
    cp = s.value("c") * s.value("P")
    assert cp > max(0.0, res.decision.B_b + res.decision.B_s + res.decision.B_i)
    assert res.decision.B_i == pytest.approx(cp, rel=1e-6)


def test_argmin_state_overlay_conditions_the_objective():
    data = fixture_dict("ov", value_overrides={"RC_br": 1.0})
    data["responses"] = [quad_response("RC_br", "B_i", 1.0 - 2.0 * 1.5, 2.0, 0.0)]
    data["overlays"] = {"E_m": {"RC_br": 5.0}}  # E_m is the argmin state
    s = scenario_from_dict(data)
    d = decision(B_i=1.5)
    # capital = overlay base 5.0 + (f(1.5) - f(1.5)) + SC base 1.5; cost 1.5
    assert solve_objective(s, d) == pytest.approx(5.0 + 1.5 - 1.5)


def test_pattern_search_beats_grid_on_random_instances():
    wins = 0
    trials = 12
    for i in range(trials):
        scenario, bounds, free_vars, straight, grid = random_opt_instance([555, i])
        res = optimize_broker(scenario, bounds, OptimizerConfig(restarts=6, seed=i))
        assert res.feasible
        grid_cost, grid_capital = grid(200)
        best = float(np.max(grid_capital - grid_cost))
        if res.objective >= best - 1e-3 * abs(best):
            wins += 1
    assert wins >= trials - 1


# --- pareto -------------------------------------------------------------------

def test_constant_capital_gives_single_min_cost_point():
    s = capital_scenario([const_response("RC_br", "B_i", 1.0),
                          const_response("SC_br", "B_i", 1.5)],
                         RC_br=1.0, SC_br=1.5)
    bounds = Bounds(B_b=(0, 1), B_s=(0, 1), B_i=(0, 1), B_n=(0, 1))
    frontier = pareto_sweep(s, bounds, k=7)
    assert len(frontier) == 1
    assert frontier[0].cost == pytest.approx(0.0)


def test_increasing_concave_capital_frontier():
    # RC(B_i) = 5*B_i - B_i^2 is increasing on [0, 2]
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 5.0, -1.0)],
                         B_i=1.0, RC_br=4.0, SC_br=0.0)
    bounds = Bounds(B_b=(0, 0), B_s=(0, 0), B_i=(0, 2), B_n=(0, 0))
    frontier = pareto_sweep(s, bounds, k=9)
    assert len(frontier) >= 5
    costs = [p.cost for p in frontier]
    capitals = [p.capital for p in frontier]
    assert costs == sorted(costs)
    assert all(b > a for a, b in zip(capitals, capitals[1:]))
    # k=2 endpoints: pure min-cost and pure max-capital solutions
    ends = pareto_sweep(s, bounds, k=2)
    assert ends[0].cost == pytest.approx(0.0, abs=1e-9)
    assert ends[-1].capital == pytest.approx(6.0, abs=1e-3)  # RC(2) + SC 0 = 6


def test_frontier_is_mutually_nondominated():
    for i in range(6):
        scenario, bounds, _, _, _ = random_opt_instance([909, i], concave=True)
        frontier = pareto_sweep(scenario, bounds, k=8,
                                cfg=OptimizerConfig(restarts=4, seed=i))
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (b.cost <= a.cost and b.capital >= a.capital
                             and (b.cost < a.cost or b.capital > a.capital))
                assert not dominates


@pytest.mark.parametrize("i", range(12))
def test_every_frontier_point_is_boxed_feasible_capped_and_nondominated(i):
    # The eps levels run from the cheapest corner to the dearest cost the box
    # and the commission budget c*P (less its slack) allow, so every point
    # lies in that range, up to the eps test's own tolerance.
    scenario, bounds, _, _, _ = random_opt_instance([7301, i], concave=i % 3 == 0)
    frontier = pareto_sweep(scenario, bounds, k=3 + i % 5,
                            cfg=OptimizerConfig(restarts=2 + i % 3, seed=i))
    assert frontier
    lows, highs = bounds.lows, bounds.highs
    ctx = optimizer.argmin_state(scenario)
    cp = scenario.value("c", ctx) * scenario.value("P", ctx)
    room = cp - optimizer.FEASIBILITY_SLACK * max(1.0, abs(cp))
    cost_min = 0.0 + lows[0] + lows[1] + lows[2] + lows[3]
    cost_max = highs[3] + min(highs[0] + highs[1] + highs[2], room)
    for p in frontier:
        x = optimizer._point(p.decision)
        assert all(lo <= v <= hi for lo, v, hi in zip(lows, x, highs)), x
        assert is_feasible(scenario, p.decision, p.decision.state), x
        assert cost_min <= p.cost <= cost_max + 1e-12 * max(1.0, abs(cost_max)), x
        for q in frontier:
            assert not (q.cost <= p.cost and q.capital >= p.capital
                        and (q.cost < p.cost or q.capital > p.capital)), (x, q)


def test_infeasible_box_gives_empty_frontier(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds(B_b=(4, 5), B_s=(4, 5), B_i=(4, 5), B_n=(0, 1))
    assert pareto_sweep(s, bounds, k=5) == []


def test_filter_nondominated_drops_duplicates_and_dominated():
    from dismed.optimizer import ParetoPoint

    d = decision()
    pts = [ParetoPoint(1.0, 5.0, d), ParetoPoint(1.0, 5.0, d),
           ParetoPoint(0.5, 5.0, d), ParetoPoint(2.0, 4.0, d),
           ParetoPoint(3.0, 6.0, d)]
    kept = filter_nondominated(pts)
    assert [(p.cost, p.capital) for p in kept] == [(0.5, 5.0), (3.0, 6.0)]


def test_weighted_optimum_sits_on_the_frontier():
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 5.0, -1.0)],
                         B_i=1.0, RC_br=4.0, SC_br=0.0)
    bounds = Bounds(B_b=(0, 0), B_s=(0, 0), B_i=(0, 2), B_n=(0, 0))
    res = optimize_broker(s, bounds, OptimizerConfig(mode="weighted",
                                                     weights=(1.0, 2.0)))
    frontier = pareto_sweep(s, bounds, k=21)
    from dismed.optimizer import evaluate_capital

    w_cost = res.decision.cost
    w_capital = evaluate_capital(s, res.decision, "E_m")
    for p in frontier:
        gain = min(w_cost - p.cost, p.capital - w_capital)
        assert gain <= 1e-3  # nothing dominates the weighted optimum by > tol


def test_pareto_requires_two_points(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    with pytest.raises(ValueError):
        pareto_sweep(s, Bounds(B_b=(0, 1), B_s=(0, 1), B_i=(0, 1), B_n=(0, 1)), k=1)


def test_weighted_mode_hand_check():
    s = capital_scenario([quad_response("RC_br", "B_i", 0.0, 4.0, -1.0)],
                         B_i=1.0, RC_br=3.0, SC_br=0.5)
    d = decision(B_i=1.0, B_n=0.5)
    # capital = (4 - 1) + 0.5 = 3.5; cost = 1.5; weights (2, 3)
    assert solve_objective(s, d, "weighted", (2.0, 3.0)) == \
        pytest.approx(2.0 * 3.5 - 3.0 * 1.5)


def test_free_widths_may_differ_by_max_width_ratio_only():
    ratio = optimizer.MAX_WIDTH_RATIO
    Bounds(B_b=(0, 1), B_s=(5, 5), B_i=(-1, ratio / 2 - 1), B_n=(0, 0.5))  # B_s is pinned
    with pytest.raises(ParseError, match="B_i is .* wide and B_n 0.5"):
        Bounds(B_b=(0, 1), B_s=(5, 5), B_i=(-1, ratio / 2), B_n=(0, 0.5))
    with pytest.raises(ParseError, match="factor of at most 1000"):
        Bounds(B_b=(0, 1), B_s=(0, 0), B_i=(0, math.nextafter(ratio, math.inf)), B_n=(0, 0))


def test_degenerate_box_returns_the_single_point(fixtures_dir):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds(B_b=(0.1, 0.1), B_s=(0.1, 0.1), B_i=(1.0, 1.0), B_n=(0.2, 0.2))
    res = optimize_broker(s, bounds)
    assert res.feasible
    assert (res.decision.B_b, res.decision.B_i) == (0.1, 1.0)
    frontier = pareto_sweep(s, bounds, k=3)
    assert len(frontier) == 1 and frontier[0].cost == pytest.approx(1.4)


# --- every optimize/pareto payload, pinned ------------------------------------

# sha256 over the payloads of test_every_solve_is_pinned, computed before the
# objective was compiled once per solve; the digest may not move with it.
SOLVES_SHA256 = "a765480db95f788d8026c77bbc02790819efce5a55dfeed6d3371c13af65c551"


def test_every_solve_is_pinned(fixtures_dir):
    import hashlib
    import json

    from dismed.io import load_scenario

    digest = hashlib.sha256()

    def pin(label, payload):
        digest.update(f"{label} {json.dumps(payload)}\n".encode())

    opt = load_scenario(fixtures_dir / "broker_opt.json")
    for name in ("bounds_bi", "bounds_infeasible"):
        bounds = Bounds.from_dict(json.loads((fixtures_dir / f"{name}.json").read_text()))
        pin(name, optimize_broker(opt, bounds).to_dict())
        pin(name, [p.to_dict() for p in pareto_sweep(opt, bounds, k=5)])
    for i in range(24):
        for concave in (False, True):
            scenario, bounds, _, _, _ = random_opt_instance([4242, i], concave=concave)
            for cfg in (OptimizerConfig(restarts=2, seed=i),
                        OptimizerConfig(mode="weighted", weights=(0.5 + i / 8, 1.25),
                                        restarts=2, seed=i)):
                pin(f"{i} {concave}", optimize_broker(scenario, bounds, cfg).to_dict())
            frontier = pareto_sweep(scenario, bounds, k=5,
                                    cfg=OptimizerConfig(restarts=1, seed=i))
            pin(f"{i} {concave}", [p.to_dict() for p in frontier])
    assert digest.hexdigest() == SOLVES_SHA256


# sha256 over the CSV renderings of the same solves and frontiers, computed
# while the restart points were numpy float64 scalars; the float restart
# stream may not move it.
SOLVES_CSV_SHA256 = "a5fa4459f7b50cd2d9705cc4250d13ba7f9e0c7398c48b81cbfe263c521ddb2d"


def _pinned_solves(fixtures_dir):
    """(label, result) for every solve and frontier of test_every_solve_is_pinned."""
    import json

    from dismed.io import load_scenario

    opt = load_scenario(fixtures_dir / "broker_opt.json")
    for name in ("bounds_bi", "bounds_infeasible"):
        bounds = Bounds.from_dict(json.loads((fixtures_dir / f"{name}.json").read_text()))
        yield name, optimize_broker(opt, bounds)
        yield name, pareto_sweep(opt, bounds, k=5)
    for i in range(24):
        for concave in (False, True):
            scenario, bounds, _, _, _ = random_opt_instance([4242, i], concave=concave)
            for cfg in (OptimizerConfig(restarts=2, seed=i),
                        OptimizerConfig(mode="weighted", weights=(0.5 + i / 8, 1.25),
                                        restarts=2, seed=i)):
                yield f"{i} {concave}", optimize_broker(scenario, bounds, cfg)
            yield f"{i} {concave}", pareto_sweep(scenario, bounds, k=5,
                                                 cfg=OptimizerConfig(restarts=1, seed=i))


def test_every_solve_renders_pinned_csv(fixtures_dir):
    import hashlib

    from dismed.cli import render_report

    digest = hashlib.sha256()
    for label, result in _pinned_solves(fixtures_dir):
        digest.update(f"{label} {render_report(result, 'csv', os.devnull)}\n".encode())
    assert digest.hexdigest() == SOLVES_CSV_SHA256


# --- the compiled objective against its per-call oracle -----------------------

_OPT_BASE = scenario_from_dict(fixture_dict("opt"))
_CONTEXTS = ("base", *STATE_NAMES)
_SMALL = st.floats(-5.0, 5.0)


@st.composite
def _link(draw, driven, driver, context):
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                               max_size=MAX_POLY_DEGREE + 1))
        return ResponseFunction(driven, driver, "polynomial", coeffs=tuple(coeffs),
                                context=context)
    xs = sorted(draw(st.lists(st.floats(-4.0, 8.0), min_size=1, max_size=4, unique=True)))
    knots = tuple((x, draw(st.floats(-10.0, 10.0))) for x in xs)
    return ResponseFunction(driven, driver, "piecewise_linear", knots=knots, context=context)


@st.composite
def _capital_case(draw):
    """A scenario whose capital symbols link to the decision fields (one
    symbol, both, or neither) in base and listing-state contexts, with
    overlays, ties among the listing states and budgets of either sign;
    and a decision point in a box, its edges included."""
    values = {name: draw(_SMALL) for name in ("SC_br", "RC_br", *optimizer.DECISION_FIELDS)}
    values.update({name: draw(st.sampled_from((0.25, 0.5, 0.75))) for name in STATE_NAMES})
    values["c"] = draw(st.floats(0.01, 0.99))
    values["P"] = draw(st.floats(-20.0, 20.0))
    overlays = {state: draw(st.dictionaries(
        st.sampled_from(("SC_br", "RC_br", "c", "P", *optimizer.DECISION_FIELDS)),
        st.floats(-20.0, 20.0), max_size=4)) for state in STATE_NAMES}
    responses = []
    for sym in draw(st.sampled_from(((), ("SC_br",), ("RC_br",), ("SC_br", "RC_br")))):
        drivers = draw(st.sets(st.sampled_from(optimizer.DECISION_FIELDS), min_size=1))
        for drv in sorted(drivers):
            for ctx in sorted(draw(st.sets(st.sampled_from(_CONTEXTS), min_size=1, max_size=2))):
                responses.append(draw(_link(sym, drv, ctx)))
    s = with_values(_OPT_BASE, values).replace(responses=tuple(responses), overlays=overlays)
    ctx = draw(st.sampled_from((None, *STATE_NAMES)))
    point = []
    for _ in optimizer.DECISION_FIELDS:
        lo = draw(st.floats(-2.0, 6.0))
        hi = lo + draw(st.floats(0.0, 4.0))
        point.append(draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))))
    if draw(st.booleans()):  # B_i a few ulps from the edge of the budget
        cp = s.value("c", ctx) * s.value("P", ctx)
        b_i = cp - optimizer.FEASIBILITY_SLACK * max(1.0, abs(cp)) - point[0] - point[1]
        for _ in range(draw(st.integers(0, 3))):
            b_i = math.nextafter(b_i, draw(st.sampled_from((-math.inf, math.inf))))
        point[2] = b_i
    weights = (draw(_SMALL), draw(_SMALL))
    return s, DecisionVector(*point, state="E_m"), weights, ctx


def _outcome(fn, *args):
    """The exact bits of ``fn(*args)``, or the missing-link error."""
    try:
        return repr(fn(*args))
    except MissingCapitalResponse:
        return "MissingCapitalResponse"


@settings(max_examples=400, deadline=None)
@given(_capital_case())
def test_compiled_objective_equals_the_per_call_oracle(case):
    s, d, weights, ctx = case
    x = [d.B_b, d.B_s, d.B_i, d.B_n]
    feasible, capital, _, objective = optimizer._compile_solve(s, ctx)
    want = oracle_feasible(s, d, ctx)
    assert feasible(x) is want and is_feasible(s, d, ctx) is want
    want = _outcome(oracle_capital, s, d, ctx)
    assert _outcome(capital, x) == want
    assert _outcome(evaluate_capital, s, d, ctx) == want
    solve_ctx = optimizer.argmin_state(s)
    for mode, w in (("combined", (1.0, 1.0)), ("weighted", weights)):
        want = (_outcome(oracle_objective, s, d, mode, w)
                if oracle_feasible(s, d, solve_ctx) else repr(-math.inf))
        assert _outcome(solve_objective, s, d, mode, w) == want
        w_capital, w_cost = optimizer._weights(mode, w)

        def per_part(x):
            if not feasible(x):
                return -math.inf
            return w_capital * capital(x) - w_cost * (x[0] + x[1] + x[2] + x[3])

        assert _outcome(objective(w_capital, w_cost), x) == _outcome(per_part, x)


def test_a_solve_evaluates_each_link_once_at_its_base_point(fixtures_dir, monkeypatch):
    import json

    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds.from_dict(json.loads((fixtures_dir / "bounds_bi.json").read_text()))
    ctx = optimizer.argmin_state(s)
    links = sum(s.response_for(sym, drv, ctx) is not None
                for sym in optimizer.CAPITAL_SYMBOLS for drv in optimizer.DECISION_FIELDS)
    calls = []
    real = optimizer.eval_response

    def counted(r, x):
        calls.append(x)
        return real(r, x)

    monkeypatch.setattr(optimizer, "eval_response", counted)
    res = optimize_broker(s, bounds)
    assert links >= 1 and res.iterations > 100
    assert len(calls) == links  # the trial points run the compiled links
    calls.clear()
    assert len(pareto_sweep(s, bounds, k=5)) >= 1
    assert len(calls) == links


def test_pareto_levels_are_bounded_before_any_search(fixtures_dir, monkeypatch):
    from dismed.io import load_scenario

    s = load_scenario(fixtures_dir / "broker_opt.json")
    bounds = Bounds(B_b=(0, 1), B_s=(0, 1), B_i=(0, 1), B_n=(0, 1))
    searched = []

    def no_search(f, ok, lows, highs, cfg, stream):
        searched.append(stream)
        return None, -math.inf, 0

    monkeypatch.setattr(optimizer, "_best_of_restarts", no_search)
    assert pareto_sweep(s, bounds, k=optimizer.MAX_PARETO_POINTS) == []
    assert searched == list(range(1, optimizer.MAX_PARETO_POINTS + 1))
    searched.clear()
    with pytest.raises(ValueError, match="k must be in"):
        pareto_sweep(s, bounds, k=optimizer.MAX_PARETO_POINTS + 1)
    assert searched == []


def test_missing_capital_response_surfaces_before_any_search(monkeypatch):
    data = fixture_dict("nocap")
    data["responses"] = []
    s = scenario_from_dict(data)
    bounds = Bounds(B_b=(0, 1), B_s=(0, 1), B_i=(0, 1), B_n=(0, 1))

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimizer, "_pattern_search", no_search)
    for cfg in (OptimizerConfig(), OptimizerConfig(mode="weighted", weights=(2.0, 0.5))):
        with pytest.raises(MissingCapitalResponse):
            optimize_broker(s, bounds, cfg)


# --- the pattern search against its builtin-clipping oracle -------------------

_EDGE = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-10.0, 10.0),
                  st.floats(-5e299, 5e299))


@st.composite
def _search_case(draw):
    """A box of 1-4 dimensions (degenerate ones, signed-zero edges and
    widths up to 1e300 among them), a start that may lie outside it, and an
    objective that is -inf on part of the box."""
    lows, highs, x0, targets = [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(_EDGE)
        b = a if draw(st.integers(0, 3)) == 0 else draw(_EDGE)
        lo, hi = (a, b) if a <= b else (b, a)
        inside = st.sampled_from((lo, hi)) if lo == hi else st.floats(lo, hi)
        lows.append(lo)
        highs.append(hi)
        x0.append(draw(st.one_of(st.sampled_from((lo, hi, 0.0, -0.0)), inside,
                                 st.floats(-1e300, 1e300))))
        targets.append(draw(inside))
    n = len(lows)
    kind = draw(st.sampled_from(("linear", "abs", "square", "flat")))
    coeffs = [draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    cut = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.floats(-1e300, 1e300)))

    def f(x):
        if cut is not None and x[cut[0]] + x[cut[1]] > cut[2]:
            return -math.inf
        if kind == "linear":
            return sum(c * v for c, v in zip(coeffs, x))
        if kind == "abs":
            return -sum(abs(c) * abs(v - t) for c, v, t in zip(coeffs, x, targets))
        if kind == "square":
            return -sum(abs(c) * (v - t) * (v - t) for c, v, t in zip(coeffs, x, targets))
        return 1.0

    return f, lows, highs, x0


def _traced(f, log):
    def traced(x):
        log.append(tuple(v.hex() for v in x))
        return f(x)
    return traced


@settings(max_examples=300, deadline=None)
@given(_search_case())
def test_pattern_search_equals_its_builtin_clipping_oracle(case):
    f, lows, highs, x0 = case
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        # a subnormal width, or widths far apart, can run a search to the
        # cap; both searches stop at the same smaller one
        mp.setattr(optimizer, "MAX_ITER", 300)
        mp.setattr(oracle, "MAX_ITER", 300)
        for search in (optimizer._pattern_search, oracle_pattern_search):
            log = []
            x, fx, iterations = search(_traced(f, log), tuple(lows), tuple(highs), list(x0))
            runs.append(([v.hex() for v in x], repr(fx), iterations, log))
    assert runs[0] == runs[1]


# --- restarts that share their checkpoints, against a plain loop ---------------

_SUBNORMAL_WIDTHS = (5e-324, 1.5e-323, 2.5e-310)


@st.composite
def _restart_case(draw):
    """An objective, a box and a restart plan for ``_best_of_restarts``.

    Coordinates may be fixed at -0.0 (the low corner holds -0.0 there, and a
    restart ``lo + u * 0.0`` holds 0.0), fixed elsewhere, free with a
    subnormal width (steps that round to 0) or free with a normal one. The
    objective may read the sign of a zero, and a small ``MAX_ITER`` cuts
    some searches short."""
    lows, highs, targets = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("free", "free", "fixed", "negzero", "subnormal")))
        if kind == "negzero":
            lo = hi = -0.0
        elif kind == "fixed":
            lo = hi = draw(st.floats(-2.0, 2.0))
        elif kind == "subnormal":
            lo = draw(st.sampled_from((0.0, -0.0, 5e-324)))
            hi = lo + draw(st.sampled_from(_SUBNORMAL_WIDTHS))
        else:
            lo = draw(st.sampled_from((0.0, -1.0))) if draw(st.booleans()) \
                else draw(st.floats(-4.0, 4.0))
            hi = lo + draw(st.sampled_from((0.5, 1.0, 3.0)) | st.floats(1e-3, 8.0))
        lows.append(lo)
        highs.append(hi)
        targets.append(draw(st.sampled_from((lo, hi)) | st.floats(lo, hi)))
    n = len(lows)
    kind = draw(st.sampled_from(("linear", "abs", "square", "flat")))
    coeffs = [draw(st.sampled_from((-1.0, 0.0, 1.0)) | st.floats(-3.0, 3.0)) for _ in range(n)]
    signed = draw(st.booleans())
    cap = draw(st.none() | st.floats(-2.0, 6.0))

    def f(x):
        if cap is not None and x[0] + x[-1] > cap:
            return -math.inf
        if kind == "linear":
            v = sum(c * xi for c, xi in zip(coeffs, x))
        elif kind == "abs":
            v = -sum(abs(c) * abs(xi - t) for c, xi, t in zip(coeffs, x, targets))
        elif kind == "square":
            v = -sum(abs(c) * (xi - t) * (xi - t) for c, xi, t in zip(coeffs, x, targets))
        else:
            v = 1.0
        if signed:  # a zero's sign moves f
            v += sum(math.copysign(1e-3, xi) for xi in x if xi == 0.0)
        return v

    def ok(x):
        return f(x) > -math.inf

    cfg = OptimizerConfig(restarts=draw(st.integers(0, 6)), seed=draw(st.integers(0, 3)))
    max_iter = draw(st.integers(1, 60))
    return f, ok, tuple(lows), tuple(highs), cfg, draw(st.integers(0, 2)), max_iter


def _bits(result):
    x, fx, iterations = result
    return None if x is None else [v.hex() for v in x], repr(fx), iterations


def _searches(f, ok, lows, highs, cfg, stream):
    """``_best_of_restarts``'s result, and the start and result of each of
    its searches."""
    searches = []
    real = optimizer._pattern_search

    def recorded(f, lows, highs, x0, seen):
        out = real(f, lows, highs, x0, seen)
        searches.append((list(x0), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_pattern_search", recorded)
        return optimizer._best_of_restarts(f, ok, lows, highs, cfg, stream), searches


def _assert_shared_equals_plain(f, ok, lows, highs, cfg, stream, max_iter):
    """``_best_of_restarts`` under ``MAX_ITER = max_iter`` equals, bit for
    bit, a plain loop of ``_pattern_search`` over the same starts: search by
    search, and the best with the summed iterations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "MAX_ITER", max_iter)
        shared, searches = _searches(f, ok, lows, highs, cfg, stream)
        plain = [optimizer._pattern_search(f, lows, highs, x0) for x0, _ in searches]
    assert len(searches) == cfg.restarts + 1
    assert [_bits(out) for _, out in searches] == [_bits(out) for out in plain]
    best_x, best_fx, total = None, -math.inf, 0
    for x, fx, iterations in plain:
        total += iterations
        if fx > best_fx:
            best_x, best_fx = x, fx
    assert _bits(shared) == _bits((best_x, best_fx, total))


@settings(max_examples=250, deadline=None)
@given(_restart_case())
def test_restarts_that_share_checkpoints_equal_a_plain_loop(case):
    _assert_shared_equals_plain(*case)


# Every start walks to one corner of the box. The low corner's search gets
# there last (high) or first (low), so some budgets cut an earlier search that
# a later one passes through, and some would end a merge past MAX_ITER. In
# "signed zero" the low corner holds x0 = -0.0 and each restart 0.0.
_CORNER_WALKS = {
    "high": (lambda x: x[0] + x[1], (0.0, -1.0), (1.0, 2.0)),
    "low": (lambda x: -x[0] - x[1], (0.0, -1.0), (1.0, 2.0)),
    "signed zero": (lambda x: x[1], (-0.0, 0.0), (-0.0, 1.0)),
}


@pytest.mark.parametrize("walk", _CORNER_WALKS)
def test_restarts_share_checkpoints_under_every_budget(walk):
    f, lows, highs = _CORNER_WALKS[walk]
    for max_iter in range(1, 45):
        _assert_shared_equals_plain(f, lambda x: True, lows, highs,
                                    OptimizerConfig(restarts=6, seed=1), 0, max_iter)


def test_restarts_skip_what_an_earlier_start_walked():
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    shared = plain = 0
    for i in range(12):
        scenario, bounds, _, _, _ = random_opt_instance([31, i])
        feasible, _, _, objective = optimizer._compile_solve(
            scenario, optimizer.argmin_state(scenario))
        f, lows, highs = objective(1.0, 1.0), bounds.lows, bounds.highs
        _, searches = _searches(counted, feasible, lows, highs,
                                OptimizerConfig(restarts=6, seed=i), 0)
        shared += len(calls)
        calls.clear()
        for x0, _ in searches:
            optimizer._pattern_search(counted, lows, highs, x0)
        plain += len(calls)
        calls.clear()
    assert shared < plain


@st.composite
def _restart_relation_case(draw):
    """A benchmark-style instance (one quadratic link per capital symbol), or
    the same with more links, polynomial or piecewise, which the general
    objective sums; either mode, and a seed."""
    scenario, bounds, _, _, _ = random_opt_instance([31, draw(st.integers(0, 299))])
    if draw(st.booleans()):
        linked = {(r.driven, r.driver) for r in scenario.responses}
        free = [(sym, drv) for sym in optimizer.CAPITAL_SYMBOLS
                for drv in optimizer.DECISION_FIELDS if (sym, drv) not in linked]
        extra = sorted(draw(st.sets(st.sampled_from(free), min_size=1, max_size=3)))
        scenario = scenario.replace(responses=scenario.responses + tuple(
            draw(_link(sym, drv, "base")) for sym, drv in extra))
    cfg = OptimizerConfig(mode=draw(st.sampled_from(optimizer.OBJECTIVE_MODES)),
                          weights=(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))),
                          seed=draw(st.integers(0, 2**16)))
    return scenario, bounds, cfg


@settings(max_examples=150, deadline=None)
@given(_restart_relation_case())
def test_one_more_restart_never_lowers_the_objective(case):
    # restarts = r + 1 searches the r + 1 starts of restarts = r and one more
    scenario, bounds, cfg = case
    found = []
    for restarts in range(6):
        out = optimize_broker(scenario, bounds, cfg.replace(restarts=restarts))
        found.append(-math.inf if out.objective is None else out.objective)
    assert all(a <= b for a, b in zip(found, found[1:])), found


# --- pareto's cost sums ---------------------------------------------------------

def test_pareto_sums_cost_left_to_right_on_every_interpreter(monkeypatch):
    # sum() of floats is compensated from Python 3.12: here it would give a
    # cost floor of 1.0 where left-to-right addition gives 0.0 (the 1.0 is
    # lost beside 1e16), and every eps level would move
    data = fixture_dict("opt", value_overrides={"B_n": 0.0, "RC_br": 0.0, "SC_br": 0.0})
    data["responses"] = [quad_response("RC_br", "B_n", 0.0, 1.0, 0.0)]
    s = scenario_from_dict(data)
    bounds = Bounds(B_b=(1e16, 1e16), B_s=(1.0, 1.0), B_i=(-1e16, -1e16), B_n=(0.0, 2.0))
    assert math.fsum(bounds.lows) == 1.0
    want = repr([p.to_dict() for p in pareto_sweep(s, bounds, k=5)])
    monkeypatch.setattr(optimizer, "sum", math.fsum, raising=False)
    assert repr([p.to_dict() for p in pareto_sweep(s, bounds, k=5)]) == want


# --- OptimizerConfig ------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("mode", "maximin"), ("mode", None),
    ("weights", (1.0,)), ("weights", (1.0, 2.0, 3.0)), ("weights", "ab"),
    ("weights", (True, 1.0)), ("weights", (1.0, "2")), ("weights", (float("nan"), 1.0)),
    ("weights", (1.0, float("inf"))), ("weights", (10 ** 400, 1.0)),
    ("restarts", 2.0), ("restarts", True), ("restarts", "8"), ("restarts", -1),
    ("seed", 1.5), ("seed", False), ("seed", None), ("seed", -1),
])
def test_optimizer_config_rejects_a_bad_field(field, value):
    with pytest.raises(ParseError, match=field):
        OptimizerConfig(**{field: value})


def test_optimizer_config_keeps_what_it_accepted():
    cfg = OptimizerConfig(mode="weighted", weights=[2, 0.5], restarts=0, seed=3)
    assert (cfg.weights, cfg.restarts) == ((2, 0.5), 0)  # 0: the low corner only


def test_optimizer_config_is_hashable_with_list_weights():
    listed = OptimizerConfig(mode="weighted", weights=[2, 0.5])
    assert hash(listed) == hash(OptimizerConfig(mode="weighted", weights=(2, 0.5)))
    assert listed == OptimizerConfig(mode="weighted", weights=(2, 0.5))
