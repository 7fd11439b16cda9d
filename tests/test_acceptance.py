"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""

import json
import time

import numpy as np
import pytest

from dismed import (
    Bounds,
    OptimizerConfig,
    RunConfig,
    SetDecision,
    Status,
    decide,
    finite_difference,
    integrate_horizon,
    optimize_broker,
    pareto_sweep,
    run_sweep,
)
from dismed.calculus import Add, Const, Mul, Sym
from dismed.io import load_scenario, scenario_from_dict
from dismed.simulate import DistributionSpec

from conftest import FIXTURES_DIR
from fixture_defs import broker_opt_dict, broker_retained_dict, fixture_dict, perturbation_cases
from oracle import oracle_statuses
from scen_gen import (
    drop_responses,
    random_determinate_scenario,
    random_opt_instance,
    random_scenario,
)

CFG = RunConfig()
PASS_STATUSES = {Status.SATISFIED, Status.VACUOUS}


def _engine_statuses(scenario, cfg=CFG):
    out = {}
    for report in decide(scenario, cfg).reports.values():
        out.update({k: v.value for k, v in report.statuses().items()})
    return out


def _announce(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_acceptance_1_oracle_equivalence_1000():
    """All 44 conditions agree with the straight-line oracle on 1000 seeded
    scenarios with full response sets, in under 60 seconds."""
    start = time.monotonic()
    disagreements = []
    for i in range(1000):
        scenario = random_scenario([20240801, i])
        expected = oracle_statuses(scenario, CFG)
        got = _engine_statuses(scenario)
        if got != expected:
            bad = {k: (expected[k], got[k]) for k in expected if expected[k] != got[k]}
            disagreements.append((i, bad))
    elapsed = time.monotonic() - start
    ok = not disagreements and elapsed < 60.0
    _announce(1, ok,
              f"oracle equivalence on 1000 scenarios x 44 conditions "
              f"({elapsed:.1f}s; disagreements: {disagreements[:3]})")


def test_acceptance_1b_oracle_equivalence_min_intersection():
    """Same agreement under the comonotone intersection reading."""
    cfg = CFG.replace(intersection="min")
    for i in range(200):
        scenario = random_scenario([77002, i], cfg=cfg)
        assert _engine_statuses(scenario, cfg) == oracle_statuses(scenario, cfg), i
    print("ACCEPTANCE 1b PASS: min-mode oracle equivalence on 200 scenarios")


def test_acceptance_2_fixture_suite():
    """Named fixtures are oracle-verified fully satisfied; single-inequality
    perturbations flip exactly the targeted condition."""
    for name, expect_sets in (
        ("all_satisfied_buyer", ("buyer",)),
        ("all_satisfied_seller", ("seller",)),
        ("all_satisfied_broker_web", ("broker_web",)),
        ("all_three_satisfied", ("buyer", "broker_web", "seller")),
    ):
        scenario = load_scenario(FIXTURES_DIR / f"{name}.json")
        oracle = oracle_statuses(scenario, CFG)
        assert all(v == "Satisfied" for v in oracle.values()), name
        summary = decide(scenario, CFG)
        for cset in expect_sets:
            assert summary.reports[cset].aggregate is SetDecision.SATISFIED, name
        assert _engine_statuses(scenario) == oracle, name

    base = _engine_statuses(scenario_from_dict(fixture_dict("base")))
    for label, (kwargs, target) in perturbation_cases().items():
        perturbed = scenario_from_dict(fixture_dict(f"pert_{label}", **kwargs))
        got = _engine_statuses(perturbed)
        assert got == oracle_statuses(perturbed, CFG), label
        assert got[target] == "Violated", label
        for cond, status in got.items():
            if cond == target:
                continue
            same_class = ((status in ("Satisfied", "VacuouslySatisfied"))
                          == (base[cond] in ("Satisfied", "VacuouslySatisfied")))
            assert same_class, (label, cond, base[cond], status)

    retained = scenario_from_dict(broker_retained_dict())
    summary = decide(retained, CFG)
    assert summary.buyer_disintermediates is SetDecision.NOT_SATISFIED
    assert summary.broker_provides_web_info is SetDecision.SATISFIED
    assert summary.seller_disintermediates is SetDecision.NOT_SATISFIED
    print("ACCEPTANCE 2 PASS: fixture suite + 7 targeted single-condition flips")


def _fd_scenario(coeffs, x0):
    y0 = sum(c * x0 ** k for k, c in enumerate(coeffs))
    data = fixture_dict("fd", value_overrides={"pi_i": x0, "U_iw": y0})
    data["responses"] = [{"driven": "U_iw", "driver": "pi_i",
                          "kind": "polynomial", "coeffs": coeffs,
                          "context": "base"}]
    return scenario_from_dict(data)


def _poly_deriv(coeffs, order):
    cs = list(coeffs)
    for _ in range(order):
        cs = [k * c for k, c in enumerate(cs)][1:] or [0.0]
    return cs


def test_acceptance_3_finite_difference_accuracy():
    """Orders 1-3 on degree 1-6 polynomials match analytic derivatives within
    1e-4 relative (order 3: 1e-3), 100 polynomials per order."""
    plans = {1: (2.5e-5, 0.05, 1e-4), 2: (3e-4, 0.5, 1e-4), 3: (1e-3, 2.0, 1e-3)}
    rng = np.random.default_rng(np.random.SeedSequence([30003]))
    for order, (h, min_mag, rel_tol) in plans.items():
        worst = 0.0
        tested = 0
        while tested < 100:
            degree = int(rng.integers(max(1, order), 7))
            coeffs = [float(rng.uniform(-2, 2)) for _ in range(degree + 1)]
            x0 = float(rng.uniform(-2, 2))
            exact = sum(c * x0 ** k for k, c in enumerate(_poly_deriv(coeffs, order)))
            if abs(exact) < min_mag:
                continue
            s = _fd_scenario(coeffs, x0)
            got = finite_difference(s, "U_iw", "pi_i", order, h=h)
            rel = abs(got.lower - exact) / abs(exact)
            worst = max(worst, rel)
            assert rel <= rel_tol, (order, degree, coeffs, x0, rel)
            tested += 1
        print(f"ACCEPTANCE 3 order {order}: worst relative error {worst:.2e}")
    print("ACCEPTANCE 3 PASS: finite differences vs analytic derivatives "
          "(100 polynomials per order)")


def test_acceptance_4_optimizer_beats_grid():
    """Pattern search within 1e-3 relative of the 200x200 grid best on >= 95
    of 100 random 2-variable instances; quadratic vertex recovered to 1e-4;
    every returned point satisfies the coverage constraint."""
    wins = 0
    for i in range(100):
        scenario, bounds, _, _, grid = random_opt_instance([61001, i])
        res = optimize_broker(scenario, bounds, OptimizerConfig(restarts=6, seed=i))
        assert res.feasible
        d = res.decision
        cp = scenario.value("c", d.state) * scenario.value("P", d.state)
        assert cp > max(0.0, d.B_b + d.B_s + d.B_i), i
        grid_cost, grid_capital = grid(200)
        best = float(np.max(grid_capital - grid_cost))
        if res.objective >= best - 1e-3 * abs(best):
            wins += 1
    assert wins >= 95, wins

    vertex = scenario_from_dict(broker_opt_dict())
    res = optimize_broker(vertex, Bounds(B_b=(0, 0), B_s=(0, 0),
                                         B_i=(0, 3), B_n=(0, 0)))
    assert res.decision.B_i == pytest.approx(2.0, abs=1e-4)
    print(f"ACCEPTANCE 4 PASS: optimizer >= grid - 1e-3 on {wins}/100 instances; "
          "quadratic vertex B_i = 2 recovered")


def test_acceptance_5_pareto_soundness():
    """Frontiers are mutually non-dominated and, at matched cost levels, agree
    with grid-enumerated non-dominated capital within 1e-3 (one-sided against
    the finite grid, which can only under-estimate the true frontier)."""
    for i in range(10):
        scenario, bounds, _, _, grid = random_opt_instance([52005, i], concave=True)
        frontier = pareto_sweep(scenario, bounds, k=9,
                                cfg=OptimizerConfig(restarts=4, seed=i))
        assert frontier, i
        for a in frontier:
            for b in frontier:
                if a is not b:
                    dominated = (b.cost <= a.cost and b.capital >= a.capital
                                 and (b.cost < a.cost or b.capital > a.capital))
                    assert not dominated, i
        grid_cost, grid_capital = grid(200)
        for p in frontier:
            mask = grid_cost <= p.cost + 1e-9
            if not mask.any():
                continue
            best = float(np.max(grid_capital[mask]))
            assert p.capital >= best - 1e-3 * max(1.0, abs(best)), (i, p)
    print("ACCEPTANCE 5 PASS: epsilon-constraint frontiers non-dominated and "
          "grid-consistent on 10 convex instances")


def test_acceptance_6_sweep_determinism_and_bounds():
    """Fixed-seed sweeps are byte-identical across runs and worker counts;
    frequencies lie in [0,1]; conjunction aggregate <= each member."""
    base = load_scenario(FIXTURES_DIR / "all_satisfied_buyer.json")
    dist = DistributionSpec.from_dict(
        {"marginals": {"rho_s": {"kind": "uniform", "lo": 0.35, "hi": 0.85}}})
    payloads = []
    for workers in (1, 1, 2, 3):
        stats = run_sweep(base, dist, n=200, seed=424242, cfg=CFG, workers=workers)
        payloads.append(json.dumps(stats.to_dict()))
    assert len(set(payloads)) == 1
    stats = json.loads(payloads[0])
    for entry in stats["per_condition"].values():
        assert 0.0 <= entry["frequency"] <= 1.0
        assert 0.0 <= entry["indeterminate_rate"] <= 1.0
    for cset, prefix, count in (("buyer", "B", 19), ("broker_web", "W", 7),
                                ("seller", "S", 18)):
        rate = stats["per_set"][cset]["satisfied_rate"]
        members = [stats["per_condition"][f"{prefix}{i}"]["frequency"]
                   for i in range(1, count + 1)]
        assert rate <= min(members) + 1e-12
    print("ACCEPTANCE 6 PASS: byte-identical sweeps across 4 runs / 3 worker "
          "counts; all rates bounded; conjunction inequality holds")


def test_acceptance_7_monotone_refinement():
    """Removing response functions never flips Satisfied <-> Violated on 100
    random scenarios; it only introduces Indeterminate."""
    flips = []
    for i in range(100):
        full = random_determinate_scenario([88007, i])
        partial = drop_responses(full, [88007, 5000 + i],
                                 keep_fraction=float(0.3 + 0.05 * (i % 10)))
        full_statuses = _engine_statuses(full)
        partial_statuses = _engine_statuses(partial)
        for label, status in partial_statuses.items():
            if status not in (full_statuses[label], "Indeterminate"):
                flips.append((i, label, full_statuses[label], status))
    _announce(7, not flips, f"monotone refinement on 100 scenarios "
                            f"(violations: {flips[:3]})")


def test_acceptance_8_integral_exactness():
    """The S13-style horizon integral reproduces exact constant and linear
    values to 1e-9 (trapezoid exactness)."""
    data = fixture_dict("integral")
    data["responses"] = []
    data["time_paths"] = [
        {"symbol": "rho_s", "kind": "constant", "value": 0.7},
        {"symbol": "P_s", "kind": "linear", "v0": 10.0, "slope": 2.0},
    ]
    s = scenario_from_dict(data)
    integrand = Mul(Sym("rho_s"),
                    Add((Sym("P_s"),
                         Mul(Const(-1.0),
                             Add((Sym("pi_b"), Sym("pi_s"), Sym("psi_si")))))))
    T, dt = 4.0, 0.25
    # closed form: 0.7 * integral of (10 + 2t - (1 + 1.5 + 1.9)) dt over [0,4]
    drag = 1.0 + 1.5 + 1.9
    exact = 0.7 * ((10.0 - drag) * T + 2.0 * T * T / 2.0)
    got = integrate_horizon(s, integrand, T=T, dt=dt)
    assert abs(got - exact) < 1e-9

    const_error = abs(integrate_horizon(s, Const(7.0), T=10.0, dt=1.0) - 70.0)
    assert const_error < 1e-9
    print(f"ACCEPTANCE 8 PASS: trapezoid exact for constant/linear integrands "
          f"(linear error {abs(got - exact):.1e})")
