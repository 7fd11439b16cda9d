"""Random valid scenarios with full response-function sets.

Built for oracle-equivalence runs: every derivative any condition needs has a
declared polynomial link, anchored through the scenario's base point so
validation passes by construction. Degrees are capped so the engine's central
stencils are exact (or nearly so) for the orders each pair is used at, and a
rejection loop keeps every oracle decision margin away from knife edges, so
finite-difference truncation can never flip a status against the analytic
oracle.
"""

from __future__ import annotations

import numpy as np

from dismed.config import RunConfig
from dismed.io import scenario_from_dict

from oracle import oracle_margins, oracle_statuses

SEPARATION = 0.004
TIE_GAP = 0.02

# Pairs used at third order keep degree <= 4 (the order-3 stencil is exact
# there); everything else stays at degree <= 2 (orders 1-2 exact).
ORDER3_PAIRS = [
    ("I_p", "U_ip+U_iw"), ("I_i", "U_ip+U_iw"), ("I_o", "U_a"),
    ("P_b", "P"), ("I_o", "I_p+I_i"),
    ("I_o", "psi_si"), ("I_p", "psi_sb"), ("I_o", "psi_sb"),
    ("U_a", "psi_si"), ("U_sp", "psi_s"), ("U_sw", "psi_s"),
]
RHO_PAIRS = [
    ("rho_i", "rho_p"), ("rho_i", "B_b"), ("rho_p", "B_b"),
    ("rho_i", "U_ip+U_iw"), ("rho_p", "U_ip+U_iw"),
    ("rho_i", "U_sp+U_sw"), ("rho_p", "U_sp+U_sw"),
]
PLAIN_PAIRS = [
    ("psi_b", "U_ip"), ("psi_bi", "U_iw"),
    ("U_iw", "pi_i"), ("U_ip", "pi_b"),
    ("I_o", "psi_bi"), ("I_p", "psi_b"), ("I_i", "psi_b"),
    ("u_hat_s", "pi_sb+I_p+I_i"),
    ("U_ip", "I_p+I_i+pi_b"), ("U_iw", "I_p+I_i+pi_b"),
    ("B_i", "I_i"), ("RC_br", "I_i"), ("SC_br", "I_i"),
    ("RC_br", "B_i"), ("SC_br", "B_i"),
    ("P_s", "P"),
    ("pi_sb", "U_sp+U_sw"), ("pi_s", "U_a"),
    ("P", "pi_sb"), ("P", "pi_s"), ("P_s", "pi_sb"), ("P_s", "pi_s"), ("P", "c"),
    ("psi_sb", "P_s"), ("pi_sb", "P_s"), ("psi_si", "P_s"), ("pi_s", "P_s"),
    ("psi_sb", "c"), ("pi_sb", "c"), ("psi_si", "c"), ("pi_s", "c"),
    ("psi_sb", "pi_sb"), ("psi_si", "pi_sb"), ("pi_s", "pi_sb"),
    ("U_sp", "I_p+I_i+pi_b"), ("U_sw", "I_p+I_i+pi_b"),
]

ORDER3_SCALES = (2.0, 0.4, 0.2, 0.05)
PLAIN_SCALES = (2.5, 1.5)
SC_SCALES = (3.0, 0.6)
RHO_SCALES = (0.08, 0.02)


def _tail_value(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs) if k >= 1)


def _anchored_poly(driven, driver, values, tail, context="base"):
    x0 = sum(values[p] for p in driver.split("+"))
    coeffs = [0.0] + list(tail)
    coeffs[0] = values[driven] - _tail_value(coeffs, x0)
    return {"driven": driven, "driver": driver, "kind": "polynomial",
            "coeffs": coeffs, "context": context}


def _draw_tail(rng, scales, min_degree=1):
    degree = int(rng.integers(min_degree, len(scales) + 1))
    return [float(rng.uniform(-s, s)) for s in scales[:degree]]


def _gap_pair(rng, lo, hi, gap):
    while True:
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if abs(a - b) >= gap:
            return float(a), float(b)


def _draw_values(rng) -> dict:
    gap = TIE_GAP
    v = {}
    v["P"] = float(rng.uniform(5, 15))
    v["P_b"] = float(rng.uniform(4, 16))
    if rng.random() < 0.5:
        v["P_s"] = v["P_b"] * float(rng.uniform(0.99, 1.01))
    else:
        v["P_s"] = float(rng.uniform(-5, 20))
    v["c"] = float(rng.uniform(0.03, 0.4))
    for name in ("B_b", "B_n", "B_op", "B_s", "B_i", "B_it"):
        v[name] = float(rng.uniform(0.1, 3))
    v["psi_b"], v["psi_bi"] = _gap_pair(rng, 1, 8, gap)
    v["psi_s"], v["psi_si"] = _gap_pair(rng, 1, 8, gap)
    v["psi_sb"] = float(rng.uniform(1, 8))
    if rng.random() < 0.5:
        v["I_i"] = v["psi_b"] * float(rng.uniform(0.99, 1.01))
    else:
        v["I_i"] = float(rng.uniform(0.5, 6))
    v["I_p"] = float(rng.uniform(0.5, 6))
    v["I"] = v["I_p"] + v["I_i"]
    v["I_o"] = v["I_i"] + float(rng.uniform(0, 6))
    v["U_ip"], v["U_iw"] = _gap_pair(rng, 0.5, 6, gap)
    for name in ("U_a", "U_sp", "U_sw", "U_sa"):
        v[name] = float(rng.uniform(0.5, 6))
    for name in ("pi_b", "pi_i"):
        v[name] = float(rng.uniform(0.1, 4))
    v["pi_sb"], v["pi_s"] = _gap_pair(rng, 0.1, 4, gap)
    while True:
        es, ep, em = rng.uniform(-2, 5, size=3)
        if abs(es - ep) >= gap and abs(ep - em) >= gap and abs(es - em) >= gap:
            break
    v["E_s"], v["E_p"], v["E_m"] = float(es), float(ep), float(em)
    v["rho_p"], v["rho_i"] = _gap_pair(rng, 0.05, 0.95, gap)
    v["rho_s"] = float(rng.uniform(0.05, 0.95))
    v["u_hat"] = float(rng.uniform(0.1, 4))
    v["u_hat_s"] = float(rng.uniform(0.1, 12))
    v["RC_br"] = float(rng.uniform(0.2, 4))
    v["SC_br"] = float(rng.uniform(0.2, 4))
    v["SC_s"] = float(rng.uniform(2, 40))
    v["SC_b"] = float(rng.uniform(2, 40))
    return v


_OVERLAYABLE = ("psi_b", "psi_bi", "pi_b", "pi_i", "U_ip", "U_iw",
                "psi_s", "psi_si", "c")


def _maybe_overlays(rng, values) -> dict:
    overlays = {}
    states = {"E_s": values["E_s"], "E_p": values["E_p"], "E_m": values["E_m"]}
    argmax = max(states, key=lambda k: states[k])
    for state, chance in ((argmax, 0.4), ("E_p", 0.3)):
        if state in overlays or rng.random() >= chance:
            continue
        picks = rng.choice(len(_OVERLAYABLE), size=3, replace=False)
        ov = {}
        for idx in picks:
            name = _OVERLAYABLE[idx]
            scaled = values[name] * float(rng.uniform(0.7, 1.3))
            if name == "c":
                scaled = min(max(scaled, 0.01), 0.95)
            ov[name] = scaled
        overlays[state] = ov
    return overlays


def _resolved_max(values, first, second):
    return first if values[first] >= values[second] else second


def _full_responses(rng, values) -> list[dict]:
    states = {"E_s": values["E_s"], "E_p": values["E_p"], "E_m": values["E_m"]}
    argmax = max(states, key=lambda k: states[k])
    responses = []
    for driven, driver in ORDER3_PAIRS:
        responses.append(_anchored_poly(driven, driver, values,
                                        _draw_tail(rng, ORDER3_SCALES)))
    for driven, driver in PLAIN_PAIRS:
        responses.append(_anchored_poly(driven, driver, values,
                                        _draw_tail(rng, PLAIN_SCALES)))
    for driven, driver in RHO_PAIRS:
        if rng.random() < 0.35:
            tail = []
        else:
            tail = _draw_tail(rng, RHO_SCALES)
        responses.append(_anchored_poly(driven, driver, values, tail))
    responses.append(_anchored_poly("I_p", argmax, values,
                                    _draw_tail(rng, PLAIN_SCALES)))
    responses.append(_anchored_poly("I_i", argmax, values,
                                    _draw_tail(rng, PLAIN_SCALES)))
    responses.append(_anchored_poly(
        "SC_b", _resolved_max(values, "psi_bi", "psi_b"), values,
        _draw_tail(rng, SC_SCALES)))
    responses.append(_anchored_poly(
        "SC_s", _resolved_max(values, "psi_si", "psi_s"), values,
        _draw_tail(rng, SC_SCALES)))
    return responses


def random_scenario(seed_parts, cfg: RunConfig = RunConfig(), label="random",
                    with_overlays=True, max_tries=400, separation=SEPARATION):
    """One margin-separated random scenario (deterministic per seed_parts);
    ``separation`` 0 takes the first draw, knife-edge margins included."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    for _ in range(max_tries):
        values = _draw_values(rng)
        data = dict(values)
        data["label"] = label
        data["responses"] = _full_responses(rng, values)
        if with_overlays:
            overlays = _maybe_overlays(rng, values)
            if overlays:
                data["overlays"] = overlays
        scenario = scenario_from_dict(data)
        margins = oracle_margins(scenario, cfg)
        if min(abs(m) for m in margins) >= separation:
            return scenario
    raise RuntimeError("could not separate margins; loosen SEPARATION")


def random_determinate_scenario(seed_parts, cfg: RunConfig = RunConfig(), **kw):
    scenario = random_scenario(seed_parts, cfg, **kw)
    statuses = oracle_statuses(scenario, cfg)
    assert "Indeterminate" not in statuses.values(), "full set should be determinate"
    return scenario


def drop_responses(scenario, seed_parts, keep_fraction=0.5):
    """Copy of the scenario with a random response subset removed."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    kept = tuple(r for r in scenario.responses if rng.random() < keep_fraction)
    from dataclasses import replace
    return replace(scenario, responses=kept)


# ---------------------------------------------------------------------------
# Broker-optimizer instances
# ---------------------------------------------------------------------------

def random_opt_instance(seed_parts, concave=False):
    """Two free decision variables with quadratic capital links.

    Returns (scenario, bounds, free_vars, straight_line) where straight_line
    is an independent (cost, capital) evaluator over the two free variables,
    suitable for exhaustive grid oracles.
    """
    from fixture_defs import BASE_VALUES
    from dismed.optimizer import Bounds

    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    fields = ["B_b", "B_s", "B_i", "B_n"]
    free = list(rng.choice(4, size=2, replace=False))
    free_vars = [fields[i] for i in sorted(free)]

    values = dict(BASE_VALUES)
    if concave:
        curv = [float(rng.uniform(-1.5, -0.2)) for _ in range(2)]
        slope = [float(-2.0 * c * rng.uniform(3.0, 5.0)) for c in curv]
    else:
        curv = [float(rng.uniform(-1.5, 0.5)) for _ in range(2)]
        slope = [float(rng.uniform(-4.0, 6.0)) for _ in range(2)]

    def anchored(driven, driver, c1, c2):
        x0 = values[driver]
        c0 = values[driven] - (c1 * x0 + c2 * x0 * x0)
        return {"driven": driven, "driver": driver, "kind": "polynomial",
                "coeffs": [c0, c1, c2], "context": "base"}

    responses = [anchored("RC_br", free_vars[0], slope[0], curv[0]),
                 anchored("SC_br", free_vars[1], slope[1], curv[1])]
    data = dict(values)
    data["label"] = "opt_instance"
    data["responses"] = responses
    scenario = scenario_from_dict(data)

    pairs = {}
    for name in fields:
        if name in free_vars:
            lo = float(rng.uniform(0.0, 0.8))
            pairs[name] = (lo, lo + float(rng.uniform(1.0, 4.0)))
        else:
            v = float(rng.uniform(0.0, 0.5))
            pairs[name] = (v, v)
    bounds = Bounds(**pairs)

    fixed_cost = sum(pairs[n][0] for n in fields if n not in free_vars)
    fixed3 = sum(pairs[n][0] for n in fields
                 if n not in free_vars and n != "B_n")
    base_capital = values["RC_br"] + values["SC_br"]
    b1, b2 = values[free_vars[0]], values[free_vars[1]]
    cp = values["c"] * values["P"]

    def straight_line(x1, x2):
        """(cost, capital, feasible) computed without the engine.

        Accepts scalars or numpy arrays, so 200x200 grid oracles stay fast.
        """
        capital = base_capital
        capital = capital + (slope[0] * x1 + curv[0] * x1 * x1
                             - (slope[0] * b1 + curv[0] * b1 * b1))
        capital = capital + (slope[1] * x2 + curv[1] * x2 * x2
                             - (slope[1] * b2 + curv[1] * b2 * b2))
        cost = x1 + x2 + fixed_cost
        sum3 = fixed3
        for name, x in zip(free_vars, (x1, x2)):
            if name != "B_n":
                sum3 = sum3 + x
        feasible = cp - np.maximum(0.0, sum3) >= 1e-9 * max(1.0, cp)
        return cost, capital, feasible

    def grid(n=200):
        """Exhaustive feasible grid: (cost, capital) arrays, flattened."""
        lo1, hi1 = pairs[free_vars[0]]
        lo2, hi2 = pairs[free_vars[1]]
        x1 = np.linspace(lo1, hi1, n)[:, None]
        x2 = np.linspace(lo2, hi2, n)[None, :]
        cost, capital, ok = np.broadcast_arrays(*straight_line(x1, x2))
        return cost[ok].ravel(), capital[ok].ravel()

    return scenario, bounds, free_vars, straight_line, grid
