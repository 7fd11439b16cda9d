"""Broker decision optimization.

The broker steers its controllable cost levels (B_b, B_s, B_i, B_n) inside a
caller-supplied box, trading the cost total against social-plus-reputation
capital. Capital must be linked to decision fields through declared
ResponseFunctions (a constant link is fine); with no link at all the problem
is ill-posed and raises MissingCapitalResponse.

Conditioning follows the smallest listing-state value: the objective is
evaluated under the overlay of argmin(E_s, E_p, E_m) and the returned decision
records that state. The commission-coverage constraint c*P > max(0, B_b+B_s+B_i)
is enforced with a small numeric slack so strictness stays checkable.

The search is a derivative-free coordinate pattern search (capital responses
may be piecewise linear): initial step 1/8 of each box width, halved whenever
no coordinate move improves, stopping once every step falls below 1e-6 of its
box width, restarted from seeded uniform points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import argmin_state
from .errors import MissingCapitalResponse, ParseError
from .io import _number
from .model import DECISION_FIELDS, Scenario, eval_response

FEASIBILITY_SLACK = 1e-9
INIT_STEP_FRAC = 0.125   # the first step, as a fraction of each box width
TOL_FRAC = 1e-6          # stop once every step is below this fraction
MAX_ITER = 100_000       # pattern-search iterations per start
CAPITAL_SYMBOLS = ("SC_br", "RC_br")


@dataclass(frozen=True)
class DecisionVector:
    B_b: float
    B_s: float
    B_i: float
    B_n: float
    state: str

    @property
    def cost(self) -> float:
        return self.B_b + self.B_s + self.B_i + self.B_n

    def to_dict(self) -> dict:
        return {"B_b": self.B_b, "B_s": self.B_s, "B_i": self.B_i,
                "B_n": self.B_n, "state": self.state}


@dataclass(frozen=True)
class Bounds:
    """Box bounds for the four decision fields."""
    B_b: tuple[float, float]
    B_s: tuple[float, float]
    B_i: tuple[float, float]
    B_n: tuple[float, float]

    def __post_init__(self):
        for name in DECISION_FIELDS:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ParseError(f"bounds for {name} must be finite with lo <= hi")

    @classmethod
    def from_dict(cls, data) -> "Bounds":
        if not isinstance(data, dict):
            raise ParseError("bounds must be an object of [lo, hi] pairs")
        unknown = set(data) - set(DECISION_FIELDS)
        if unknown:
            raise ParseError(f"unknown bounds field(s): {sorted(unknown)}")
        kw = {}
        for name in DECISION_FIELDS:
            if name not in data:
                raise ParseError(f"bounds missing field {name!r}")
            pair = data[name]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ParseError(f"bounds for {name} must be a [lo, hi] pair")
            kw[name] = tuple(_number(v, f"bounds.{name}[{i}]") for i, v in enumerate(pair))
        return cls(**kw)

    @property
    def lows(self) -> tuple[float, ...]:
        return tuple(getattr(self, n)[0] for n in DECISION_FIELDS)

    @property
    def highs(self) -> tuple[float, ...]:
        return tuple(getattr(self, n)[1] for n in DECISION_FIELDS)


@dataclass(frozen=True)
class OptimizerConfig:
    mode: str = "combined"             # "combined" | "weighted"
    weights: tuple[float, float] = (1.0, 1.0)
    restarts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class OptResult:
    decision: Optional[DecisionVector]
    objective: Optional[float]
    feasible: bool
    iterations: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "objective": self.objective,
            "iterations": self.iterations,
            "mode": self.mode,
            "decision": self.decision.to_dict() if self.decision else None,
        }


@dataclass(frozen=True)
class ParetoPoint:
    cost: float
    capital: float
    decision: DecisionVector

    def to_dict(self) -> dict:
        return {"cost": self.cost, "capital": self.capital,
                "decision": self.decision.to_dict()}


def _capital_links(s: Scenario, ctx: Optional[str]):
    """(symbol, driver, response) triples linking capital to decision fields."""
    links = []
    for sym in CAPITAL_SYMBOLS:
        for drv in DECISION_FIELDS:
            r = s.response_for(sym, drv, ctx)
            if r is not None:
                links.append((sym, drv, r))
    return links


def evaluate_capital(s: Scenario, d: DecisionVector, ctx: Optional[str]) -> float:
    """SC_br + RC_br at the decision point.

    Each capital symbol moves from its base by the sum of its declared
    per-driver deviations f(d_j) - f(base_j); symbols with no link stay at
    their base value.
    """
    links = _capital_links(s, ctx)
    if not links:
        raise MissingCapitalResponse(
            "neither SC_br nor RC_br has a declared response on any of "
            f"{DECISION_FIELDS}")
    total = 0.0
    for sym in CAPITAL_SYMBOLS:
        value = s.value(sym, ctx)
        for lsym, drv, r in links:
            if lsym != sym:
                continue
            value += eval_response(r, getattr(d, drv)) - eval_response(r, s.value(drv, ctx))
        total += value
    return total


def commission_budget(s: Scenario, ctx: Optional[str]) -> float:
    return s.value("c", ctx) * s.value("P", ctx)


def is_feasible(s: Scenario, d: DecisionVector, ctx: Optional[str] = None) -> bool:
    """Strict commission coverage, checked with numeric slack."""
    cp = commission_budget(s, ctx)
    slack = cp - max(0.0, d.B_b + d.B_s + d.B_i)
    return slack >= FEASIBILITY_SLACK * max(1.0, abs(cp))


def broker_objective(s: Scenario, d: DecisionVector, mode: str = "combined",
                     weights: tuple[float, float] = (1.0, 1.0)) -> float:
    """Capital-versus-cost objective under the argmin listing-state overlay."""
    ctx = argmin_state(s)
    capital = evaluate_capital(s, d, ctx)
    cost = d.cost
    if mode == "combined":
        return capital - cost
    if mode == "weighted":
        return weights[0] * capital - weights[1] * cost
    raise ValueError(f"unknown objective mode {mode!r}")


def _pattern_search(f: Callable[[Sequence[float]], float],
                    lows: Sequence[float], highs: Sequence[float],
                    x0: Sequence[float]):
    """Compass pattern search over a box; f may return -inf for infeasible.

    Besides the compass moves, the pattern probes pairwise trade moves
    (+step on one coordinate, -step on another), which lets the search slide
    along an active budget constraint such as the epsilon cost cap.
    """
    dims = [j for j in range(len(lows)) if highs[j] > lows[j]]
    widths = [highs[j] - lows[j] for j in range(len(lows))]
    steps = [w * INIT_STEP_FRAC for w in widths]
    x = [min(max(v, lo), hi) for v, lo, hi in zip(x0, lows, highs)]
    fx = f(x)
    iterations = 0

    def clipped(base, j, delta):
        return min(max(base[j] + delta, lows[j]), highs[j])

    while iterations < MAX_ITER:
        iterations += 1
        best_fx, best_x = fx, None
        moves = [(j, sign * steps[j]) for j in dims for sign in (1.0, -1.0)]
        for move in moves:
            trial = list(x)
            trial[move[0]] = clipped(x, *move)
            if trial[move[0]] == x[move[0]]:
                continue
            ft = f(trial)
            if ft > best_fx:
                best_fx, best_x = ft, trial
        for i in dims:
            for j in dims:
                if i == j:
                    continue
                # equal step both ways: tangent to a cost-budget facet
                delta = min(steps[i], steps[j])
                trial = list(x)
                trial[i] = clipped(x, i, delta)
                trial[j] = clipped(x, j, -delta)
                if trial[i] == x[i] and trial[j] == x[j]:
                    continue
                ft = f(trial)
                if ft > best_fx:
                    best_fx, best_x = ft, trial
        if best_x is not None:
            x, fx = best_x, best_fx
            continue
        steps = [st * 0.5 for st in steps]
        if all(steps[j] < TOL_FRAC * widths[j] for j in dims):
            break
    return x, fx, iterations


def _feasible_start(start: Sequence[float], anchor: Sequence[float],
                    ok: Callable[[Sequence[float]], bool]) -> Optional[list]:
    """Shrink a start point toward a known-feasible anchor."""
    if ok(start):
        return list(start)
    t = 1.0
    for _ in range(60):
        t *= 0.5
        candidate = [a + t * (s - a) for s, a in zip(start, anchor)]
        if ok(candidate):
            return candidate
    return list(anchor)


def _best_of_restarts(f: Callable[[Sequence[float]], float],
                      ok: Callable[[Sequence[float]], bool],
                      lows: Sequence[float], highs: Sequence[float],
                      cfg: OptimizerConfig, stream: int):
    """Pattern search from the low corner and from ``cfg.restarts`` seeded
    uniform points (substream ``[cfg.seed, stream]``), each shrunk toward the
    low corner until ``ok``: the best (x, f(x)), the first of equals, and
    the iterations of all searches."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
    starts = [list(lows)]
    for _ in range(max(0, cfg.restarts)):
        raw = [lo + u * (hi - lo) for u, lo, hi in zip(rng.random(len(lows)), lows, highs)]
        starts.append(_feasible_start(raw, lows, ok))
    best_x, best_fx, total_iter = None, -math.inf, 0
    for start in starts:
        x, fx, iters = _pattern_search(f, lows, highs, start)
        total_iter += iters
        if fx > best_fx:
            best_x, best_fx = x, fx
    return best_x, best_fx, total_iter


def _decision(x: Sequence[float], state: str) -> DecisionVector:
    return DecisionVector(B_b=x[0], B_s=x[1], B_i=x[2], B_n=x[3], state=state)


def optimize_broker(s: Scenario, bounds: Bounds,
                    cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Feasible local maximizer of the broker objective by pattern search."""
    ctx = argmin_state(s)
    lows, highs = bounds.lows, bounds.highs

    def feas(x: Sequence[float]) -> bool:
        return is_feasible(s, _decision(x, ctx), ctx)

    if not feas(lows):
        return OptResult(decision=None, objective=None, feasible=False,
                         iterations=0, mode=cfg.mode)

    # Surfaces MissingCapitalResponse before any search work.
    broker_objective(s, _decision(lows, ctx), cfg.mode, cfg.weights)

    def f(x: Sequence[float]) -> float:
        if not feas(x):
            return -math.inf
        return broker_objective(s, _decision(x, ctx), cfg.mode, cfg.weights)

    best_x, best_fx, total_iter = _best_of_restarts(f, feas, lows, highs, cfg, 0)
    return OptResult(decision=_decision(best_x, ctx), objective=best_fx,
                     feasible=True, iterations=total_iter, mode=cfg.mode)


def pareto_sweep(s: Scenario, bounds: Bounds, k: int,
                 cfg: OptimizerConfig = OptimizerConfig()) -> list[ParetoPoint]:
    """Cost/capital frontier by the epsilon-constraint method.

    Maximizes capital subject to cost <= eps_j for k evenly spaced eps levels
    across the feasible cost range; dominated or duplicate results are
    filtered and the frontier is sorted by cost ascending. Infeasible boxes
    yield an empty frontier.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ctx = argmin_state(s)
    lows, highs = bounds.lows, bounds.highs

    def feas(x: Sequence[float]) -> bool:
        return is_feasible(s, _decision(x, ctx), ctx)

    if not feas(lows):
        return []
    evaluate_capital(s, _decision(lows, ctx), ctx)  # surface missing links early

    cp = commission_budget(s, ctx)
    cap3 = cp - FEASIBILITY_SLACK * max(1.0, abs(cp))
    cost_min = sum(lows)
    cost_max = highs[3] + min(highs[0] + highs[1] + highs[2], cap3)
    eps_levels = np.linspace(cost_min, cost_max, k)

    raw_points: list[ParetoPoint] = []
    for j, eps in enumerate(eps_levels):
        eps_tol = eps + 1e-12 * max(1.0, abs(eps))

        def ok(x: Sequence[float]) -> bool:
            return feas(x) and sum(x) <= eps_tol

        def f(x: Sequence[float]) -> float:
            if not ok(x):
                return -math.inf
            return evaluate_capital(s, _decision(x, ctx), ctx)

        best_x, best_fx, _ = _best_of_restarts(f, ok, lows, highs, cfg, j + 1)
        if best_x is not None and math.isfinite(best_fx):
            d = _decision(best_x, ctx)
            raw_points.append(ParetoPoint(cost=d.cost, capital=best_fx, decision=d))

    return filter_nondominated(raw_points)


def filter_nondominated(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Mutually non-dominated subset, sorted by cost ascending."""
    ordered = sorted(points, key=lambda p: (p.cost, -p.capital))
    kept: list[ParetoPoint] = []
    best_capital = -math.inf
    for p in ordered:
        if p.capital > best_capital:
            kept.append(p)
            best_capital = p.capital
    return kept
