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
box width, restarted from uniform points whose doubles ``pcg`` draws in plain
Python from ``SeedSequence([seed, stream]) -> PCG64`` (fixed by NEP 19).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .calculus import argmin_state
from .errors import MissingCapitalResponse, ParseError
from .io import _number
from .model import DECISION_FIELDS, Scenario, eval_response
from .pcg import doubles
from .record import Record

FEASIBILITY_SLACK = 1e-9
INIT_STEP_FRAC = 0.125   # the first step, as a fraction of each box width
TOL_FRAC = 1e-6          # stop once every step is below this fraction
MAX_ITER = 100_000       # pattern-search iterations per start
# A trade move shifts a wide coordinate by a narrow one's step, so a search's
# iterations grow with the ratio of the free widths (about 500 per start at
# 1e3 and 4,500 at 1e4 on broker_opt.json); Bounds refuses wider ratios.
MAX_WIDTH_RATIO = 1e3
CAPITAL_SYMBOLS = ("SC_br", "RC_br")
OBJECTIVE_MODES = ("combined", "weighted")


class DecisionVector(Record):
    B_b: float
    B_s: float
    B_i: float
    B_n: float
    state: str

    @property
    def cost(self) -> float:
        return self.B_b + self.B_s + self.B_i + self.B_n


class Bounds(Record):
    """Box bounds for the four decision fields: finite pairs with lo <= hi
    and a finite width, the free (lo < hi) widths within a factor of
    ``MAX_WIDTH_RATIO`` of each other."""
    B_b: tuple[float, float]
    B_s: tuple[float, float]
    B_i: tuple[float, float]
    B_n: tuple[float, float]

    def __post_init__(self):
        free = []  # (width, name) of each free field
        for name in DECISION_FIELDS:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ParseError(f"bounds for {name} must be finite with lo <= hi")
            if not math.isfinite(hi - lo):
                raise ParseError(f"bounds for {name} need a finite hi - lo, got [{lo}, {hi}]")
            if hi > lo:
                free.append((hi - lo, name))
        free.sort()
        if free and free[-1][0] > MAX_WIDTH_RATIO * free[0][0]:
            (narrow, n_name), (wide, w_name) = free[0], free[-1]
            raise ParseError(f"free bounds widths may differ by a factor of at most "
                             f"{MAX_WIDTH_RATIO:g}: {w_name} is {wide!r} wide and "
                             f"{n_name} {narrow!r}")

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


class OptimizerConfig(Record):
    mode: str = "combined"             # one of OBJECTIVE_MODES
    weights: tuple[float, float] = (1.0, 1.0)
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.mode not in OBJECTIVE_MODES:
            raise ParseError(f"mode = {self.mode!r} not in {OBJECTIVE_MODES}")
        if not (isinstance(self.weights, (tuple, list)) and len(self.weights) == 2):
            raise ParseError(f"weights = {self.weights!r} must be a pair of numbers")
        object.__setattr__(self, "weights", tuple(self.weights))  # hashable
        for i, v in enumerate(self.weights):
            if not math.isfinite(_number(v, f"weights[{i}]")):
                raise ParseError(f"weights[{i}] = {v!r} must be finite")
        for name in ("restarts", "seed"):
            if type(getattr(self, name)) is not int:
                raise ParseError(f"{name} = {getattr(self, name)!r} must be an int")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ParseError(f"seed = {self.seed} must be >= 0")


class OptResult(Record):
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


class ParetoPoint(Record):
    cost: float
    capital: float
    decision: DecisionVector

    def to_dict(self) -> dict:
        return {"cost": self.cost, "capital": self.capital,
                "decision": self.decision.to_dict()}


def _compile(s: Scenario, ctx: Optional[str]):
    """``(feasible, capital, room)`` of ``_compile_solve``."""
    return _compile_solve(s, ctx)[:3]


def _compile_solve(s: Scenario, ctx: Optional[str]):
    """``(feasible, capital, room, objective)`` for decision points ``x =
    (B_b, B_s, B_i, B_n)`` under the overlay ``ctx``, reading once what ``x``
    does not change. ``feasible(x)``: commission coverage c*P - max(0,
    B_b+B_s+B_i) holds with the slack ``need``; ``room`` is c*P - need.
    ``capital(x)``: SC_br + RC_br, each moved from its base value by its
    links' f(x_j) - f(base_j); with no link at all it raises
    MissingCapitalResponse. ``objective(w_capital, w_cost)``: ``w_capital *
    capital(x) - w_cost * (B_b+B_s+B_i+B_n)`` if ``feasible(x)``, else -inf,
    as one closure with the same float operations.
    """
    cp = s.value("c", ctx) * s.value("P", ctx)
    need = FEASIBILITY_SLACK * max(1.0, abs(cp))

    def feasible(x: Sequence[float]) -> bool:
        return cp - max(0.0, x[0] + x[1] + x[2]) >= need

    groups = []
    for sym in CAPITAL_SYMBOLS:
        links = []
        for j, drv in enumerate(DECISION_FIELDS):
            r = s.response_for(sym, drv, ctx)
            if r is not None:
                links.append((j, r, eval_response(r, s.value(drv, ctx))))
        groups.append((s.value(sym, ctx), tuple(links)))
    linked = any(links for _, links in groups)

    def capital(x: Sequence[float]) -> float:
        if not linked:
            raise MissingCapitalResponse(
                "neither SC_br nor RC_br has a declared response on any of "
                f"{DECISION_FIELDS}")
        total = 0.0
        for value, links in groups:
            for j, r, at_base in links:
                value += eval_response(r, x[j]) - at_base
            total += value
        return total

    def objective(w_capital: float, w_cost: float) -> Callable[[Sequence[float]], float]:
        if not linked:
            return lambda x: capital(x) if feasible(x) else -math.inf

        def f(x: Sequence[float]) -> float:
            spent = x[0] + x[1] + x[2]  # max(0.0, spent) is spent only if spent > 0.0
            if not (cp - (spent if spent > 0.0 else 0.0) >= need):
                return -math.inf
            total = 0.0
            for value, links in groups:
                for j, r, at_base in links:
                    value += eval_response(r, x[j]) - at_base
                total += value
            return w_capital * total - w_cost * (spent + x[3])

        return f

    return feasible, capital, cp - need, objective


def _weights(mode: str, weights: tuple[float, float]) -> tuple[float, float]:
    """``(w_capital, w_cost)``: the objective is weighted capital minus the
    weighted cost total; the combined mode's unit weights change no bit."""
    if mode not in OBJECTIVE_MODES:
        raise ValueError(f"unknown objective mode {mode!r}")
    return (weights[0], weights[1]) if mode == "weighted" else (1.0, 1.0)


def _point(d: DecisionVector) -> tuple[float, ...]:
    return d.B_b, d.B_s, d.B_i, d.B_n


def evaluate_capital(s: Scenario, d: DecisionVector, ctx: Optional[str]) -> float:
    """SC_br + RC_br at the decision point (see ``_compile``)."""
    return _compile(s, ctx)[1](_point(d))


def is_feasible(s: Scenario, d: DecisionVector, ctx: Optional[str] = None) -> bool:
    """Strict commission coverage, checked with numeric slack."""
    return _compile(s, ctx)[0](_point(d))


def broker_objective(s: Scenario, d: DecisionVector, mode: str = "combined",
                     weights: tuple[float, float] = (1.0, 1.0)) -> float:
    """Capital-versus-cost objective under the argmin listing-state overlay."""
    x = _point(d)
    capital = _compile(s, argmin_state(s))[1](x)
    w_capital, w_cost = _weights(mode, weights)
    return w_capital * capital - w_cost * (x[0] + x[1] + x[2] + x[3])


def _pattern_search(f: Callable[[Sequence[float]], float],
                    lows: Sequence[float], highs: Sequence[float],
                    x0: Sequence[float]):
    """Compass pattern search over a box; f may return -inf for infeasible.

    Besides the compass moves, the pattern probes pairwise trade moves
    (+step on one coordinate, -step on another), which lets the search slide
    along an active budget constraint such as the epsilon cost cap.

    The polls clip ``min(max(v, lo), hi)`` by the builtins' own tests (``lo >
    v``, then ``hi < v``): the same float, NaN and signed zeros included.
    """
    dims = [j for j in range(len(lows)) if highs[j] > lows[j]]
    widths = [highs[j] - lows[j] for j in range(len(lows))]
    steps = [w * INIT_STEP_FRAC for w in widths]
    x = [min(max(v, lo), hi) for v, lo, hi in zip(x0, lows, highs)]
    fx = f(x)
    boxes = [(j, lows[j], highs[j]) for j in dims]
    pairs = [(i, lows[i], highs[i], j, lows[j], highs[j])
             for i in dims for j in dims if i != j]
    iterations = 0
    while iterations < MAX_ITER:
        iterations += 1
        best_fx, best_x = fx, None
        for j, lo, hi in boxes:
            xj, step = x[j], steps[j]
            for v in (xj + step, xj - step):
                v = lo if lo > v else v
                v = hi if hi < v else v
                if v == xj:
                    continue
                trial = x.copy()
                trial[j] = v
                ft = f(trial)
                if ft > best_fx:
                    best_fx, best_x = ft, trial
        for i, lo_i, hi_i, j, lo_j, hi_j in pairs:
            # equal step both ways: tangent to a cost-budget facet
            si, sj = steps[i], steps[j]
            delta = sj if sj < si else si
            xi, xj = x[i], x[j]
            vi, vj = xi + delta, xj - delta
            vi = lo_i if lo_i > vi else vi
            vi = hi_i if hi_i < vi else vi
            vj = lo_j if lo_j > vj else vj
            vj = hi_j if hi_j < vj else vj
            if vi == xi and vj == xj:
                continue
            trial = x.copy()
            trial[i] = vi
            trial[j] = vj
            ft = f(trial)
            if ft > best_fx:
                best_fx, best_x = ft, trial
        if best_x is not None:
            x, fx = best_x, best_fx
            continue
        halved = [st * 0.5 for st in steps]
        if all(halved[j] < TOL_FRAC * widths[j] for j in dims):
            break
        if halved == steps:  # all 0: every later poll is empty, to MAX_ITER
            return x, fx, MAX_ITER
        steps = halved
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
    u = doubles(cfg.seed, stream)
    starts = [list(lows)]
    for _ in range(max(0, cfg.restarts)):
        raw = [lo + next(u) * (hi - lo) for lo, hi in zip(lows, highs)]
        starts.append(_feasible_start(raw, lows, ok))
    best_x, best_fx, total_iter = None, -math.inf, 0
    for start in starts:
        x, fx, iters = _pattern_search(f, lows, highs, start)
        total_iter += iters
        if fx > best_fx:
            best_x, best_fx = x, fx
    return best_x, best_fx, total_iter


def optimize_broker(s: Scenario, bounds: Bounds,
                    cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Feasible local maximizer of the broker objective by pattern search."""
    ctx = argmin_state(s)
    lows, highs = bounds.lows, bounds.highs
    feasible, capital, _, objective = _compile_solve(s, ctx)
    if not feasible(lows):
        return OptResult(decision=None, objective=None, feasible=False,
                         iterations=0, mode=cfg.mode)
    capital(lows)  # surfaces MissingCapitalResponse before any search work
    f = objective(*_weights(cfg.mode, cfg.weights))
    best_x, best_fx, total_iter = _best_of_restarts(f, feasible, lows, highs, cfg, 0)
    return OptResult(decision=DecisionVector(*best_x, state=ctx), objective=best_fx,
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
    feasible, capital, room = _compile(s, ctx)
    if not feasible(lows):
        return []
    capital(lows)  # surfaces MissingCapitalResponse before any search work

    cost_min = sum(lows)
    cost_max = highs[3] + min(highs[0] + highs[1] + highs[2], room)

    raw_points: list[ParetoPoint] = []
    for j, eps in enumerate(_linspace(cost_min, cost_max, k)):
        eps_tol = eps + 1e-12 * max(1.0, abs(eps))

        def ok(x: Sequence[float]) -> bool:
            return feasible(x) and sum(x) <= eps_tol

        def f(x: Sequence[float]) -> float:
            return capital(x) if ok(x) else -math.inf

        best_x, best_fx, _ = _best_of_restarts(f, ok, lows, highs, cfg, j + 1)
        if best_x is not None and math.isfinite(best_fx):
            d = DecisionVector(*best_x, state=ctx)
            raw_points.append(ParetoPoint(cost=d.cost, capital=best_fx, decision=d))

    return filter_nondominated(raw_points)


def _linspace(start: float, stop: float, k: int) -> list[float]:
    """The float64 ``linspace(start, stop, k)``, k >= 2, as a list, by its formula."""
    start, stop, div = float(start), float(stop), k - 1
    step = (stop - start) / div  # 0 on a subnormal span: then i / div * span
    return [i / div * (stop - start) + start if step == 0 else i * step + start
            for i in range(div)] + [stop]


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
