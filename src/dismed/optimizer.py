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
Each solve compiles its objective once: every capital link becomes a closure
(``model.compile_response``) that a trial point calls directly, in the same
float operations as ``eval_response``: unrolled for a three-coefficient
polynomial, Horner's loop for other lengths, and the one interpolation rule
for a piecewise-linear link, which no benchmark instance holds.

The searches of one solve share their checkpoints: a poll that finds no
improvement, keyed by the step level and the bits of x. Those two fix the
rest of a search, so a later start whose poll fails at a checkpoint an
earlier search passed returns that search's end at once, counting the
iterations the earlier search ran from there. Every result keeps its bits
and its iteration count.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Optional, Sequence

from .calculus import argmin_state
from .errors import MissingCapitalResponse, ParseError
from .model import DECISION_FIELDS, Scenario, compile_response, eval_response
from .pcg import doubles
from .record import FLAG, MANY, NUMBER, OPTIONAL, TEXT, Record, _number

FEASIBILITY_SLACK = 1e-9
INIT_STEP_FRAC = 0.125   # the first step, as a fraction of each box width
TOL_FRAC = 1e-6          # stop once every step is below this fraction
MAX_ITER = 100_000       # pattern-search iterations per start
# A trade move shifts a wide coordinate by a narrow one's step, so a search's
# iterations grow with the ratio of the free widths (about 500 per start at
# 1e3 and 4,500 at 1e4 on broker_opt.json); Bounds refuses wider ratios.
MAX_WIDTH_RATIO = 1e3
# A pareto level is one full solve (about 0.9 ms on broker_opt.json), so
# 10,000 levels take about 10 s from the CLI (9.0-10.7 s in three runs); the
# bound keeps a sweep's level list and frontier that size instead of whatever
# --points asks for.
MAX_PARETO_POINTS = 10_000
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
    _payload = tuple((name, name, (MANY, NUMBER)) for name in DECISION_FIELDS)

    def __post_init__(self):
        free = []  # (width, name) of each free field
        for name in DECISION_FIELDS:
            if len(getattr(self, name)) != 2:
                raise ParseError(f"bounds for {name} must be a [lo, hi] pair")
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
            value = getattr(self, name)
            if type(value) is not int:
                raise ParseError(f"{name} = {value!r} must be an int")
            if value < 0:  # a count, and SeedSequence takes no negative entropy
                raise ParseError(f"{name} = {value} must be >= 0")


class OptResult(Record):
    decision: Optional[DecisionVector]
    objective: Optional[float]
    feasible: bool
    iterations: int
    mode: str

    _payload = (("feasible", "feasible", FLAG), ("objective", "objective", NUMBER),
                ("iterations", "iterations", NUMBER), ("mode", "mode", TEXT),
                ("decision", "decision", (OPTIONAL, DecisionVector)))


class ParetoPoint(Record):
    cost: float
    capital: float
    decision: DecisionVector

    _payload = (("cost", "cost", NUMBER), ("capital", "capital", NUMBER),
                ("decision", "decision", DecisionVector))


class Frontier(list):
    """``pareto_sweep``'s points: they render as ParetoPoints even when none."""
    _kind = (MANY, ParetoPoint)


def _budget(s: Scenario, ctx: Optional[str]):
    """``(feasible, cp, need)``: the commission budget c*P, its slack and the
    coverage test of ``_compile_solve``, which read no link."""
    cp = s.value("c", ctx) * s.value("P", ctx)
    need = FEASIBILITY_SLACK * max(1.0, abs(cp))

    def feasible(x: Sequence[float]) -> bool:
        return cp - max(0.0, x[0] + x[1] + x[2]) >= need

    return feasible, cp, need


def _compile_solve(s: Scenario, ctx: Optional[str]):
    """``(feasible, capital, room, objective)`` for decision points ``x =
    (B_b, B_s, B_i, B_n)`` under the overlay ``ctx``, reading once what ``x``
    does not change. ``feasible(x)``: commission coverage c*P - max(0,
    B_b+B_s+B_i) holds with the slack ``need``; ``room`` is c*P - need.
    ``capital(x)``: SC_br + RC_br, each moved from its base value by its
    links' f(x_j) - f(base_j); with no link at all it raises
    MissingCapitalResponse. ``objective(w_capital, w_cost)``: ``w_capital *
    capital(x) - w_cost * (B_b+B_s+B_i+B_n)`` if ``feasible(x)``, else -inf;
    with one link per capital symbol (every benchmark solve) the same floats
    come from one closure that calls neither. Each link is kept as ``(j, f,
    f(base_j))``: f is the closure ``compile_response`` builds once, so a
    trial point costs one closure call per link; f(base_j) is evaluated once
    by ``eval_response``.
    """
    feasible, cp, need = _budget(s, ctx)
    groups = []
    for sym in CAPITAL_SYMBOLS:
        links = []
        for j, drv in enumerate(DECISION_FIELDS):
            r = s.response_for(sym, drv, ctx)
            if r is not None:
                links.append((j, compile_response(r), eval_response(r, s.value(drv, ctx))))
        groups.append((s.value(sym, ctx), tuple(links)))
    # one accumulator per capital symbol, in CAPITAL_SYMBOLS order: a loop
    # over the two would cost a trial point more than its links do
    (sc, sc_links), (rc, rc_links) = groups
    linked = bool(sc_links or rc_links)

    def capital(x: Sequence[float]) -> float:
        if not linked:
            raise MissingCapitalResponse(
                "neither SC_br nor RC_br has a declared response on any of "
                f"{DECISION_FIELDS}")
        a, b = sc, rc
        for j, compiled, at_base in sc_links:
            a += compiled(x[j]) - at_base
        for j, compiled, at_base in rc_links:
            b += compiled(x[j]) - at_base
        return 0.0 + a + b

    def objective(w_capital: float, w_cost: float) -> Callable[[Sequence[float]], float]:
        if len(sc_links) == len(rc_links) == 1:  # every broker-optimize instance
            # one link per capital symbol: the same sum as one expression
            ((i, sc_f, sc_at),), ((j, rc_f, rc_at),) = sc_links, rc_links

            def one_each(x: Sequence[float]) -> float:
                spent = x[0] + x[1] + x[2]  # max(0.0, spent) is spent only if spent > 0.0
                if not (cp - (spent if spent > 0.0 else 0.0) >= need):
                    return -math.inf
                total = 0.0 + (sc + (sc_f(x[i]) - sc_at)) + (rc + (rc_f(x[j]) - rc_at))
                return w_capital * total - w_cost * (spent + x[3])

            return one_each
        return lambda x: (w_capital * capital(x) - w_cost * (x[0] + x[1] + x[2] + x[3])
                          if feasible(x) else -math.inf)

    return feasible, capital, cp - need, objective


def _weights(mode: str, weights: tuple[float, float]) -> tuple[float, float]:
    """``(w_capital, w_cost)``: the objective is weighted capital minus the
    weighted cost total; the combined mode's unit weights change no bit."""
    return (weights[0], weights[1]) if mode == "weighted" else (1.0, 1.0)


def _point(d: DecisionVector) -> tuple[float, ...]:
    return d.B_b, d.B_s, d.B_i, d.B_n


def evaluate_capital(s: Scenario, d: DecisionVector, ctx: Optional[str]) -> float:
    """SC_br + RC_br at the decision point (see ``_compile_solve``)."""
    return _compile_solve(s, ctx)[1](_point(d))


def is_feasible(s: Scenario, d: DecisionVector, ctx: Optional[str] = None) -> bool:
    """Strict commission coverage, checked with numeric slack."""
    return _budget(s, ctx)[0](_point(d))


def _pattern_search(f: Callable[[Sequence[float]], float],
                    lows: Sequence[float], highs: Sequence[float],
                    x0: Sequence[float], seen: Optional[dict] = None):
    """Compass pattern search over a box; f may return -inf for infeasible.

    Besides the compass moves, the pattern probes pairwise trade moves
    (+step on one coordinate, -step on another), which lets the search slide
    along an active budget constraint such as the epsilon cost cap.

    The polls clip ``min(max(v, lo), hi)`` by the builtins' own tests (``lo >
    v``, then ``hi < v``): the same float, NaN and signed zeros included.

    ``seen`` holds the checkpoints of earlier searches of the same f over the
    same box. A checkpoint is a poll that finds no improvement, keyed by the
    step level and the bits of x, which fix the rest of the search; it maps to
    that search's end ``(x, f(x), iterations run, stopped at zero steps)`` and
    the iterations it had run at the checkpoint. A search whose poll fails at
    a known checkpoint returns that end at once, with its own count plus the
    rest, if the sum stays within ``MAX_ITER``. A search that ends records its
    checkpoints; one cut by ``MAX_ITER`` records none.
    """
    if seen is None:
        seen = {}
    dims = [j for j in range(len(lows)) if highs[j] > lows[j]]
    widths = [highs[j] - lows[j] for j in range(len(lows))]
    steps = [w * INIT_STEP_FRAC for w in widths]
    # a fixed coordinate's step is 0: its inf stop lets the others decide
    stops = [TOL_FRAC * w if hi > lo else math.inf for w, lo, hi in zip(widths, lows, highs)]
    x = [min(max(v, lo), hi) for v, lo, hi in zip(x0, lows, highs)]
    fx = f(x)
    boxes = [(j, lows[j], highs[j]) for j in dims]
    pairs = [(i, lows[i], highs[i], j, lows[j], highs[j])
             for i in dims for j in dims if i != j]
    bits = struct.Struct(f"{len(x)}d").pack
    level, passed = 0, []  # passed: (checkpoint, iterations) of this search
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
        checkpoint = (level, bits(*x))
        known = seen.get(checkpoint)
        if known is not None:
            (x_end, fx_end, ran, zero), at = known
            if iterations + ran - at <= MAX_ITER:
                end = x_end, fx_end, iterations + ran - at, zero
                break
        passed.append((checkpoint, iterations))
        halved = [st * 0.5 for st in steps]
        if all(map(operator.lt, halved, stops)):
            end = x, fx, iterations, False
            break
        if halved == steps:  # all 0: every later poll is empty, to MAX_ITER
            end = x, fx, iterations, True
            break
        steps = halved
        level += 1
    else:
        return x, fx, iterations
    for checkpoint, at in passed:
        seen[checkpoint] = end, at
    x, fx, ran, zero = end
    return x, fx, MAX_ITER if zero else ran


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
    the iterations of all searches, which share one dict of checkpoints."""
    u = doubles(cfg.seed, stream)
    starts = [list(lows)]
    for _ in range(cfg.restarts):
        raw = [lo + next(u) * (hi - lo) for lo, hi in zip(lows, highs)]
        starts.append(_feasible_start(raw, lows, ok))
    best_x, best_fx, total_iter, seen = None, -math.inf, 0, {}
    for start in starts:
        x, fx, iters = _pattern_search(f, lows, highs, start, seen)
        total_iter += iters
        if fx > best_fx:
            best_x, best_fx = x, fx
    return best_x, best_fx, total_iter


def optimize_broker(s: Scenario, bounds: Bounds,
                    cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Feasible local maximizer of the broker objective by pattern search;
    infeasible with 0 iterations where commission cannot cover the box's low
    corner, and after the search where no start scores above -inf."""
    ctx = argmin_state(s)
    lows, highs = bounds.lows, bounds.highs
    feasible, capital, _, objective = _compile_solve(s, ctx)
    if not feasible(lows):
        return OptResult(decision=None, objective=None, feasible=False,
                         iterations=0, mode=cfg.mode)
    capital(lows)  # surfaces MissingCapitalResponse before any search work
    f = objective(*_weights(cfg.mode, cfg.weights))
    best_x, best_fx, total_iter = _best_of_restarts(f, feasible, lows, highs, cfg, 0)
    if best_x is None:  # every start scores -inf: no point to return, as in pareto_sweep
        return OptResult(decision=None, objective=None, feasible=False,
                         iterations=total_iter, mode=cfg.mode)
    return OptResult(decision=DecisionVector(*best_x, state=ctx), objective=best_fx,
                     feasible=True, iterations=total_iter, mode=cfg.mode)


def pareto_sweep(s: Scenario, bounds: Bounds, k: int,
                 cfg: OptimizerConfig = OptimizerConfig()) -> Frontier:
    """Cost/capital frontier by the epsilon-constraint method.

    Maximizes capital subject to cost <= eps_j for k evenly spaced eps levels
    across the feasible cost range; dominated or duplicate results are
    filtered and the frontier is sorted by cost ascending. Infeasible boxes
    yield an empty frontier. k runs from 2 to ``MAX_PARETO_POINTS``.
    """
    if not 2 <= k <= MAX_PARETO_POINTS:
        raise ValueError(f"k must be in [2, {MAX_PARETO_POINTS}], got {k}")
    ctx = argmin_state(s)
    lows, highs = bounds.lows, bounds.highs
    feasible, capital, room, _ = _compile_solve(s, ctx)
    if not feasible(lows):
        return Frontier()
    capital(lows)  # surfaces MissingCapitalResponse before any search work

    # sum() of floats is compensated from Python 3.12: left to right from 0.0
    # is what it gives before, on every interpreter
    cost_min = 0.0 + lows[0] + lows[1] + lows[2] + lows[3]
    cost_max = highs[3] + min(highs[0] + highs[1] + highs[2], room)

    raw_points: list[ParetoPoint] = []
    for j, eps in enumerate(_linspace(cost_min, cost_max, k)):
        eps_tol = eps + 1e-12 * max(1.0, abs(eps))

        def ok(x: Sequence[float]) -> bool:
            return feasible(x) and 0.0 + x[0] + x[1] + x[2] + x[3] <= eps_tol

        def f(x: Sequence[float]) -> float:
            return capital(x) if ok(x) else -math.inf

        best_x, best_fx, _ = _best_of_restarts(f, ok, lows, highs, cfg, j + 1)
        if best_x is not None and math.isfinite(best_fx):
            d = DecisionVector(*best_x, state=ctx)
            raw_points.append(ParetoPoint(cost=d.cost, capital=best_fx, decision=d))

    return Frontier(filter_nondominated(raw_points))


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
