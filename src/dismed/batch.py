"""Sweep draws evaluated as one batch.

A sweep changes values only. The responses, overlays, time paths and config
are the base scenario's for every draw, so every declared link, and with it
every Indeterminate derivative term, is fixed for the whole sweep; only the
arithmetic changes from draw to draw. This module draws a block of indices
into one ``(n, len(SYMBOLS))`` matrix, each row from its own unchanged
``SeedSequence([seed, i]) -> PCG64`` stream. It validates the value-dependent
invariants of all rows at once and redraws only the rejected rows from their
own streams.

It has no compiler of its own. It supplies :data:`ARRAY`, the
:class:`~dismed.calculus.Algebra` whose interval endpoints hold one value per
draw, and ``_Draws``, a block of draws that reads like a Scenario; the
config's condition forms are compiled with them by the same code
(``conditions.compile_part``/``compile_guard``) that compiles ``decide``.
Argmax contexts and max-axis winners are per-draw selections among the
candidates. The result is status codes and set decisions, with no per-draw
Scenario, verdict or trace.

Every array operation rounds as its scalar counterpart in ``calculus`` and
``model`` does: elementwise IEEE arithmetic in the same order, Python's
first-extreme-wins ``min``/``max`` as selections, Horner and knot
interpolation as in ``eval_response`` (``np.interp`` rounds differently),
``h ** 3`` and ``canonical_round`` element by element in Python, and no
reduction over floats. Where the scalar path raises or may raise (an invalid
or zero-containing interval, a rejection limit, a time path that does not
cover the horizon, an indeterminate integrand), :func:`evaluate` returns
None and the caller replays the block through the scalar path, which raises
the same exception from the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .calculus import INF, Algebra, _mul as _scalar_mul
from .conditions import (
    _COMPILED_CONFIGS,
    ConditionSet,
    Form,
    SetDecision,
    Status,
    compile_guard,
    compile_part,
    condition_ids,
    config_forms,
)
from .config import RunConfig
from .errors import DismedError
from .model import (
    PROBABILITY_SYMBOLS,
    RESPONSE_CONSISTENCY_RTOL,
    SYMBOLS,
    ResponseFunction,
    Scenario,
    canonical_round,
    checked_responses,
    eval_response,
    validate_scenario,
)
from .simulate import MAX_REJECTIONS_PER_DRAW, DistributionSpec

#: Draws evaluated together: bounds a block's memory whatever the sweep size;
#: per-draw cost stops falling at about this size.
ROWS = 1024

#: Status codes index STATUSES; set decision codes index DECISIONS.
STATUSES = (Status.SATISFIED, Status.VIOLATED, Status.VACUOUS, Status.INDETERMINATE)
SATISFIED, VIOLATED, VACUOUS, INDETERMINATE = range(4)
DECISIONS = (SetDecision.SATISFIED, SetDecision.NOT_SATISFIED, SetDecision.INDETERMINATE)
SET_SATISFIED, SET_NOT_SATISFIED, SET_INDETERMINATE = range(3)

_INFORMATION = ("I", "I_p", "I_i")


class Replay(Exception):
    """The scalar path must decide this block: it raises there, or may."""


# ---------------------------------------------------------------------------
# The array interval algebra
# ---------------------------------------------------------------------------
#
# An endpoint is an array with one value per draw, or a plain float where it
# is the same in every draw (symbols no draw changes, constants, unknown
# terms). Where all endpoints are plain floats an operation computes in
# Python, as the scalar one does. A point interval's endpoints are one
# object, and an operation on points computes its single endpoint once: the
# scalar operations give lower == upper there too.

def _floats(*xs) -> bool:
    return all(type(x) is float for x in xs)


def _first(xs, larger: bool):
    """Python's max/min over ``xs``: a later value replaces the current one
    only when strictly better, so the first of equal values (or a NaN) stays."""
    if _floats(*xs):
        return max(xs) if larger else min(xs)
    better = np.greater if larger else np.less
    best = xs[0]
    for x in xs[1:]:
        best = np.where(better(x, best), x, best)
    return best


def _check(lo, hi):
    ok = lo <= hi  # False for a NaN endpoint or lower > upper
    if not (ok if type(ok) is bool else ok.all()):
        raise Replay
    return lo, hi


def _mul(a, b):
    if _floats(a, b):
        return _scalar_mul(a, b)
    return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)  # 0 * inf = 0


def _point(x):
    _check(x, x)
    return x, x


def _bounds(xs):
    return _check(_first(xs, False), _first(xs, True))


def _add(a, b):
    if a[0] is a[1] and b[0] is b[1]:
        return _point(a[0] + b[0])
    return _check(a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    if a[0] is a[1] and b[0] is b[1]:
        return _point(a[0] - b[0])
    return _check(a[0] - b[1], a[1] - b[0])


def _imul(a, b):
    if a[0] is a[1] and b[0] is b[1]:
        return _point(_mul(a[0], b[0]))
    return _bounds((_mul(a[0], b[0]), _mul(a[0], b[1]), _mul(a[1], b[0]), _mul(a[1], b[1])))


def _scale(a, k):
    if a[0] is a[1]:
        return _point(_mul(a[0], k))
    return _bounds((_mul(a[0], k), _mul(a[1], k)))


def _div(a, b):
    zero = (b[0] <= 0.0) & (0.0 <= b[1])
    if zero if type(zero) is bool else zero.any():
        raise Replay
    if b[0] is b[1]:
        r = 1.0 / b[0]
        return _imul(a, (r, r))
    return _imul(a, _bounds((1.0 / b[0], 1.0 / b[1])))


def _extremum(vs, larger):
    if all(v[0] is v[1] for v in vs):
        return _point(_first([v[0] for v in vs], larger))
    return _check(_first([v[0] for v in vs], larger), _first([v[1] for v in vs], larger))


def _abs(a):
    lo, hi = a
    nonneg, nonpos = lo >= 0, hi <= 0
    return (np.where(nonneg, lo, np.where(nonpos, -hi, 0.0)),
            np.where(nonneg, hi, np.where(nonpos, -lo, _first((-lo, hi), True))))


def _joint(a, b, intersection):
    if _floats(a[0], a[1], b[0], b[1]):
        if a[0] == a[1] and b[0] == b[1]:
            return _point(_first((a[0], b[0]), False) if intersection == "min" else a[0] * b[0])
        return -INF, INF
    points = (a[0] == a[1]) & (b[0] == b[1])
    v = a[0] * b[0] if intersection == "product" else _first((a[0], b[0]), False)
    return _check(np.where(points, v, -INF), np.where(points, v, INF))


def _cube(h):
    # Python's pow, element by element: numpy's power may round differently
    if type(h) is float:
        return h ** 3
    return np.array([x ** 3 for x in np.ravel(h).tolist()]).reshape(np.shape(h))


def _response(r: ResponseFunction, x):
    """``eval_response`` over per-draw driver values, in the same operations."""
    if type(x) is float:
        return eval_response(r, x)
    if r.kind == "polynomial":
        acc = 0.0
        for coef in reversed(r.coeffs):
            acc = acc * x + coef
        return acc
    ks = r.knots
    if len(ks) == 1:
        return ks[0][1]
    xs, ys = np.array([k[0] for k in ks]), np.array([k[1] for k in ks])
    # the segment the scalar bisection finds; the end segments extrapolate
    lo = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(ks) - 2)
    x0, y0 = xs[lo], ys[lo]
    t = (x - x0) / (xs[lo + 1] - x0)
    return y0 + t * (ys[lo + 1] - y0)


def _select(rows, a, b):
    """``a`` in the given rows, ``b`` elsewhere (intervals endpoint-wise)."""
    if isinstance(a, tuple):
        return tuple(np.where(rows, x, y) for x, y in zip(a, b))
    return np.where(rows, a, b)


# ---------------------------------------------------------------------------
# A block of draws
# ---------------------------------------------------------------------------

class _Draws:
    """The drawn scenarios of one block: one array per symbol that the sweep
    varies (a plain float for every other symbol), plus the base scenario's
    overlays, links and time paths, which no draw changes."""

    def __init__(self, base: Scenario, X: np.ndarray, varying: set):
        self.base = base
        self.n = len(X)
        self.columns = {SYMBOLS[name]: np.ascontiguousarray(X[:, SYMBOLS[name]])
                        for name in varying}
        self._winners: dict = {}

    def value(self, name: str, ctx: Optional[str] = None):
        if ctx is not None:
            ov = self.base.overlays.get(ctx)
            if ov is not None and name in ov:
                return float(ov[name])
        k = SYMBOLS[name]
        column = self.columns.get(k)
        return self.base.values[k] if column is None else column

    def bundle_value(self, names, ctx: Optional[str] = None):
        total = 0.0
        for name in names:
            total = total + self.value(name, ctx)
        return total

    def response_for(self, driven: str, driver: str, ctx: Optional[str] = None):
        return self.base.response_for(driven, driver, ctx)

    def time_path_for(self, symbol: str):
        return self.base.time_path_for(symbol)

    def per_winner(self, names: tuple, ctx: Optional[str], fn: Callable):
        """``fn(name, value)`` for the name with the largest value under
        ``ctx`` in each draw, ties to the earlier name (``argmax_state`` and
        max axes)."""
        win = self._winners.get((names, ctx))
        if win is None:
            win, best = -1, -INF
            for k, name in enumerate(names):
                v = self.value(name, ctx)
                larger = v > best
                win, best = np.where(larger, k, win), np.where(larger, v, best)
            if np.any(win < 0):  # no finite candidate: the scalar path decides
                raise Replay
            win = self._winners[names, ctx] = np.broadcast_to(win, self.n)
        out = None
        for k, name in enumerate(names):
            rows = win == k
            if not rows.any():
                continue
            value = fn(name, self.value(name, ctx))
            if rows.all():
                return value
            out = value if out is None else _select(rows, value, out)
        return out


ARRAY = Algebra(point=_point, add=_add, sub=_sub, mul=_imul, div=_div, scale=_scale,
                extremum=_extremum, joint=_joint, abs=_abs, cube=_cube,
                larger=lambda xs: _first(xs, True),
                is_point=lambda v: v[0] is v[1] or bool(np.all(v[0] == v[1])),
                response=lambda r, x: _point(_response(r, x)), per_winner=_Draws.per_winner,
                unknown=(-INF, INF))


# ---------------------------------------------------------------------------
# Conditions over a block
# ---------------------------------------------------------------------------

def _condition(form: Form, cfg: RunConfig):
    """Compiled condition over a block: draws -> (status codes, rows excluded
    from aggregation or None). Parts run in every draw, also where the guard
    fails; a part that cannot be evaluated in such a draw only costs a replay."""
    parts = tuple(compile_part(p, cfg, ARRAY) for p in form.parts)
    guard = None if form.guard is None else compile_guard(form.guard, cfg, ARRAY)
    failed = VIOLATED if cfg.guard_mode == "violated" else VACUOUS
    skip = cfg.guard_mode == "skip"

    def run(b: _Draws):
        violated = undecided = False
        for lhs, rhs, compare in parts:
            holds, fails = compare(lhs(b, None), None if rhs is None else rhs(b, None))
            violated = np.logical_or(violated, fails)
            undecided = np.logical_or(undecided, np.logical_not(np.logical_or(holds, fails)))
        status = np.where(violated, VIOLATED, np.where(undecided, INDETERMINATE, SATISFIED))
        if guard is None:
            return np.broadcast_to(status, b.n), None
        passed = np.broadcast_to(guard(b, None), b.n)
        return np.where(passed, status, failed), (~passed if skip else None)
    return run


@lru_cache(maxsize=_COMPILED_CONFIGS)
def _table(cfg: RunConfig, fingerprint: str) -> tuple:
    # keyed like conditions._compiled_table, whose forms it compiles
    return tuple(_condition(form, cfg) for form in config_forms(cfg))


def _decisions(statuses: np.ndarray, skipped: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Set decisions per draw, as ``conditions._aggregate`` makes them."""
    out, start = [], 0
    for cset in ConditionSet:
        stop = start + len(condition_ids(cset))
        st, considered = statuses[:, start:stop], ~skipped[:, start:stop]
        start = stop
        total = considered.sum(axis=1)
        violated = ((st == VIOLATED) & considered).any(axis=1)
        undecided = ((st == INDETERMINATE) & considered).sum(axis=1)
        if cfg.aggregation == "conjunction":
            d = np.where(violated, SET_NOT_SATISFIED,
                         np.where(undecided > 0, SET_INDETERMINATE, SET_SATISFIED))
        else:
            held = (((st == SATISFIED) | (st == VACUOUS)) & considered).sum(axis=1)
            d = np.where(held / total >= cfg.quorum, SET_SATISFIED,
                         np.where((held + undecided) / total >= cfg.quorum,
                                  SET_INDETERMINATE, SET_NOT_SATISFIED))
            if cfg.quorum_violations_block:
                d = np.where(violated, SET_NOT_SATISFIED, d)
        out.append(np.where(total == 0, SET_SATISFIED, d))
    return np.stack(out, axis=1)


# ---------------------------------------------------------------------------
# Drawing and validation
# ---------------------------------------------------------------------------

def _identity_holds(n: int, I, I_p, I_i) -> np.ndarray:
    """canonical_round(I) == canonical_round(I_p + I_i) per draw; exact float
    equality settles most draws, the rest are rounded one by one."""
    I, total = np.broadcast_to(I, n), np.broadcast_to(I_p + I_i, n)
    ok = I == total
    for k in np.flatnonzero(~ok).tolist():
        ok[k] = canonical_round(float(I[k])) == canonical_round(float(total[k]))
    return ok


def _valid_rows(base: Scenario, X: np.ndarray, varying: set, links: list) -> np.ndarray:
    """Rows of ``X`` that pass the value checks of ``validate_scenario``.

    ``links`` are the structurally valid responses that read a symbol in
    ``varying``. A check that reads only symbols no draw changes gives the
    same answer in every row; the scalar validation of one accepted row
    covers it.
    """
    b = _Draws(base, X, varying)
    P, P_b, c, I_i = b.value("P"), b.value("P_b"), b.value("c"), b.value("I_i")
    ok = np.isfinite(X).all(axis=1) & (P > 0) & (P_b > 0) & (0.0 < c) & (c < 1.0)
    for name in PROBABILITY_SYMBOLS:
        v = b.value(name)
        ok &= (0.0 <= v) & (v <= 1.0)
    ok &= np.greater_equal(b.value("I_o"), I_i)
    if varying.intersection(_INFORMATION):
        ok &= _identity_holds(b.n, *(b.value(n) for n in _INFORMATION))
        for state, ov in base.overlays.items():
            if set(_INFORMATION) & set(ov):
                ok &= _identity_holds(b.n, *(b.value(n, state) for n in _INFORMATION))
    for r, parts, ctx in links:
        x0, y0 = b.bundle_value(parts, ctx), b.value(r.driven, ctx)
        drift = abs(_response(r, x0) - y0)
        tol = RESPONSE_CONSISTENCY_RTOL * _first((1.0, abs(y0)), True)
        ok &= np.logical_not(np.isfinite(x0) & np.isfinite(y0) & np.greater(drift, tol))
        if r.driven == "I" and r.driver == "B_b":
            h = 1e-3 * _first((1.0, abs(x0)), True)
            up, down = _response(r, x0 + h), _response(r, x0 - h)
            d1 = (up - down) / (2 * h)
            d2 = (up - 2 * _response(r, x0) + down) / (h * h)
            ok &= np.logical_not(np.isfinite(x0) & np.logical_not((d1 > 0) & (d2 > 0)))
    return ok


def _draw(base: Scenario, dist: DistributionSpec, seed: int, start: int,
          stop: int) -> tuple[np.ndarray, np.ndarray, set]:
    """Accepted draws start..stop-1 as matrix rows, each one's rejections (the
    values and counts ``draw_scenario`` gives for the same indices), and the
    symbols the draws change."""
    names = tuple(dist.marginals)
    marginals = tuple(dist.marginals.values())
    cols = [SYMBOLS[name] for name in names]
    varying = set(names)
    derive_I = ("I_p" in varying or "I_i" in varying) and "I" not in varying
    if derive_I:
        varying.add("I")
    links = [(r, parts, ctx) for r, parts, ctx in checked_responses(base, lambda *violation: None)
             if varying.intersection((r.driven, *parts))]
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(start, stop)]
    X = np.tile(np.array(base.values, dtype=float), (len(rngs), 1))
    rejections = np.zeros(len(rngs), dtype=np.int64)
    todo = np.arange(len(rngs))
    while True:
        if cols:
            X[np.ix_(todo, cols)] = [[m.draw(rngs[i]) for m in marginals]
                                     for i in todo.tolist()]
        if derive_I:
            X[todo, SYMBOLS["I"]] = X[todo, SYMBOLS["I_p"]] + X[todo, SYMBOLS["I_i"]]
        todo = todo[~_valid_rows(base, X[todo], varying, links)]
        if not len(todo):
            break
        rejections[todo] += 1
        if rejections[todo].max() > MAX_REJECTIONS_PER_DRAW:
            raise Replay  # RejectionLimit on the scalar path
    # Structural invariants do not depend on values: the scalar validator,
    # run once on one accepted row, confirms them for the whole block.
    if not validate_scenario(replace(base, values=tuple(X[0].tolist()))).ok:
        raise Replay
    return X, rejections, varying


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Evaluation:
    """Draws start..stop-1 of a sweep, one row per draw."""
    statuses: np.ndarray    # (n, 44) codes into STATUSES, registry order
    decisions: np.ndarray   # (n, 3) codes into DECISIONS, ConditionSet order
    rejections: np.ndarray  # (n,) rejected candidates before each draw


def evaluate(base: Scenario, dist: DistributionSpec, seed: int, start: int, stop: int,
             cfg: RunConfig) -> Optional[Evaluation]:
    """Evaluate draws start..stop-1 as one batch, or return None where the
    scalar path must decide them (it raises for one of them, or may)."""
    table = _table(cfg, cfg.fingerprint)
    # Besides Replay, the shared scalar helpers may raise: PathCoverageError
    # from a time path, OverflowError from h ** 3 or a marginal's range.
    try:
        with np.errstate(all="ignore"):
            X, rejections, varying = _draw(base, dist, seed, start, stop)
            draws = _Draws(base, X, varying)
            results = [run(draws) for run in table]
            statuses = np.stack([st for st, _ in results], axis=1).astype(np.int8)
            skipped = np.zeros(statuses.shape, dtype=bool)
            for k, (_, excluded) in enumerate(results):
                if excluded is not None:
                    skipped[:, k] = excluded
            decisions = _decisions(statuses, skipped, cfg)
    except (Replay, DismedError, ArithmeticError):
        return None
    return Evaluation(statuses, decisions, rejections)
