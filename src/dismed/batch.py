"""Sweep draws evaluated as one batch.

A sweep changes values only. The responses, overlays, time paths and config
are the base scenario's for every draw, so every declared link, and with it
every Indeterminate derivative term, is fixed for the whole sweep; only the
arithmetic changes from draw to draw. This module draws a block of indices
into one ``(n, len(SYMBOLS))`` matrix, each row from its own unchanged
``SeedSequence([seed, i]) -> PCG64`` stream. It validates the value-dependent
invariants of all rows at once and redraws only the rejected rows from their
own streams.

It has no compiler and no arithmetic of its own. ``_Draws`` is a block of
draws that reads like a Scenario (``value``, ``bundle_value``,
``response_for``, ``time_path_for``, ``per_winner``), where a symbol that the
sweep varies is an array with one value per draw. The compiled parts and
guards that ``decide`` runs on a Scenario (``conditions.compiled_conditions``)
run on it through the interval arithmetic of ``calculus``, whose array
endpoints round as its float ones do. Argmax contexts and max-axis winners
are per-draw selections among the candidates. The result is status codes and
set decisions, made by the rule ``decide`` uses, with no per-draw Scenario,
verdict or trace.

Where the scalar path raises or may raise (an invalid or zero-containing
interval, a rejection limit, a time path that does not cover the horizon, an
indeterminate integrand), :func:`evaluate` returns None and the caller
replays the block through the scalar path, which raises the same exception
from the same draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .calculus import INF, Replay, _first, _response
from .conditions import (
    ConditionSet,
    SetDecision,
    Status,
    _aggregate,
    compiled_conditions,
    condition_ids,
)
from .config import RunConfig
from .errors import DismedError
from .model import (
    PROBABILITY_SYMBOLS,
    RESPONSE_CONSISTENCY_RTOL,
    SYMBOLS,
    Scenario,
    canonical_round,
    checked_responses,
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


# ---------------------------------------------------------------------------
# Conditions over a block
# ---------------------------------------------------------------------------

def _condition(b: _Draws, parts: tuple, guard: Optional[Callable], cfg: RunConfig):
    """A compiled condition over a block: status codes, and the rows excluded
    from aggregation or None. Parts run in every draw, also where the guard
    fails; a part that cannot be evaluated in such a draw only costs a replay."""
    violated = undecided = False
    for lhs, rhs, compare in parts:
        holds, fails = compare(lhs(b, None), None if rhs is None else rhs(b, None))
        violated = np.logical_or(violated, fails)
        undecided = np.logical_or(undecided, np.logical_not(np.logical_or(holds, fails)))
    status = np.where(violated, VIOLATED, np.where(undecided, INDETERMINATE, SATISFIED))
    if guard is None:
        return np.broadcast_to(status, b.n), None
    passed = np.broadcast_to(guard(b, None), b.n)
    failed = VIOLATED if cfg.guard_mode == "violated" else VACUOUS
    return np.where(passed, status, failed), (~passed if cfg.guard_mode == "skip" else None)


def _decisions(statuses: np.ndarray, skipped: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Set decisions per draw: each distinct row of counts goes through
    ``conditions._aggregate``, the rule ``decide`` applies."""
    out, start = [], 0
    for cset in ConditionSet:
        stop = start + len(condition_ids(cset))
        st, considered = statuses[:, start:stop], ~skipped[:, start:stop]
        start = stop
        counts = np.stack([considered.sum(axis=1),
                           (((st == SATISFIED) | (st == VACUOUS)) & considered).sum(axis=1),
                           ((st == VIOLATED) & considered).sum(axis=1),
                           ((st == INDETERMINATE) & considered).sum(axis=1)], axis=1)
        # one key per distinct row: a set has at most 19 conditions, so < 32 each
        _, first, inverse = np.unique(counts @ (1 << 15, 1 << 10, 1 << 5, 1),
                                      return_index=True, return_inverse=True)
        codes = [DECISIONS.index(_aggregate(*row, cfg)) for row in counts[first].tolist()]
        out.append(np.array(codes)[inverse])
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
    table = compiled_conditions(cfg)
    # Besides Replay, an operation whose endpoints are all floats refuses as
    # the scalar path does (ValueError, DivisionByZeroInterval), also in a part
    # whose guard fails in every draw; PathCoverageError comes from a time
    # path, OverflowError from h ** 3 or a marginal's range.
    try:
        with np.errstate(all="ignore"):
            X, rejections, varying = _draw(base, dist, seed, start, stop)
            draws = _Draws(base, X, varying)
            results = [_condition(draws, parts, guard, cfg) for parts, guard in table]
            statuses = np.stack([st for st, _ in results], axis=1).astype(np.int8)
            skipped = np.zeros(statuses.shape, dtype=bool)
            for k, (_, excluded) in enumerate(results):
                if excluded is not None:
                    skipped[:, k] = excluded
            decisions = _decisions(statuses, skipped, cfg)
    except (Replay, DismedError, ArithmeticError, ValueError):
        return None
    return Evaluation(statuses, decisions, rejections)
