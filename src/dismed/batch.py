"""Sweep draws evaluated as one batch.

A sweep changes values only. The responses, overlays, time paths and config
are the base scenario's for every draw, so every declared link, and with it
every Indeterminate derivative term, is fixed for the whole sweep; only the
arithmetic changes from draw to draw. This module draws a block of indices
into one ``(n, len(SYMBOLS))`` matrix, each row from its own unchanged
``SeedSequence([seed, i]) -> PCG64`` stream.

It has no compiler, arithmetic or checks of its own. A block of draws is a
plain Scenario (:func:`block`) whose symbols that the sweep varies hold one
value per draw. The model's one invariant walker (``model.check_scenario``)
validates all its rows at once, and only the rejected rows are redrawn, from
their own streams. The compiled parts and guards that ``decide`` runs
(``conditions.compiled_conditions``) run on it through the interval
arithmetic of ``calculus``, whose array endpoints round as its float ones do;
argmax contexts and max-axis winners are per-draw selections
(``Scenario.per_winner``). The result is status codes and set decisions,
made by the rule ``decide`` uses, with no per-draw Scenario, verdict or
trace.

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

from .conditions import (
    ConditionSet,
    SetDecision,
    Status,
    _aggregate,
    compiled_conditions,
    condition_ids,
)
from .config import RunConfig
from .errors import DismedError, Replay
from .model import SYMBOLS, Scenario, check_scenario
from .simulate import MAX_REJECTIONS_PER_DRAW, DistributionSpec

#: Draws evaluated together: bounds a block's memory whatever the sweep size;
#: per-draw cost stops falling at about this size.
ROWS = 1024

#: Status codes index STATUSES; set decision codes index DECISIONS.
STATUSES = (Status.SATISFIED, Status.VIOLATED, Status.VACUOUS, Status.INDETERMINATE)
SATISFIED, VIOLATED, VACUOUS, INDETERMINATE = range(4)
DECISIONS = (SetDecision.SATISFIED, SetDecision.NOT_SATISFIED, SetDecision.INDETERMINATE)
SET_SATISFIED, SET_NOT_SATISFIED, SET_INDETERMINATE = range(3)


def block(base: Scenario, X: np.ndarray, varying) -> Scenario:
    """The draws of ``X`` (one row per draw) as one Scenario: each symbol in
    ``varying`` holds its column, one value per draw, and every other symbol
    keeps its base value."""
    values = list(base.values)
    for name in varying:
        k = SYMBOLS[name]
        values[k] = np.ascontiguousarray(X[:, k])
    return replace(base, values=tuple(values))


# ---------------------------------------------------------------------------
# Conditions over a block
# ---------------------------------------------------------------------------

def _condition(b: Scenario, n: int, parts: tuple, guard: Optional[Callable],
               cfg: RunConfig):
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
        return np.broadcast_to(status, n), None
    passed = np.broadcast_to(guard(b, None), n)
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

def _valid_rows(draws: Scenario, n: int) -> np.ndarray:
    """Which of the ``n`` draws of a block pass ``validate_scenario``.

    A check that fails whatever is drawn (a structural one, or one that reads
    only symbols no draw changes) raises :class:`Replay`: every candidate of
    every draw is rejected, so the scalar path raises ``RejectionLimit``.
    """
    failed = False

    def bad(code, when, message, *args):
        nonlocal failed
        if when is True:
            raise Replay
        if when is not False:
            failed = failed | when

    check_scenario(draws, bad)
    return np.broadcast_to(failed ^ True, n)


def _draw(base: Scenario, dist: DistributionSpec, seed: int, start: int,
          stop: int) -> tuple[Scenario, np.ndarray]:
    """Accepted draws start..stop-1 as a block, and each one's rejections (the
    values and counts ``draw_scenario`` gives for the same indices)."""
    names = tuple(dist.marginals)
    marginals = tuple(dist.marginals.values())
    cols = [SYMBOLS[name] for name in names]
    varying = set(names)
    derive_I = ("I_p" in varying or "I_i" in varying) and "I" not in varying
    if derive_I:
        varying.add("I")
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
        todo = todo[~_valid_rows(block(base, X[todo], varying), len(todo))]
        if not len(todo):
            break
        rejections[todo] += 1
        if rejections[todo].max() > MAX_REJECTIONS_PER_DRAW:
            raise Replay  # RejectionLimit on the scalar path
    return block(base, X, varying), rejections


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
    # path, OverflowError from h ** 3.
    try:
        with np.errstate(all="ignore"):
            draws, rejections = _draw(base, dist, seed, start, stop)
            results = [_condition(draws, len(rejections), parts, guard, cfg)
                       for parts, guard in table]
            statuses = np.stack([st for st, _ in results], axis=1).astype(np.int8)
            skipped = np.zeros(statuses.shape, dtype=bool)
            for k, (_, excluded) in enumerate(results):
                if excluded is not None:
                    skipped[:, k] = excluded
            decisions = _decisions(statuses, skipped, cfg)
    except (Replay, DismedError, ArithmeticError, ValueError):
        return None
    return Evaluation(statuses, decisions, rejections)
