"""Sweep draws evaluated as one batch.

A sweep changes values only: the responses, overlays, time paths and config
are the base scenario's in every draw, so every declared link is fixed for
the whole sweep. A block of draws is a plain Scenario (:func:`block`) whose
swept symbols hold one value per draw, drawn into one ``(n, len(SYMBOLS))``
matrix, each row from its own ``SeedSequence([seed, i]) -> PCG64`` stream
(``streams.Streams`` draws all rows at once).

The module has no compiler, arithmetic or checks of its own. What a sweep
fixes is checked on the base (``model.check_fixed``); the value checks and
the links that read a swept symbol run on every block, on all rows at once,
and a check that every row passes costs one reduction and gives a plain True
(``model._all`` and ``model._finite``). Only rejected rows are redrawn,
and a draw over its redraw budget raises ``RejectionLimit``. Each
condition's one evaluator, the one ``decide`` wraps
(``RunConfig.compiled``), runs on the block through the total interval
arithmetic of ``calculus``, whose array endpoints round as its float ones
do, with argmax contexts and max-axis winners chosen per draw
(``Scenario.per_winner``). Its status code and exclusion fill the block's
columns, and ``decide``'s aggregation rule (``conditions._aggregate``) takes
the per-draw counts of all three sets (one ``np.add.reduceat``) in one call
and gives a decision code per draw and set, with no per-draw Scenario,
verdict or trace. A condition's status and exclusion are plain Python values
wherever every draw of the block agrees on them (as where a missing link
leaves a derivative unknown in every draw, or a guard fails in every draw),
so such a condition is settled once and filled into its column of the
block's status matrix; numpy selects per draw only where draws differ.

What no draw changes is kept on the base instance (``Scenario.plans``, which
a worker process rebuilds): the fixed checks per swept set, and from a
base's second block under one swept set and config on, the value of every
condition side that reads no swept symbol on that base, evaluated on the
base when that plan is built (:func:`_settle`). A condition whose every side
is settled so is evaluated whole on the base then too (:func:`_conditions`),
and a block fills its row with its status code and skip flag in one
assignment for all such conditions, running only the live ones. The compiler
gives each side the symbols it names, and ``calculus.on_base`` narrows them
by what the base's links and overlays fix: a derivative whose every axis is
its own driven symbol, or misses a link under a strict driven side, reads
nothing; an argmax side whose candidate states overlay no symbol it names
and scope no link to one reads no candidate. This module walks no
expression.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .calculus import on_base
from .conditions import (
    INDETERMINATE,
    SATISFIED,
    STATUSES,
    VACUOUS,
    VIOLATED,
    ConditionSet,
    _aggregate,
    condition_ids,
)
from .config import RunConfig
from .model import SYMBOLS, Scenario, check_fixed
from .record import Record
from .simulate import MAX_REJECTIONS_PER_DRAW, DistributionSpec, rejection_limit
from .streams import Streams

#: Draws evaluated together: bounds a block's memory whatever the sweep size;
#: per-draw cost stops falling at about this size.
ROWS = 1024


def block(base: Scenario, X: np.ndarray, varying) -> Scenario:
    """The draws of ``X`` (one row per draw) as one Scenario: each symbol in
    ``varying`` holds its column, one value per draw, and every other symbol
    keeps its base value."""
    values = list(base.values)
    for name in varying:
        k = SYMBOLS[name]
        values[k] = np.ascontiguousarray(X[:, k])
    return base.replace(values=tuple(values))


# ---------------------------------------------------------------------------
# Conditions over a block
# ---------------------------------------------------------------------------

_SET_STARTS = np.cumsum([0] + [len(condition_ids(cset)) for cset in ConditionSet][:-1])
_CODES = np.arange(len(STATUSES), dtype=np.int8)[:, None, None]


def _decisions(statuses: np.ndarray, skipped: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """Set decision codes per draw, shape (n, 3) in ConditionSet order. One
    ``np.add.reduceat`` over the 44 columns counts, per status code, draw and
    set, the verdicts that are not skipped; ``conditions._aggregate``, the
    rule ``decide`` applies, takes the (n, 3) counts in one call."""
    counts = np.add.reduceat(((statuses == _CODES) & ~skipped).view(np.uint8), _SET_STARTS,
                             axis=2, dtype=np.uint8)  # a set has fewer than 256 conditions
    return _aggregate(counts.sum(axis=0), counts[SATISFIED] + counts[VACUOUS],
                      counts[VIOLATED], counts[INDETERMINATE], cfg)


# ---------------------------------------------------------------------------
# Drawing and validation
# ---------------------------------------------------------------------------

def _valid_rows(draws: Scenario, n: int, check) -> Optional[np.ndarray]:
    """Which of the ``n`` draws of a block pass ``check(draws, bad)`` (the
    per-block half that ``model.check_fixed`` returns: every value check and
    the links that read a swept symbol; or ``model.check_scenario``), or None
    where a check fails whatever is drawn: one that reads only symbols no
    draw changes, which are plain floats in the block, or a structural one."""
    failed = False

    def bad(code, when, message, *args):
        nonlocal failed
        if when is not False and failed is not True:
            failed = True if when is True else failed | when

    check(draws, bad)
    return None if failed is True else np.broadcast_to(failed ^ True, n)


def _plan(base: Scenario, key, build, again=False):
    """``build()``, kept in ``base.plans`` under ``key`` and made again where
    the base's overlays, the one part of a Scenario that can change in place,
    differ from when it was kept (their ``repr`` keeps every value's bits).
    With ``again``, the first ask gives None and the second builds, so a base
    swept by one block pays for no plan it cannot reuse."""
    overlays = repr(base.overlays)
    kept, plan = base.plans.get(key, (None, None))
    if kept != overlays:
        plan = None if again else build()
    elif plan is None:
        plan = build()
    base.plans[key] = overlays, plan
    return plan


def _fixed(base: Scenario, varying: set) -> tuple:
    """Whether ``model.check_fixed`` fails on ``base`` for draws that change
    ``varying``, and the per-block check it returns."""
    failed = []
    check = check_fixed(base, varying, lambda code, when, *args: failed.append(when))
    return any(failed), check


def _settle(sides, swept, base: Scenario) -> tuple:
    """A condition's compiled ``sides`` (``run.sides``) for the blocks of a
    sweep of ``base`` whose draws change only ``swept``: each side whose
    symbols read on the base (``calculus.on_base``: its ``reads``, less what
    the base's links and overlays fix) miss them is evaluated on the base,
    here, and becomes a side that reads nothing (empty ``reads``) and gives
    that value on every block of the base; an argmax side that reads no
    candidate runs as its base-context side."""
    def side(f):
        if f is None:
            return f
        if not swept.isdisjoint(f.reads):  # it names a swept symbol: does it read one here?
            f, reads = on_base(f, base)
            if not swept.isdisjoint(reads):
                return f
        value = f(base, None)

        def settled(s, notes):
            return value
        settled.reads = frozenset()
        return settled

    def part(compiled):
        lhs, rhs, compare = compiled
        return side(lhs), side(rhs), compare

    guard, parts = sides
    return (None if guard is None else part(guard),
            tuple(map(part, parts)))


def _conditions(cfg: RunConfig, swept, base: Scenario) -> tuple:
    """The plan of the blocks of a sweep of ``base`` whose draws change only
    ``swept``, under ``cfg``: each condition's sides settled (:func:`_settle`),
    and each condition whose every side is settled, which no draw changes,
    evaluated here on the base. Gives the rows of those conditions with
    their status codes and skip flags as columns, and per live condition its
    row, evaluator and settled sides."""
    rows, codes, skips, live = [], [], [], []
    for j, (_, run, _) in enumerate(cfg.compiled.values()):
        sides = _settle(run.sides, swept, base)
        guard, parts = sides
        if all(not f.reads for part in (guard or (), *parts) for f in part[:2] if f):
            code, skip, _, _ = run(base, None, sides)
            rows.append(j)
            codes.append(code)
            skips.append(skip)
        else:
            live.append((j, run, sides))
    return (np.array(rows, dtype=np.intp), np.array(codes, dtype=np.int8)[:, None],
            np.array(skips, dtype=bool)[:, None], tuple(live))


def draw(base: Scenario, dist: DistributionSpec, seed: int, start: int,
         stop: int) -> tuple[np.ndarray, set, np.ndarray]:
    """Accepted draws start..stop-1 as rows of ``SYMBOLS`` values, the
    symbols they vary and their rejection counts (a RejectionLimit for the
    first draw over its budget). A rejected draw redraws from where its
    stream stands. Where I_p or I_i is sampled but not I, I is I_p + I_i."""
    cols = np.array([SYMBOLS[name] for name in dist.marginals], dtype=np.intp)
    marginals = tuple(dist.marginals.values())
    varying = set(dist.marginals)
    derive_I = ("I_p" in varying or "I_i" in varying) and "I" not in varying
    if derive_I:
        varying.add("I")
    streams = Streams(seed, start, stop)
    failed, check = _plan(base, frozenset(varying), lambda: _fixed(base, varying))
    if failed:
        raise rejection_limit(start)
    X = np.tile(np.array(base.values, dtype=float), (stop - start, 1))
    rejections = np.zeros(stop - start, dtype=np.int64)
    todo = np.arange(stop - start)
    while True:
        if len(cols):
            X[todo[:, None], cols] = streams.draw(marginals, todo)
        if derive_I:
            X[todo, SYMBOLS["I"]] = X[todo, SYMBOLS["I_p"]] + X[todo, SYMBOLS["I_i"]]
        valid = _valid_rows(block(base, X[todo], varying), len(todo), check)
        if valid is not None:
            todo = todo[~valid]
            if not len(todo):
                break
            rejections[todo] += 1
        # every draw still here has the same count, so the first is over first
        if valid is None or rejections[todo[0]] > MAX_REJECTIONS_PER_DRAW:
            raise rejection_limit(start + int(todo[0]))
    return X, varying, rejections


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class Evaluation(Record):
    """Draws start..stop-1 of a sweep, one row per draw."""
    statuses: np.ndarray    # (n, 44) codes into conditions.STATUSES, registry order
    decisions: np.ndarray   # (n, 3) codes into conditions.DECISIONS, ConditionSet order
    rejections: np.ndarray  # (n,) rejected candidates before each draw


def evaluate(base: Scenario, dist: DistributionSpec, seed: int, start: int, stop: int,
             cfg: RunConfig) -> Evaluation:
    """Evaluate draws start..stop-1 as one batch."""
    with np.errstate(all="ignore"):
        X, varying, rejections = draw(base, dist, seed, start, stop)
        draws = block(base, X, varying)
        shape = (len(cfg.compiled), len(rejections))  # a row per condition, filled whole
        statuses, skipped = np.empty(shape, dtype=np.int8), np.empty(shape, dtype=bool)
        plan = _plan(base, (frozenset(varying), cfg), lambda: _conditions(cfg, varying, base),
                     again=True)
        if plan is None:
            live = [(j, run, None) for j, (_, run, _) in enumerate(cfg.compiled.values())]
        else:
            rows, codes, skips, live = plan
            statuses[rows], skipped[rows] = codes, skips
        for j, run, sides in live:
            statuses[j], skipped[j], _, _ = run(draws, None, sides)
    return Evaluation(statuses.T, _decisions(statuses.T, skipped.T, cfg), rejections)
