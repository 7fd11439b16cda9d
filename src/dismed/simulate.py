"""Seeded scenario sweeps and local sensitivity analysis.

Sampling draws independent marginals per symbol. Each draw owns a substream
derived from the master seed and the draw index (numpy SeedSequence), so
serial and parallel execution produce identical sequences; rejected draws
consume only their own substream. Draws that fail scenario validation are
redrawn, which is also how domain truncation is enforced (a uniform c over
(0.9, 1.1) simply has its c >= 1 draws rejected).

Every draw is made by ``batch.draw``, a block at a time, from the streams of
``dismed.streams``; ``draw_scenario`` is a block of one.

One derived update: when a sweep samples I_p or I_i without an explicit I
marginal, I is recomputed as I_p + I_i per draw, keeping the exact identity
satisfiable under continuous marginals.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Mapping, Optional

from .conditions import (
    ALL_CONDITION_IDS,
    INDETERMINATE,
    SATISFIED,
    SET_INDETERMINATE,
    SET_SATISFIED,
    VACUOUS,
    ConditionId,
    ConditionSet,
    Status,
    _status_and_margin,
    # Not called here: perfbench's --trace 1 wraps this module's binding.
    decide,  # noqa: F401
)
from .config import DEFAULT_CONFIG, RunConfig
from .errors import IndeterminateAtBase, ParseError, RejectionLimit
# validate_scenario is not called here: perfbench's --trace 1 wraps the binding.
from .model import SYMBOLS, Scenario, validate_scenario, with_values  # noqa: F401
from .record import MAPPING, NUMBER, TEXT, TREE, Factory, Record

if TYPE_CHECKING:  # numpy is imported where draws are made, so sensitivity runs without it
    import numpy as np

STREAM_ALGORITHM = "numpy SeedSequence([seed, draw_index]) -> PCG64"
MAX_REJECTIONS_PER_DRAW = 1000

class Marginal(Record):
    kind: str
    value: float = 0.0   # point
    lo: float = 0.0      # uniform
    hi: float = 0.0
    mean: float = 0.0    # normal (truncated to the symbol's domain by rejection)
    sd: float = 1.0
    _payload = (("kind", "kind", TEXT),
                *((name, name, NUMBER) for name in ("value", "lo", "hi", "mean", "sd")))
    _kinds = {"point": ("value",), "uniform": ("lo", "hi"), "normal": ("mean", "sd")}

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self._kinds:
            raise ParseError(f"unknown marginal kind {self.kind!r}")
        for name in ("value", "lo", "hi", "mean", "sd"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ParseError(f"{self.kind} marginal: {name} = {v!r} must be a finite number")
        if self.kind == "uniform" and not self.lo <= self.hi:
            raise ParseError(f"uniform marginal needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.kind == "uniform" and not math.isfinite(self.hi - self.lo):
            raise ParseError(f"uniform marginal needs a finite hi - lo, got [{self.lo}, {self.hi}]")
        if self.kind == "normal" and not self.sd > 0:
            raise ParseError(f"normal marginal needs sd > 0, got {self.sd}")


class DistributionSpec(Record):
    marginals: Mapping[str, Marginal] = Factory(dict)  # in file order: the draw columns'
    _payload = (("marginals", "marginals", (MAPPING, Marginal)),)

    def __post_init__(self):
        for name in self.marginals:
            if name not in SYMBOLS:
                raise ParseError(f"distribution samples unknown symbol {name!r}")

    def to_dict(self) -> dict:
        return {"marginals": {k: self.marginals[k].to_dict()
                              for k in sorted(self.marginals)}}


def draw_scenario(base: Scenario, dist: DistributionSpec, seed: int,
                  index: int) -> tuple[Scenario, int]:
    """One validated draw plus its rejection count (deterministic per index)."""
    (scenario,), rejections = _draws(base, dist, seed, index, index + 1)
    return scenario, rejections


def rejection_limit(index: int) -> RejectionLimit:
    """The error for draw ``index`` when it exceeds its redraw budget."""
    return RejectionLimit(
        f"draw {index}: more than {MAX_REJECTIONS_PER_DRAW} rejections; "
        "the distribution may be inconsistent with scenario invariants "
        "(e.g. it perturbs response-anchored symbols)")


def _draws(base: Scenario, dist: DistributionSpec, seed: int, start: int,
           stop: int) -> tuple[tuple[Scenario, ...], int]:
    """Draws start..stop-1, drawn as one block, and their total rejections."""
    from . import batch  # the array path, imported only by sweeps

    X, varying, rejections = batch.draw(base, dist, seed, start, stop)
    slots = {name: SYMBOLS[name] for name in varying}
    return (tuple(with_values(base, {name: row[k] for name, k in slots.items()})
                  for row in X.tolist()), int(rejections.sum()))


class SweepStats(Record):
    n: int
    seed: int
    stream: str
    rejections: int
    per_condition: dict
    per_set: dict
    config: dict

    _payload = (("n", "n", NUMBER), ("seed", "seed", NUMBER), ("stream", "stream", TEXT),
                ("rejections", "rejections", NUMBER), ("per_set", "per_set", TREE),
                ("per_condition", "per_condition", TREE), ("config", "config", TREE))
    _table = (("id", "frequency", "indeterminate_rate"),
              lambda s: [(label, c["frequency"], c["indeterminate_rate"])
                         for label, c in s.per_condition.items()])


def _sweep_chunk(args) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Counts over draws start..stop-1: per condition satisfied (vacuous
    included) and indeterminate, per set satisfied and indeterminate, and
    rejections. Blocks of draws go through the batch path."""
    import numpy as np

    from . import batch  # the array path, imported only by sweeps

    base, dist, seed, start, stop, cfg = args
    held = np.zeros(len(ALL_CONDITION_IDS), dtype=np.int64)
    undecided = np.zeros_like(held)
    set_held = np.zeros(len(ConditionSet), dtype=np.int64)
    set_undecided = np.zeros_like(set_held)
    rejections = 0
    for a in range(start, stop, batch.ROWS):
        b = min(stop, a + batch.ROWS)
        ev = batch.evaluate(base, dist, seed, a, b, cfg)
        st = ev.statuses
        held += ((st == SATISFIED) | (st == VACUOUS)).sum(axis=0)
        undecided += (st == INDETERMINATE).sum(axis=0)
        set_held += (ev.decisions == SET_SATISFIED).sum(axis=0)
        set_undecided += (ev.decisions == SET_INDETERMINATE).sum(axis=0)
        rejections += int(ev.rejections.sum())
    return held, undecided, set_held, set_undecided, rejections


def run_sweep(base: Scenario, dist: DistributionSpec, n: int, seed: int,
              cfg: RunConfig = DEFAULT_CONFIG, workers: int = 1) -> SweepStats:
    """Evaluate decide() over n seeded draws; counts are order-independent,
    so results are identical across worker counts."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    workers = max(1, int(workers))
    edges = np.linspace(0, n, min(workers, n) + 1).astype(int)
    chunks = [(base, dist, seed, int(a), int(b), cfg)
              for a, b in zip(edges, edges[1:]) if b > a]
    if len(chunks) == 1:
        results = [_sweep_chunk(chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # The chunks stay as asked; no more processes start than there are usable
        # CPUs (sched_getaffinity is Linux-only; elsewhere count every CPU).
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        processes = min(len(chunks), cpus)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_sweep_chunk, chunks))
    held, undecided, set_held, set_undecided, rejections = (sum(c) for c in zip(*results))

    per_condition = {
        cid.label: {"frequency": h / n, "indeterminate_rate": u / n}
        for cid, h, u in zip(ALL_CONDITION_IDS, held.tolist(), undecided.tolist())
    }
    per_set = {
        cset.value: {"satisfied_rate": h / n, "indeterminate_rate": u / n}
        for cset, h, u in zip(ConditionSet, set_held.tolist(), set_undecided.tolist())
    }
    return SweepStats(n=n, seed=seed, stream=STREAM_ALGORITHM,
                      rejections=rejections, per_condition=per_condition,
                      per_set=per_set, config=cfg.to_dict())


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------

class SensitivityResult(Record):
    condition: str
    parameter: str
    status: str
    margin: float
    elasticity: float
    delta_to_flip: Optional[float]
    rel_step: float


def sensitivity(s: Scenario, cid: ConditionId, parameter: str,
                rel_step: float = 0.05,
                cfg: RunConfig = DEFAULT_CONFIG) -> SensitivityResult:
    """Margin, elasticity and smallest flip distance for one parameter.

    The margin is the minimum sign-consistent part margin (positive iff the
    condition holds). Elasticity uses a central difference of the margin at
    parameter*(1 +/- rel_step); the flip distance is found by bisection over
    the +/-50% range. A zero-valued parameter falls back to absolute steps.
    """
    if parameter not in SYMBOLS:
        raise ParseError(f"unknown parameter {parameter!r}")
    if not 0 < rel_step < 0.5:
        raise ValueError("rel_step must lie in (0, 0.5)")
    base_status, margin0 = _status_and_margin(s, cid, cfg)
    if margin0 is None or base_status is Status.INDETERMINATE:  # None: the guard failed
        guard = " by its failed guard" if base_status is Status.VIOLATED else ""
        raise IndeterminateAtBase(
            f"{cid.label} is {base_status.value}{guard} at base; "
            "sensitivity needs a determinate, non-vacuous verdict")

    def at(value):  # the status and margin with the parameter moved to value
        return _status_and_margin(with_values(s, {parameter: value}), cid, cfg)

    p0 = s.value(parameter)
    scale = abs(p0) if p0 != 0.0 else 1.0
    step = rel_step * scale

    _, m_plus = at(p0 + step)
    _, m_minus = at(p0 - step)
    if m_plus is not None and m_minus is not None:
        dmargin = 0.5 * (m_plus - m_minus)
    elif m_plus is not None:
        dmargin = m_plus - margin0
    elif m_minus is not None:
        dmargin = margin0 - m_minus
    else:
        dmargin = 0.0
    elasticity = 0.0 if margin0 == 0.0 else (dmargin / margin0) / rel_step

    flips = []
    for direction in (1.0, -1.0):
        end = p0 + direction * 0.5 * scale
        status_end, _ = at(end)
        if status_end == base_status:
            continue
        lo_t, hi_t = 0.0, 0.5
        for _ in range(60):
            mid = 0.5 * (lo_t + hi_t)
            status_mid, _ = at(p0 + direction * mid * scale)
            if status_mid == base_status:
                lo_t = mid
            else:
                hi_t = mid
        flips.append(direction * hi_t * scale)
    delta_to_flip = min(flips, key=abs) if flips else None

    return SensitivityResult(
        condition=cid.label,
        parameter=parameter,
        status=base_status.value,
        margin=margin0,
        elasticity=elasticity,
        delta_to_flip=delta_to_flip,
        rel_step=rel_step,
    )
