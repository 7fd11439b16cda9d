"""What a sweep settles once per base instance (``Scenario.plans``).

A sweep keeps on its base the fixed checks (``model.check_fixed``) and the
value of every condition side that reads no swept symbol on that base
(``batch._settle``), the latter from a base's second block under one swept
set and config on. The compiler gives each side the symbols it reads
(``reads``), which must be exactly those it names; on a base it reads at most
those (``calculus.on_base``), fewer only where the base's links and overlays
fix its value, which a sweep of the base three times checks against scalar
``decide`` for each rule; a sweep that reuses a plan must give the payload a
fresh instance gives, time paths or not; and a plan must not outlive an
in-place change of the base's overlays.
"""

import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dismed import DistributionSpec, RunConfig, run_sweep
from dismed import batch, conditions
from dismed.calculus import Add, Axis, Const, Deriv, Mul, Sym, on_base
from dismed.errors import DismedError
from dismed.io import scenario_from_dict
from dismed.model import STATE_NAMES, split_driver

from conftest import FIXTURES_DIR, expr_symbols
from test_simulate import EQUIVALENCE_CONFIGS, _scalar_codes, wide_distributions

_LABELS = [cid.label for cid in conditions.ALL_CONDITION_IDS]
_S4, _S13 = _LABELS.index("S4"), _LABELS.index("S13")
FORM_CONFIGS = [RunConfig(), RunConfig(b1_guard_joint=True), RunConfig(seller_uses_U_sa=True),
                RunConfig(w5_driver="B_s"), RunConfig(intersection="min")]


def _data(swept=(), overlays=None) -> dict:
    """The all-satisfied fixture as a dict, without the links that touch a
    symbol in ``swept``."""
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text(encoding="utf-8"))
    data["responses"] = [r for r in data["responses"]
                         if not {r["driven"], *split_driver(r["driver"])} & set(swept)]
    if overlays is not None:
        data["overlays"] = overlays
    return data


def _dist(**marginals) -> DistributionSpec:
    return DistributionSpec.from_dict({"marginals": marginals})


def _payload(base, d, cfg=RunConfig(), workers=1, n=60, seed=5) -> str:
    return json.dumps(run_sweep(base, d, n=n, seed=seed, cfg=cfg, workers=workers).to_dict())


# --- read sets ------------------------------------------------------------------

@pytest.mark.parametrize("cfg", FORM_CONFIGS)
def test_every_side_reads_what_it_names(cfg):
    for form, run, _ in cfg.compiled.values():
        guard, parts = run.sides
        assert (guard is None) == (form.guard is None)
        for part, compiled in zip(((form.guard,) if form.guard else ()) + form.parts,
                                  ((guard,) if guard else ()) + parts, strict=True):
            for expr, spec, side in ((part.lhs, part.lhs_ctx, compiled[0]),
                                     (part.rhs, part.rhs_ctx, compiled[1])):
                assert (side is None) == (expr is None)
                wanted = expr_symbols(expr)
                if spec is not None and spec[0] == "argmax":
                    wanted |= set(spec[1])
                assert side is None or side.reads == wanted, (part.desc, spec)


@pytest.mark.parametrize("cfg", FORM_CONFIGS)
def test_every_context_spec_is_base_a_state_or_argmax_candidates(cfg):
    # compile_part hands compile_expression a spec's second item unchecked
    for form, _, _ in cfg.compiled.values():
        for part in ((form.guard,) if form.guard else ()) + form.parts:
            for spec in (part.lhs_ctx, part.rhs_ctx):
                assert spec is None or len(spec) == 2 and (
                    spec[0] == "state" and spec[1] in STATE_NAMES
                    or spec[0] == "argmax" and isinstance(spec[1], tuple) and spec[1]
                    and set(spec[1]) <= set(STATE_NAMES)), (part.desc, spec)


def _block_sides_match(base, d, cfg, n):
    """Each condition's results on a block are the same with sides settled on
    another block of the sweep as when every side is evaluated on it."""
    with np.errstate(all="ignore"):
        (X9, varying, _), (X, _, _) = (batch.draw(base, d, seed, 0, n) for seed in (9, 3))
        first, draws = batch.block(base, X9, varying), batch.block(base, X, varying)
        for cid, (_, run, _) in cfg.compiled.items():
            settled = batch._settle(run.sides, varying, base)
            run(first, None, settled)
            assert _same(run(draws, None, settled), run(draws, None), n), cid.label


def _same(x, y, n) -> bool:
    """Equal results, per draw where either is per draw."""
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(_same(a, b, n) for a, b in zip(x, y))
    if x is None or y is None:
        return x is y
    return np.array_equal(np.broadcast_to(x, n), np.broadcast_to(y, n), equal_nan=True)


def _equals_scalar_decide(base, d, cfg, n):
    _block_sides_match(base, d, cfg, n)
    statuses, decisions, rejections = _scalar_codes(base, d, 3, n, cfg)
    for _ in range(2):  # the second settles the sides, on draws seeded 9
        batch.evaluate(base, d, 9, 0, n, cfg)
    ev = batch.evaluate(base, d, 3, 0, n, cfg)
    assert ev.statuses.tolist() == statuses
    assert ev.decisions.tolist() == decisions
    assert ev.rejections.tolist() == rejections
    return np.array(statuses)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_distributions(), st.integers(0, 2 ** 32 - 1), st.sampled_from(EQUIVALENCE_CONFIGS))
def test_settled_sides_equal_scalar_decide_draw_by_draw(case, seed, cfg):
    base, d = case
    try:
        expected = _scalar_codes(base, d, seed, 24, cfg)
        for _ in range(2):  # the second settles the sides, on other draws
            batch.evaluate(base, d, seed ^ 1, 0, 24, cfg)
    except DismedError:
        assume(False)  # the scalar path raises: the replay test covers that
    ev = batch.evaluate(base, d, seed, 0, 24, cfg)
    assert (ev.statuses.tolist(), ev.decisions.tolist(), ev.rejections.tolist()) == expected


def test_a_sweep_of_a_derivative_axis_alone_equals_scalar_decide():
    # P_s = 1e9 + (P - 10)^2 stays within the consistency tolerance (1e-9 of
    # 1e9) for P in [9, 11], so only the axis of S6's d P_s/d P is swept, and
    # its slope 2 (P - 10) crosses S6's bound of 1 inside the range
    data = _data(swept=("P", "P_s"))
    data["P_s"] = 1e9
    data["responses"].append({"driven": "P_s", "driver": "P", "kind": "polynomial",
                              "coeffs": [1e9 + 100.0, -20.0, 1.0]})
    base = scenario_from_dict(data)
    d = _dist(P={"kind": "uniform", "lo": 9.2, "hi": 10.8})
    statuses = _equals_scalar_decide(base, d, RunConfig(), 40)
    s6 = [cid.label for cid in conditions.ALL_CONDITION_IDS].index("S6")
    assert {conditions.SATISFIED, conditions.VIOLATED} <= set(statuses[:, s6].tolist())


def test_a_sweep_of_an_argmax_candidate_alone_equals_scalar_decide():
    # E_m ~ U(0, 3) wins the argmax from E_s = 2 in a third of the draws; the
    # E_s overlay moves psi_s below psi_si, so S4's argmax part follows the winner
    base = scenario_from_dict(_data(swept=("E_m",), overlays={"E_s": {"psi_s": 1.0}}))
    d = _dist(E_m={"kind": "uniform", "lo": 0.0, "hi": 3.0})
    for cfg in (RunConfig(), RunConfig(guard_mode="skip")):
        statuses = _equals_scalar_decide(base, d, cfg, 40)
        assert {conditions.SATISFIED, conditions.VIOLATED} <= set(statuses[:, _S4].tolist())


# S13's integrals follow a linear path on P and a sampled one on rho_s
_PATHS = [{"symbol": "P", "kind": "linear", "v0": 10.0, "slope": 0.5},
          {"symbol": "rho_s", "kind": "samples", "times": [0.0, 0.4, 1.0],
           "values": [0.7, 0.8, 0.65]}]


@pytest.mark.parametrize("marginals", [
    {"rho_p": {"kind": "uniform", "lo": 0.3, "hi": 0.9},  # S13 flips with these two
     "P_s": {"kind": "uniform", "lo": 8.0, "hi": 12.0}},
    {"rho_s": {"kind": "uniform", "lo": 0.3, "hi": 0.9},
     "pi_b": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}])
# 2,000 horizon nodes are above calculus.NODE_AXIS_MIN
@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(horizon_dt=0.0005)])
def test_a_base_with_time_paths_swept_again_equals_scalar_decide(marginals, cfg):
    data = _data(swept=marginals)
    data["time_paths"] = _PATHS
    s13 = _swept_three_times(scenario_from_dict(data), _dist(**marginals), cfg)[:, _S13]
    if "P_s" in marginals:
        assert {conditions.SATISFIED, conditions.VIOLATED} <= set(s13.tolist())


def _swept_three_times(base, d, cfg, n=40) -> np.ndarray:
    """The statuses of three sweeps of one base instance (seeds 5, 6, 7: the
    second settles the sides, the third reads them), each equal to per-draw
    scalar ``decide`` draw by draw."""
    statuses = []
    for seed in (5, 6, 7):
        expected = _scalar_codes(base, d, seed, n, cfg)
        ev = batch.evaluate(base, d, seed, 0, n, cfg)
        assert (ev.statuses.tolist(), ev.decisions.tolist(), ev.rejections.tolist()) == expected
        statuses.extend(expected[0])
    return np.array(statuses)


# --- what a side reads on its base ----------------------------------------------------

_B9 = _LABELS.index("B9")


def _each_side(sides) -> list:
    """A condition's compiled guard and part sides, in order."""
    guard, parts = sides
    return [side for part in (guard, *parts) if part for side in part[:2] if side]


def _b9_reads(base, cfg=RunConfig()) -> frozenset:
    """What B9's one side (in the registry d(I_p+I_i)/d max(E_m, E_p, E_s))
    reads on ``base``."""
    return on_base(cfg.compiled[conditions.ALL_CONDITION_IDS[_B9]][1].sides[1][0][0], base)[1]


@pytest.mark.parametrize("cfg", FORM_CONFIGS)
def test_a_side_reads_on_its_base_at_most_what_it_names(cfg):
    bases = (scenario_from_dict(_data()), scenario_from_dict(_data(swept=_FIRST, overlays=_OVERLAYS)),
             scenario_from_dict(_data(swept=("E_s", "P", "c"))))
    for base in bases:
        for _, run, _ in cfg.compiled.values():
            for side in _each_side(run.sides):
                assert on_base(side, base)[1] <= side.reads


def test_a_max_axis_derivative_settles_only_where_every_component_misses_a_link():
    # E_m ~ U(0, 4) wins B9's max axis from E_s = 2 in half the draws: along
    # E_s the fixture links I_p and I_i, along E_m nothing does
    d = _dist(E_m={"kind": "uniform", "lo": 0.0, "hi": 4.0})
    base = scenario_from_dict(_data(swept=("E_m",)))
    assert _b9_reads(base) == {"I_p", "I_i", "E_m", "E_p", "E_s"}
    b9 = set(_swept_three_times(base, d, RunConfig())[:, _B9].tolist())
    assert conditions.INDETERMINATE in b9 and len(b9) > 1
    # without the E_s links every component misses one: unknown in every draw
    base = scenario_from_dict(_data(swept=("E_m", "E_s")))
    assert _b9_reads(base) == set()
    assert set(_swept_three_times(base, d, RunConfig())[:, _B9].tolist()) \
        == {conditions.INDETERMINATE}


def _with_part(monkeypatch, part, **fields) -> RunConfig:
    """A fresh config under which B9 is the one ``part``."""
    monkeypatch.setitem(conditions._FORMS, "B9", conditions.Form(None, (part,)))
    return RunConfig(**fields)


@pytest.mark.parametrize("driven", [Add((Sym("B_it"), Sym("B_op"))), Mul(Sym("B_it"), Sym("B_op"))])
def test_only_a_strict_driven_side_missing_a_link_settles(monkeypatch, driven):
    # B_it is 0 up to E_m = -1 and E_m + 1 beyond, and B_op has no link. At
    # a step of a quarter of |E_m|, the stencil of E_m in [-2, -4/3] stays
    # where B_it is 0, so B_it * B_op is 0 there (0 * unknown = 0) and the
    # derivative 0; above it, and for B_it + B_op everywhere, it is unknown
    data = _data(swept=("E_m", "B_it", "B_op"))
    data.update(B_it=0.0, E_m=-1.5)
    data["responses"].append({"driven": "B_it", "driver": "E_m", "kind": "piecewise_linear",
                              "knots": [[-10.0, 0.0], [-1.0, 0.0], [10.0, 11.0]]})
    base = scenario_from_dict(data)
    deriv = Deriv(driven, Axis.sym("E_m"), 1)
    cfg = _with_part(monkeypatch, conditions.Part("d/dE_m > -1", "gt", deriv, Const(-1.0)),
                     fd_step_scale=0.25)
    strict = isinstance(driven, Add)
    assert (_b9_reads(base, cfg) == set()) is strict
    b9 = set(_swept_three_times(base, _dist(E_m={"kind": "uniform", "lo": -2.0, "hi": -1.0}),
                                cfg)[:, _B9].tolist())
    assert b9 == ({conditions.INDETERMINATE} if strict
                  else {conditions.SATISFIED, conditions.INDETERMINATE})


def test_an_argmax_side_reads_its_candidates_where_one_overlays_a_symbol_it_names():
    # the E_s overlay moves psi_s, which S4's argmax side names, and E_m ~ U(0, 4)
    # wins from E_s = 2 in half the draws
    base = scenario_from_dict(_data(swept=("E_m",), overlays={"E_s": {"psi_s": 1.0}}))
    s4 = RunConfig().compiled[conditions.ALL_CONDITION_IDS[_S4]][1].sides[1][1][0]
    assert on_base(s4, base)[1] == {"psi_s", "E_s", "E_p", "E_m"}
    # an overlay of a symbol it does not name leaves the candidates out
    assert on_base(s4, scenario_from_dict(_data(overlays={"E_s": {"pi_b": 0.9}})))[1] == {"psi_s"}
    statuses = _swept_three_times(base, _dist(E_m={"kind": "uniform", "lo": 0.0, "hi": 4.0}),
                                  RunConfig())
    assert {conditions.SATISFIED, conditions.VIOLATED} <= set(statuses[:, _S4].tolist())


def test_an_argmax_side_reads_its_candidates_where_a_link_is_scoped_to_one(monkeypatch):
    # d psi_s/d P_s has a link under E_s only: under the argmax state it is
    # 0.1 > 0 where E_s wins and unknown where E_m ~ U(0, 4) does
    data = _data(swept=("E_m",))
    data["responses"].append({"driven": "psi_s", "driver": "P_s", "kind": "polynomial",
                              "coeffs": [1.0, 0.1], "context": "E_s"})
    base = scenario_from_dict(data)
    part = conditions.Part("d psi_s/d P_s > 0 under argmax", "gt",
                           Deriv(Sym("psi_s"), Axis.sym("P_s"), 1), Const(0.0),
                           lhs_ctx=conditions.ARGMAX_ALL)
    cfg = _with_part(monkeypatch, part)
    assert _b9_reads(base, cfg) == {"psi_s", "P_s", "E_s", "E_p", "E_m"}
    b9 = _swept_three_times(base, _dist(E_m={"kind": "uniform", "lo": 0.0, "hi": 4.0}), cfg)
    assert set(b9[:, _B9].tolist()) == {conditions.SATISFIED, conditions.INDETERMINATE}


# --- reuse and staleness --------------------------------------------------------------

_FIRST = {"P_b": {"kind": "normal", "mean": 10.0, "sd": 3.0},
          "E_m": {"kind": "uniform", "lo": -0.5, "hi": 3.0},
          "rho_s": {"kind": "uniform", "lo": 0.1, "hi": 0.9}}  # S1 reads rho_p^rho_i
_SECOND = {"psi_s": {"kind": "uniform", "lo": 1.5, "hi": 2.5},
           "SC_s": {"kind": "normal", "mean": 25.0, "sd": 5.0},
           "I_p": {"kind": "uniform", "lo": 1.5, "hi": 2.5}}  # and I, as I_p + I_i
_OVERLAYS = {"E_s": {"psi_s": 1.0}, "E_p": {"psi_b": 5.0, "B_i": 100.0}}


def test_one_base_swept_again_gives_a_fresh_base_payload():
    data = _data(swept=(*_FIRST, *_SECOND, "I"), overlays=_OVERLAYS)
    base = scenario_from_dict(data)
    runs = [(_dist(**_FIRST), RunConfig(), 1), (_dist(**_SECOND), RunConfig(), 1),
            (_dist(**_SECOND), RunConfig(guard_mode="skip"), 1),
            (_dist(**_FIRST), RunConfig(intersection="min"), 1),
            (_dist(**_FIRST), RunConfig(seller_uses_U_sa=True), 1),  # S3 and S7 read U_sa
            (_dist(**_FIRST), RunConfig(), 2)]
    for d, cfg, workers in runs:
        for seed in (5, 6, 7):  # the second sweep settles sides, the third reads them
            assert _payload(base, d, cfg, workers, seed=seed) \
                == _payload(scenario_from_dict(data), d, cfg, workers, seed=seed)
    assert len(base.plans) == 2 + 5  # the checks per swept set, the sides per set and config
    fresh = scenario_from_dict(data)  # the plans are no field
    assert base == fresh and repr(base) == repr(fresh) and base.to_dict() == fresh.to_dict()
    assert "plans" not in vars(pickle.loads(pickle.dumps(base))) | vars(base.replace())


def test_an_overlay_changed_in_place_is_not_read_from_a_stale_plan():
    data = _data(swept=_FIRST, overlays=_OVERLAYS)
    base = scenario_from_dict(data)
    d = _dist(**_FIRST)
    before = [_payload(base, d, seed=seed) for seed in (5, 6)]  # the second settles sides
    base.overlays["E_p"]["B_i"] = -100.0  # W1, read under E_p, now fails in every draw
    data["overlays"] = {"E_s": {"psi_s": 1.0}, "E_p": {"psi_b": 5.0, "B_i": -100.0}}
    after = [_payload(base, d, seed=seed) for seed in (5, 6, 7)]
    assert after == [_payload(scenario_from_dict(data), d, seed=seed) for seed in (5, 6, 7)]
    assert after[:2] != before


def test_a_base_swept_by_one_block_settles_no_side(monkeypatch):
    base = scenario_from_dict(_data(swept=_FIRST))
    d, settles = _dist(**_FIRST), []
    settle = batch._settle
    monkeypatch.setattr(batch, "_settle", lambda *args: settles.append(1) or settle(*args))
    first = _payload(base, d)
    assert not settles  # the first block runs every side on the block
    assert _payload(base, d) == first
    assert len(settles) == len(conditions.ALL_CONDITION_IDS)
    assert _payload(base, d) == first
    assert len(settles) == len(conditions.ALL_CONDITION_IDS)


def test_a_settled_side_runs_once_on_the_base_while_settle_builds():
    calls = []

    def side(s, notes):
        calls.append(s)
        return 1.5

    side.reads = frozenset(("P",))

    def swept(s, notes):
        return 2.5
    swept.reads = frozenset(("P_b",))

    base = scenario_from_dict(_data())
    guard, ((lhs, rhs, compare),) = batch._settle((None, ((side, swept, "compare"),)), {"P_b"},
                                                  base)
    assert guard is None and rhs is swept and compare == "compare"
    assert len(calls) == 1 and calls[0] is base
    assert lhs("block", None) == lhs("another block", None) == 1.5
    assert len(calls) == 1  # no block runs it


# --- scripts/sweep_sides.py -------------------------------------------------------

def test_sweep_sides_counts_the_sides_settle_settles(tmp_path):
    root = FIXTURES_DIR.parents[1]
    marginals = {"rho_s": {"kind": "uniform", "lo": 0.5, "hi": 0.9},
                 "E_m": {"kind": "uniform", "lo": 0.0, "hi": 4.0}}
    (tmp_path / "dist.json").write_text(json.dumps({"marginals": marginals}), encoding="utf-8")
    fixture = FIXTURES_DIR / "all_three_satisfied.json"
    done = subprocess.run([sys.executable, str(root / "scripts" / "sweep_sides.py"), str(fixture),
                           str(tmp_path / "dist.json"), "--n", "50", "--blocks", "2"],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *_, sides, _, plan = done.stdout.splitlines()
    counts = dict(re.findall(r"(by name|by base|per block) (\d+)", sides))
    assert re.fullmatch(r"plan on a fresh base: \d+\.\d us \(median of 2\)", plan)
    base, settled, total = scenario_from_dict(_data()), 0, 0
    for _, run, _ in RunConfig().compiled.values():
        for side, kept in zip(_each_side(run.sides), _each_side(
                batch._settle(run.sides, set(marginals), base))):
            total += 1
            settled += kept is not on_base(side, base)[0]
    assert int(counts["by name"]) + int(counts["by base"]) == settled
    assert int(counts["by base"]) > 0 and int(counts["per block"]) == total - settled > 0
