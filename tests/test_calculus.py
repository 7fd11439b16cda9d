"""Interval semantics, finite differences, and horizon integrals."""

import json
import math
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dismed import (
    ExtendedValue,
    RunConfig,
    argmin_state,
    finite_difference,
    integrate_horizon,
    load_scenario,
    with_values,
)
from dismed import calculus
from dismed.calculus import (
    Add,
    Const,
    Deriv,
    Axis,
    Joint,
    MaxE,
    MinE,
    Mul,
    Sub,
    Sym,
    _close,
    _joint_raw,
    evaluate_expression,
)
from dismed.conditions import _compare
from dismed.errors import ParseError, PathCoverageError
from dismed.io import scenario_from_dict
from dismed.model import SYMBOLS, ResponseFunction, TimePath, eval_response, split_driver

from conftest import expr_symbols
from fixture_defs import fixture_dict

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)
INDETERMINATE = ExtendedValue(-math.inf, math.inf)


# --- argmax / argmin ---------------------------------------------------------

def states(s, E_s, E_p, E_m):
    return with_values(s, {"E_s": E_s, "E_p": E_p, "E_m": E_m})


def test_argmax_state_examples(base_scenario):
    # the argmax listing-state context: the largest value, ties to the earlier
    def argmax_state(s):
        return s.per_winner(("E_s", "E_p", "E_m"), None, lambda name, value: name)

    assert argmax_state(states(base_scenario, 5, 3, 1)) == "E_s"
    assert argmax_state(states(base_scenario, 2, 2, 1)) == "E_s"  # tie-break
    assert argmax_state(states(base_scenario, -1, 0, 4)) == "E_m"


def test_argmin_state_mirror(base_scenario):
    assert argmin_state(states(base_scenario, 5, 3, 1)) == "E_m"
    assert argmin_state(states(base_scenario, 1, 1, 1)) == "E_m"
    assert argmin_state(states(base_scenario, 0, 2, 3)) == "E_s"


# --- _close: the closeness test of "~" comparisons ---------------------------

def test_approx_equal_examples():
    assert _close(10, 10, 0.05)
    assert _close(10, 10.4, 0.05)       # |d|=0.4 <= 0.52
    assert not _close(10, 11, 0.05)     # |d|=1 > 0.55


def test_approx_equal_requires_positive_tol():
    # _close reads its tolerance from the RunConfig, which refuses one <= 0
    for tol in (0.0, -0.05):
        with pytest.raises(ParseError, match="tolerances must be positive"):
            RunConfig(rel_tol=tol)


@given(finite_floats, finite_floats, st.floats(min_value=1e-6, max_value=0.5))
def test_approx_equal_is_symmetric(a, b, tol):
    assert _close(a, b, tol) == _close(b, a, tol)


# --- _joint_raw: the joint of two closing probabilities ----------------------

def test_joint_prob_examples():
    assert _joint_raw(0.5, 0.4, "product") == pytest.approx(0.2)
    assert _joint_raw(0.73, 1.0, "product") == pytest.approx(0.73)
    assert _joint_raw(0.5, 0.4, "min") == pytest.approx(0.4)


probs = st.floats(min_value=0.0, max_value=1.0)


@given(probs, probs)
def test_joint_prob_properties(a, b):
    for mode in ("product", "min"):
        j = _joint_raw(a, b, mode)
        assert 0.0 <= j <= 1.0
        assert j == _joint_raw(b, a, mode)
    assert _joint_raw(a, b, "product") <= _joint_raw(a, b, "min")


# --- interval arithmetic -----------------------------------------------------

def test_interval_basics():
    a, b = (1.0, 2.0), (-1.0, 3.0)
    assert calculus.add(a, b) == (0.0, 5.0)
    assert calculus.sub(a, b) == (-2.0, 3.0)
    assert calculus.mul(a, b) == (-2.0, 6.0)
    assert calculus.add(a, calculus.UNKNOWN) == calculus.UNKNOWN


def test_comparison_against_partially_known_max():
    # x > Max[unknown, 1] with x = 0.5 is decidably false
    gt = _compare("gt", RunConfig())  # (holds, fails); neither is undecided
    rhs = (1.0, math.inf)
    assert gt((0.5, 0.5), rhs) == (False, True)
    assert gt((2.0, 2.0), rhs) == (False, False)


# Each operation as the scalar evaluator computed it before float and per-draw
# endpoints shared one implementation, under the total rule: the reference.
def _ref_iv(lo, hi):
    # a NaN endpoint leaves its side unbounded
    lo, hi = (-math.inf if lo != lo else lo), (math.inf if hi != hi else hi)
    assert lo <= hi
    return lo, hi


def _ref_times(a, b):
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def _ref_mul(a, b):
    ps = (_ref_times(a[0], b[0]), _ref_times(a[0], b[1]),
          _ref_times(a[1], b[0]), _ref_times(a[1], b[1]))
    return _ref_iv(min(ps), max(ps))


def _ref_scale(a, k):
    lo, hi = _ref_times(a[0], k), _ref_times(a[1], k)
    return _ref_iv(min(lo, hi), max(lo, hi))


def _ref_extremum(vs, larger):
    pick = max if larger else min
    return _ref_iv(pick(v[0] for v in vs), pick(v[1] for v in vs))


def _ref_joint(a, b, mode):
    if a[0] == a[1] and b[0] == b[1]:
        x = a[0] * b[0] if mode == "product" else min(a[0], b[0])
        return (x, x) if x == x else _ref_iv(x, x)
    return -math.inf, math.inf


def _ref_abs(a):
    lo, hi = a
    if lo >= 0:
        return a
    if hi <= 0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


_REFERENCE = {
    "point": lambda x: (x, x) if x == x else _ref_iv(x, x),
    "add": lambda a, b: _ref_iv(a[0] + b[0], a[1] + b[1]),
    "sub": lambda a, b: _ref_iv(a[0] - b[1], a[1] - b[0]),
    "mul": _ref_mul, "scale": _ref_scale, "extremum": _ref_extremum,
    "joint": _ref_joint, "iabs": _ref_abs,
}

_ENDPOINTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from((0.0, -0.0, math.inf, -math.inf)))


@st.composite
def _intervals(draw):
    x = draw(_ENDPOINTS)
    if draw(st.booleans()):
        return (x, x)  # a point: one object for both endpoints
    return tuple(sorted((x, draw(_ENDPOINTS))))


_OP_ARGS = {
    "point": st.tuples(_ENDPOINTS),
    "add": st.tuples(_intervals(), _intervals()),
    "sub": st.tuples(_intervals(), _intervals()),
    "mul": st.tuples(_intervals(), _intervals()),
    "scale": st.tuples(_intervals(), _ENDPOINTS),
    "extremum": st.tuples(st.lists(_intervals(), min_size=1, max_size=3), st.booleans()),
    "joint": st.tuples(_intervals(), _intervals(), st.sampled_from(("product", "min"))),
    "iabs": st.tuples(_intervals()),
}


def _as_arrays(arg, np):
    """``arg`` with every float endpoint as a 1-element array; a point's two
    endpoints stay one object."""
    if isinstance(arg, float):
        return np.array([arg])
    if isinstance(arg, tuple) and len(arg) == 2 and arg[0] is arg[1]:
        x = np.array([arg[0]])
        return (x, x)
    if isinstance(arg, (tuple, list)):
        return type(arg)(_as_arrays(a, np) for a in arg)
    return arg


def _same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@settings(max_examples=300)
@given(st.sampled_from(sorted(_OP_ARGS)).flatmap(
    lambda name: st.tuples(st.just(name), _OP_ARGS[name])))
def test_one_arithmetic_for_float_and_per_draw_endpoints(case):
    np = pytest.importorskip("numpy")
    name, args = case
    op = getattr(calculus, name)
    expected = _REFERENCE[name](*args)
    got = op(*args)
    assert type(got) is tuple and len(got) == 2
    assert all(type(x) is float and x == x for x in got), got
    assert all(_same_float(x, y) for x, y in zip(got, expected)), (got, expected)
    with np.errstate(all="ignore"):
        per_draw = op(*(_as_arrays(a, np) for a in args))
    per_draw = [float(np.broadcast_to(x, 1)[0]) for x in per_draw]
    assert all(_same_float(x, y) for x, y in zip(per_draw, got)), (per_draw, got)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=5))
def test_point_inputs_stay_points(values):
    exprs = tuple(Const(v) for v in values)
    scenario = scenario_from_dict(fixture_dict("pts"))
    out = evaluate_expression(scenario, MaxE((Add(exprs), Mul(exprs[0], exprs[-1]))))
    assert out.lower == out.upper


def test_point_and_checked_test_per_draw_endpoints_by_one_sum():
    x, lo, hi = np.array([1.0, -2.0, 3.5]), np.array([1.0, -0.0]), np.array([3.0, 4.0])
    for got, want in ((calculus.point(x), (x, x)), (calculus._checked(lo, hi), (lo, hi)),
                      (calculus._checked(-1.0, hi), (-1.0, hi))):
        assert got[0] is want[0] and got[1] is want[1]  # no NaN: the same objects
    with np.errstate(all="ignore"):
        # a NaN leaves its draw unbounded, on either side
        got = calculus.point(np.array([1.0, math.nan, 3.0]))
        assert got[0].tolist() == [1.0, -math.inf, 3.0] and got[1].tolist() == [1.0, math.inf, 3.0]
        got = calculus._checked(np.array([1.0, math.nan]), np.array([math.nan, 4.0]))
        assert got[0].tolist() == [1.0, -math.inf] and got[1].tolist() == [math.inf, 4.0]
        # +inf meets -inf, so the sum is NaN: the rule draw by draw, as floats give it
        ends = [-math.inf, 0.0, math.inf, math.nan]
        got = calculus.point(np.array(ends))
        assert [list(e) for e in zip(*got)] == [list(calculus.point(v)) for v in ends[:3]] + [
            [-math.inf, math.inf]]
        lo, hi = np.array([-math.inf, 1.0, math.nan]), np.array([2.0, math.inf, 5.0])
        got = calculus._checked(lo, hi)
    assert [list(e) for e in zip(*got)] == [
        list(calculus._checked(a, b)) for a, b in zip(lo.tolist(), hi.tolist())]


# --- finite differences ------------------------------------------------------

def scenario_with_response(driven, driver, coeffs, **value_overrides):
    data = fixture_dict("fd", value_overrides=value_overrides)
    data["responses"] = [{"driven": driven, "driver": driver,
                          "kind": "polynomial", "coeffs": coeffs,
                          "context": "base"}]
    return scenario_from_dict(data)


def test_fd_matches_square_derivatives():
    # psi_b = U_ip^2 with U_ip = 3
    s = scenario_with_response("psi_b", "U_ip", [0.0, 0.0, 1.0],
                               U_ip=3.0, psi_b=9.0)
    d1 = finite_difference(s, "psi_b", "U_ip", 1, h=1e-3)
    assert d1.lower == d1.upper and d1.lower == pytest.approx(6.0, abs=1e-6)
    d2 = finite_difference(s, "psi_b", "U_ip", 2, h=1e-3)
    assert d2.lower == pytest.approx(2.0, abs=1e-4)


def test_fd_third_order_cubic():
    # U_iw = pi_i^3 with pi_i = 2
    s = scenario_with_response("U_iw", "pi_i", [0.0, 0.0, 0.0, 1.0],
                               pi_i=2.0, U_iw=8.0)
    d3 = finite_difference(s, "U_iw", "pi_i", 3, h=1e-2)
    assert d3.lower == pytest.approx(6.0, abs=1e-3)


@pytest.mark.parametrize("order, h", [(1, 1e308), (2, 1e155), (3, 1e103)])
def test_fd_step_whose_power_overflows_is_indeterminate(order, h):
    # U_iw = pi_i: dividing by an overflowed 2h, h * h or 2 h ** 3 would read 0
    s = scenario_with_response("U_iw", "pi_i", [0.0, 1.0], pi_i=2.0, U_iw=2.0)
    notes = []
    assert finite_difference(s, "U_iw", "pi_i", order, h=h, notes=notes) == INDETERMINATE
    assert notes == [f"difference step along pi_i overflows (h = {h})"]


@pytest.mark.parametrize("order, h", [(1, 1e-320), (2, 1e-170), (3, 1e-110)])
def test_fd_step_whose_power_underflows_is_indeterminate(order, h):
    # 2h, h * h or 2 h ** 3 is 0 or has no finite reciprocal
    s = scenario_with_response("U_iw", "pi_i", [0.0, 1.0], pi_i=2.0, U_iw=2.0)
    notes = []
    assert finite_difference(s, "U_iw", "pi_i", order, h=h, notes=notes) == INDETERMINATE
    assert notes == [f"difference step along pi_i underflows (h = {h})"]


def test_fd_missing_link_is_indeterminate():
    data = fixture_dict("nolink")
    data["responses"] = []
    s = scenario_from_dict(data)
    notes = []
    out = finite_difference(s, "I_o", "psi_bi", 1, notes=notes)
    assert out == INDETERMINATE
    assert "missing response (I_o, psi_bi)" in notes


# Axes of the base fixture, each with the symbols linked to it.
_LINKED = {"c": ("P", "pi_s", "pi_sb", "psi_sb", "psi_si"),
           "pi_sb": ("P", "P_s", "pi_s", "psi_sb", "psi_si"),
           "B_b": ("rho_i", "rho_p"),
           "U_ip+U_iw": ("I_i", "I_p", "rho_i", "rho_p")}
_STRICT_SIDES = (
    lambda a, b: Sym(a),
    lambda a, b: Add((Sym(a), Const(2.0), Sym(b))),
    lambda a, b: Sub(Sym(b), Sym(a)),
    lambda a, b: Joint(a, b),
)
# Steps whose 2h, h * h or 2 h ** 3 overflows or underflows at some order.
_STEPS = (None, 1e-3, 1e308, 1e155, 1e103, 1e-320, 1e-170, 1e-110)


def _derive(s, driven, axis, order, h, forced):
    """The compiled derivative's value, its notes and its eval_response
    calls; ``forced`` runs the stencil whatever the driven side."""
    notes = []
    with mock.patch.object(calculus, "eval_response", wraps=calculus.eval_response) as calls:
        if forced:
            with mock.patch.object(calculus, "_strict", lambda expr: False):
                deriv = calculus._compile_deriv(Deriv(driven, axis, order))
        else:
            deriv = calculus._compile_deriv(Deriv(driven, axis, order))
        with np.errstate(all="ignore"):
            v = deriv(s, notes, h)
    return v, notes, calls.call_count


@settings(max_examples=200, deadline=None)
@given(axis=st.sampled_from(sorted(_LINKED)), side=st.sampled_from(_STRICT_SIDES),
       picks=st.tuples(st.integers(0, 4), st.integers(0, 4)), order=st.integers(1, 3),
       h=st.sampled_from(_STEPS), x0=st.sampled_from((None, 1e200, 1e-200)),
       per_draw=st.booleans())
def test_unknown_strict_side_skips_the_stencil_bit_for_bit(axis, side, picks, order, h, x0,
                                                           per_draw):
    # a sum, difference or joint with a missing link is unknown at every
    # stencil point: the shortcut gives the stencil's bits and notes, at a
    # float driver and at one value per draw, and evaluates no link
    linked = _LINKED[axis]
    a, b = (linked[k % len(linked)] for k in picks)
    first = split_driver(axis)[0]
    base_scenario = load_scenario(Path(__file__).parent / "fixtures" / "all_three_satisfied.json")
    s = base_scenario.replace(responses=tuple(
        r for r in base_scenario.responses if (r.driven, r.driver) != (a, axis)))
    if x0 is not None:
        s = with_values(s, {first: x0})
    if per_draw:
        column = np.array([s.value(first), 1e306, -1e300, 1e-300, 7.0])
        values = list(s.values)
        values[SYMBOLS[first]] = column
        s = s.replace(values=tuple(values))
    driven = side(a, b)
    got, got_notes, calls = _derive(s, driven, Axis.sym(axis), order, h, forced=False)
    want, want_notes, _ = _derive(s, driven, Axis.sym(axis), order, h, forced=True)
    assert calls == 0
    assert got_notes == want_notes
    assert f"missing response ({a}, {axis})" in got_notes
    for g, w in zip(got, want):
        assert np.broadcast_to(g, 5).tobytes() == np.broadcast_to(w, 5).tobytes()


def test_products_and_extrema_still_run_their_stencil(base_scenario):
    # 0 * unknown = 0, so a product with a zero factor is known where its
    # other factor's link is missing; a Max or Min keeps the known side's bound
    s = base_scenario.replace(responses=tuple(
        r for r in base_scenario.responses if (r.driven, r.driver) != ("P", "c")))
    zero, _, _ = _derive(s, Mul(Const(0.0), Sym("P")), Axis.sym("c"), 1, None, forced=False)
    assert zero == (0.0, 0.0)
    for extreme in (MaxE, MinE):
        v, notes, calls = _derive(s, extreme((Sym("P"), Sym("pi_s"))), Axis.sym("c"), 2, None,
                                  forced=False)
        assert calls > 0 and notes == ["missing response (P, c)"]
        assert (v, notes) == _derive(s, extreme((Sym("P"), Sym("pi_s"))), Axis.sym("c"), 2,
                                     None, forced=True)[:2]


def test_fd_self_derivative_is_identity():
    data = fixture_dict("self")
    data["responses"] = []
    s = scenario_from_dict(data)
    assert finite_difference(s, "psi_b", "psi_b", 1).lower == 1.0
    assert finite_difference(s, "psi_b", "psi_b", 2).lower == 0.0


def test_fd_sum_rule_includes_identity_term():
    # d(psi_sb + pi_sb)/d pi_sb = slope + 1
    s = scenario_with_response("psi_sb", "pi_sb", [1.4, 0.2],
                               psi_sb=1.8, pi_sb=2.0)
    out = finite_difference(s, "psi_sb+pi_sb", "pi_sb", 1)
    assert out.lower == pytest.approx(1.2, abs=1e-9)


def test_fd_piecewise_linear_slope():
    knots = [[0.0, 1.0], [2.0, 5.0], [4.0, 6.0]]
    data = fixture_dict("pl", value_overrides={"U_ip": 1.0, "psi_b": 3.0})
    data["responses"] = [{"driven": "psi_b", "driver": "U_ip",
                          "kind": "piecewise_linear", "knots": knots,
                          "context": "base"}]
    s = scenario_from_dict(data)
    d1 = finite_difference(s, "psi_b", "U_ip", 1)
    assert d1.lower == pytest.approx(2.0, abs=1e-9)


def test_fd_max_axis_resolution():
    # driver Max(psi_bi, psi_b) resolves to psi_b (5.0 > 4.9)
    s = scenario_with_response("SC_b", "psi_b", [20.0, 2.0],
                               SC_b=30.0)
    out = finite_difference(s, "SC_b", Axis.max_of("psi_bi", "psi_b"), 1)
    assert out.lower == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=2),
    st.floats(min_value=-3, max_value=3),
    st.sampled_from([1, 2]),
)
def test_fd_quadratics_match_analytic(tail, x0, order):
    # degree <= 2 responses: orders 1-2 match analytic within 1e-6 relative
    y0 = 5.0
    c0 = y0 - sum(c * x0 ** (k + 1) for k, c in enumerate(tail))
    analytic = {1: 0.0, 2: 0.0}
    if len(tail) >= 1:
        analytic[1] += tail[0]
    if len(tail) >= 2:
        analytic[1] += 2 * tail[1] * x0
        analytic[2] += 2 * tail[1]
    assume(abs(analytic[order]) >= 1e-2)
    s = scenario_with_response("U_iw", "pi_i", [c0] + tail, pi_i=x0, U_iw=y0)
    h = 1e-3 * max(1.0, abs(x0))
    out = finite_difference(s, "U_iw", "pi_i", order, h=h)
    assert out.lower == pytest.approx(analytic[order], rel=1e-6, abs=1e-9)


# --- expression evaluation ---------------------------------------------------

def test_commission_product(base_scenario):
    s = with_values(base_scenario, {"c": 0.06, "P": 300000.0})
    out = evaluate_expression(s, Mul(Sym("c"), Sym("P")))
    assert out.lower == pytest.approx(18000.0)


def test_missing_link_expression_is_indeterminate():
    expr = Deriv(Sym("I_o"), Axis.sym("psi_bi"), 1)
    data = fixture_dict("x")
    data["responses"] = []
    s = scenario_from_dict(data)
    assert evaluate_expression(s, expr) == INDETERMINATE


def test_overlay_application_is_idempotent(base_scenario):
    s = base_scenario.replace(overlays={"E_s": {"psi_b": 4.0}})
    once = s.value("psi_b", "E_s")
    again = with_values(s, {"psi_b": once}).value("psi_b", "E_s")
    assert once == again == 4.0


# --- horizon integrals -------------------------------------------------------

def path_scenario(paths, **value_overrides):
    data = fixture_dict("paths", value_overrides=value_overrides)
    data["responses"] = []
    data["time_paths"] = paths
    return scenario_from_dict(data)


def test_integrate_constant():
    s = path_scenario([{"symbol": "rho_s", "kind": "constant", "value": 1.0}])
    out = integrate_horizon(s, Mul(Sym("rho_s"), Const(7.0)), T=10.0, dt=1.0)
    assert out == pytest.approx(70.0, abs=1e-9)


def test_integrand_that_is_not_a_point_integrates_to_nan(base_scenario):
    # P * 1e308 overflows, and inf - inf is unknown at every node, so the
    # integral has no value
    big = Mul(Sym("P"), Const(1e308))
    assert math.isnan(integrate_horizon(base_scenario, Sub(big, big), T=1.0, dt=0.5))


def test_integrate_zero_probability_annihilates():
    s = path_scenario([{"symbol": "rho_s", "kind": "constant", "value": 0.0}])
    out = integrate_horizon(s, Mul(Sym("rho_s"), Sym("P_s")), T=10.0, dt=0.5)
    assert out == 0.0


def test_trapezoid_exact_for_linear_integrand():
    s = path_scenario([{"symbol": "P_s", "kind": "linear", "v0": 0.0, "slope": 1.0}])
    out = integrate_horizon(s, Sym("P_s"), T=10.0, dt=1.0)
    assert out == pytest.approx(50.0, abs=1e-9)


def test_sampled_path_must_cover_horizon():
    s = path_scenario([{"symbol": "P_s", "kind": "samples",
                        "times": [0.0, 5.0], "values": [1.0, 2.0]}])
    with pytest.raises(PathCoverageError):
        integrate_horizon(s, Sym("P_s"), T=10.0, dt=1.0)


def test_links_extrapolate_their_end_segments_and_sampled_paths_hold_their_ends():
    # the same two points as a link and as a sampled path: at x = 1.0 the
    # link's line gives 7.3 + 1.0 * (0.1 - 7.3), the path its end value 0.1
    link = ResponseFunction("P_s", "P", "piecewise_linear", knots=((0.0, 7.3), (1.0, 0.1)))
    line = [7.3 + t * (0.1 - 7.3) for t in (-1.0, 1.0, 2.0)]
    assert line[1] == 0.09999999999999964
    assert [eval_response(link, x) for x in (-1.0, 1.0, 2.0)] == line
    assert eval_response(link, np.array([-1.0, 1.0, 2.0])).tolist() == line
    # P * P_s with P_s = t is 0 at t = 0, so the trapezoid on [0, 1] is 0.5 * P(1)
    s = path_scenario([{"symbol": "P", "kind": "samples", "times": [0.0, 1.0],
                        "values": [7.3, 0.1]},
                       {"symbol": "P_s", "kind": "linear", "v0": 0.0, "slope": 1.0}])
    for node_axis_min in (0, 10**9):
        with mock.patch.object(calculus, "NODE_AXIS_MIN", node_axis_min):
            assert integrate_horizon(s, Mul(Sym("P"), Sym("P_s")), T=1.0, dt=1.0) == 0.05


def test_indeterminate_integrand_raises():
    data = fixture_dict("x")
    data["responses"] = []
    s = scenario_from_dict(data)
    # an integrand holds symbols and constants only, as S13's does
    expr = Deriv(Sym("I_o"), Axis.sym("psi_bi"), 1)
    with pytest.raises(TypeError, match="unsupported integrand node Deriv"):
        integrate_horizon(s, expr, T=1.0, dt=0.5)


def test_a_horizon_below_one_picosecond_keeps_its_nodes(base_scenario):
    # The last node closes within 1e-12 of T relative to T: an absolute floor
    # of 1e-12 took t = 0 as the end of a 1e-12 horizon and integrated to 0.
    assert calculus._horizon_nodes(1e-12, 1.25e-13) == [k * 1.25e-13 for k in range(8)] + [1e-12]
    P = base_scenario.value("P")
    assert integrate_horizon(base_scenario, Sym("P"), 1e-12, 1.25e-13) == pytest.approx(P * 1e-12)
    assert calculus._horizon_nodes(1.0, 0.125) == [k * 0.125 for k in range(9)]


def test_integrate_preconditions():
    s = path_scenario([])
    with pytest.raises(ValueError):
        integrate_horizon(s, Const(1.0), T=0.0, dt=0.1)
    with pytest.raises(ValueError):
        integrate_horizon(s, Const(1.0), T=1.0, dt=2.0)


def _s13_integrands():
    from dismed.conditions import ConditionId, build_form
    part = build_form(ConditionId.parse("S13"), RunConfig()).parts[0]
    return (part.lhs.integrand, *(leaf.integrand for leaf in part.rhs.parts))


_S13_INTEGRANDS = _s13_integrands()
_S13_SYMBOLS = sorted(expr_symbols(_S13_INTEGRANDS))
# small values, signed zeros, and values whose products overflow, so that
# some nodes are unknown and their integrals NaN
_PATH_NUMBERS = st.one_of(st.floats(-10.0, 10.0),
                          st.sampled_from([0.0, -0.0, 1e-300, 1e308, -1e308]))


@st.composite
def _time_path(draw, symbol: str, T: float, dt: float):
    kind = draw(st.sampled_from(["constant", "linear", "samples", "samples"]))
    if kind == "constant":
        return TimePath(symbol, kind, value=draw(_PATH_NUMBERS))
    if kind == "linear":
        return TimePath(symbol, kind, v0=draw(_PATH_NUMBERS),
                        slope=draw(st.one_of(st.floats(-1.0, 1.0), _PATH_NUMBERS)))
    # sample times on the nodes (a node time is k * dt) and between them
    on_node = st.integers(1, round(T / dt) - 1).map(lambda k: k * dt)
    inner = draw(st.lists(st.one_of(on_node, on_node, st.floats(0.0, T, exclude_min=True,
                                                                exclude_max=True)),
                          max_size=12, unique=True))
    # mostly covering [0, T]; sometimes ending early or starting late
    first = draw(st.sampled_from([0.0] * 4 + [-1.0, T / 2]))
    last = draw(st.sampled_from([T] * 4 + [T + 1.0, T / 2 + 1e-9]))
    times = sorted({first, *(t for t in inner if first < t < last), last})
    return TimePath(symbol, kind, times=tuple(times),
                    values=tuple(draw(_PATH_NUMBERS) for _ in times))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _path_sets(draw):
    T = draw(st.sampled_from([1.0, 10.0]))
    dt = draw(st.sampled_from([0.125, 0.01, 0.003, 1e-3]))
    symbols = draw(st.lists(st.sampled_from(_S13_SYMBOLS), min_size=1, max_size=4, unique=True))
    return T, dt, tuple(draw(_time_path(name, T, dt)) for name in symbols)


@settings(max_examples=40, deadline=None)
@given(case=_path_sets())
# a sample on the node t = 0.375, whose interpolation from the sample before
# it (7.3 + 1.0 * (0.1 - 7.3)) would not give 0.1
@example(case=(1.0, 0.125, (TimePath("rho_s", "samples", times=(0.0, 0.375, 1.0),
                                     values=(7.3, 0.1, 2.0)),)))
def test_node_axis_integrals_equal_the_node_walk_bit_for_bit(case):
    T, dt, paths = case
    s = path_scenario([]).replace(time_paths=paths)

    def integrals(node_axis_min):
        out = []
        with mock.patch.object(calculus, "NODE_AXIS_MIN", node_axis_min):
            for integrand in _S13_INTEGRANDS:
                try:
                    out.append(_bits(integrate_horizon(s, integrand, T, dt)))
                except PathCoverageError as exc:
                    out.append(str(exc))
        return out
    assert integrals(0) == integrals(10**9)


_DRAW_NUMBERS = st.one_of(_PATH_NUMBERS, st.floats(), st.sampled_from([math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_S13_INTEGRANDS), st.integers(1, 5).flatmap(
           lambda n: st.lists(st.lists(_DRAW_NUMBERS, min_size=n, max_size=n),
                              min_size=1, max_size=3)),
       st.sampled_from([(1.0, 0.125), (1.0, 0.1), (1.0, 0.01), (10.0, 0.7)]))
def test_a_per_draw_integral_equals_the_node_walk_bit_for_bit(integrand, columns, horizon):
    # no time path: the integrand is one value per draw, whose terms the
    # block sums in one reduction down the node axis
    T, dt = horizon
    s = path_scenario([])
    names = sorted(expr_symbols(integrand))[:len(columns)]
    values = list(s.values)
    for name, column in zip(names, columns):
        values[SYMBOLS[name]] = np.array(column)
    integrate = calculus._compile_integral(integrand, T, dt)
    with np.errstate(all="ignore"):
        got = np.broadcast_to(integrate(s.replace(values=tuple(values))), len(columns[0]))
    for k, total in enumerate(got.tolist()):
        draw = with_values(s, {name: column[k] for name, column in zip(names, columns)})
        assert _bits(total) == _bits(integrate(draw)), k


def test_default_horizon_walks_its_nodes_without_numpy(tmp_path):
    probe = ("import sys\n"
             "from dismed import calculus, decide, load_scenario\n"
             "from dismed.calculus import _horizon_nodes\n"
             "from dismed.config import RunConfig\n"
             "cfg = RunConfig()\n"
             "assert len(_horizon_nodes(cfg.horizon_T, cfg.horizon_dt)) <= calculus.NODE_AXIS_MIN\n"
             "decide(load_scenario(sys.argv[1]), cfg)\n"
             "sys.exit('numpy' in sys.modules)\n")
    data = json.loads((Path(__file__).parent / "fixtures" / "all_three_satisfied.json").read_text())
    data["time_paths"] = [{"symbol": "P", "kind": "linear", "v0": 10.0, "slope": 0.01}]
    moving = tmp_path / "moving.json"
    moving.write_text(json.dumps(data))
    done = subprocess.run([sys.executable, "-c", probe, str(moving)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# --- state-context responses ---------------------------------------------------

def test_state_context_response_and_fallback():
    # overlay shifts both driver (U_ip 2 -> 3) and driven (psi_b 5 -> 6);
    # the state-scoped link anchors at the overlay point
    data = fixture_dict("ctx")
    data["overlays"] = {"E_s": {"U_ip": 3.0, "psi_b": 6.0}}
    data["responses"].append({
        "driven": "psi_b", "driver": "U_ip", "kind": "polynomial",
        "coeffs": [6.0 - 3.0 - 9.0 * 0.5, 1.0, 0.5], "context": "E_s"})
    s = scenario_from_dict(data)
    base = finite_difference(s, "psi_b", "U_ip", 1)
    state = finite_difference(s, "psi_b", "U_ip", 1, context="E_s")
    assert base.lower == pytest.approx(0.2, abs=1e-9)   # base link slope
    assert state.lower == pytest.approx(4.0, abs=1e-6)  # p'(3) = 1 + 2*0.5*3


def test_state_context_falls_back_to_base_link_at_overlay_point():
    # no E_p-scoped link for (psi_bi, U_iw): the base quadratic is evaluated
    # at the overlay-shifted driver value, so the slope moves with the point
    data = fixture_dict("fb")
    data["overlays"] = {"E_p": {"U_iw": 5.0}}
    s = scenario_from_dict(data)
    at_base = finite_difference(s, "psi_bi", "U_iw", 1)
    at_state = finite_difference(s, "psi_bi", "U_iw", 1, context="E_p")
    assert at_base.lower == pytest.approx(1.7, abs=1e-6)
    assert at_state.lower == pytest.approx(1.7 + 0.4 * 2.0, abs=1e-6)


def test_state_context_response_consistency_checked_under_overlay():
    from dismed import ValidationError

    data = fixture_dict("badctx")
    data["overlays"] = {"E_s": {"U_ip": 3.0, "psi_b": 6.0}}
    # passes through the base point (2, 5) but misses the overlay point (3, 6)
    data["responses"].append({
        "driven": "psi_b", "driver": "U_ip", "kind": "polynomial",
        "coeffs": [1.0, 2.0], "context": "E_s"})
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    assert "ResponseConsistency" in {v.code for v in exc.value.violations}


def test_approx_equal_zero_floor():
    assert _close(0.0, 0.0, 0.05)
    assert not _close(0.0, 1e-10, 0.05)  # 1e-10 > 0.05 * 1e-12
