"""Independent straight-line evaluator for all 44 conditions.

This is the test oracle: it re-evaluates each condition exactly as printed,
with its own plumbing. Derivatives are computed analytically from declared
response parameters (polynomial differentiation, piecewise-linear segment
slopes) instead of finite differences; unknown quantities are (-inf, +inf)
pairs with hand-rolled three-valued comparisons. Only scenario serialization
and the RunConfig record are shared with the engine - no evaluation code.

Each ``oracle_*`` function returns (status_string, margins). Margins are the
signed decision distances the random-scenario generator uses to keep test
cases away from knife-edge ties; None margins (undecided parts) are skipped.

The module ends with the broker optimizer's capital, feasibility and
objective as it computed them on every call, before it compiled them once
per solve; they read the Scenario through ``value`` and ``response_for``.
Last comes its pattern search as it was before its polls stopped calling
``min``/``max``/``list`` per trial.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from dismed.config import RunConfig
from dismed.errors import MissingCapitalResponse
from dismed.io import scenario_to_dict

INF = math.inf
UNK = (-INF, INF)

SAT = "Satisfied"
VIO = "Violated"
VAC = "VacuouslySatisfied"
IND = "Indeterminate"


def iv(x):
    return UNK if x is None else (x, x)


def imax(*pairs):
    return (max(p[0] for p in pairs), max(p[1] for p in pairs))


def imin(*pairs):
    return (min(p[0] for p in pairs), min(p[1] for p in pairs))


def tri_gt(a, b):
    if a[0] > b[1]:
        return True
    if a[1] <= b[0]:
        return False
    return None


def tri_lt(a, b):
    return tri_gt(b, a)


def combine(tris):
    if any(t is False for t in tris):
        return VIO
    if any(t is None for t in tris):
        return IND
    return SAT


def _poly_derivative(coeffs, order):
    cs = list(coeffs)
    for _ in range(order):
        cs = [k * c for k, c in enumerate(cs)][1:]
        if not cs:
            return [0.0]
    return cs


def _poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class View:
    """Plain-dict access to a scenario plus analytic response derivatives."""

    def __init__(self, scenario, cfg: RunConfig):
        self.data = scenario_to_dict(scenario)
        self.cfg = cfg
        self.resp = {}
        for r in self.data.get("responses", []):
            if r.get("context", "base") == "base":
                self.resp[(r["driven"], r["driver"])] = r

    def v(self, name, state=None):
        if state is not None:
            ov = self.data.get("overlays", {}).get(state, {})
            if name in ov:
                return ov[name]
        return self.data[name]

    def bundle(self, driver, state=None):
        return sum(self.v(p, state) for p in driver.split("+"))

    def resp_value(self, driven, driver):
        r = self.resp.get((driven, driver))
        if r is None:
            return None
        return self._eval(r, self.bundle(driver))

    def _eval(self, r, x):
        if r["kind"] == "polynomial":
            return _poly_eval(r["coeffs"], x)
        return self._pl_eval(r["knots"], x)

    @staticmethod
    def _pl_eval(knots, x):
        if len(knots) == 1:
            return knots[0][1]
        if x <= knots[0][0]:
            (x0, y0), (x1, y1) = knots[0], knots[1]
        elif x >= knots[-1][0]:
            (x0, y0), (x1, y1) = knots[-2], knots[-1]
        else:
            i = max(j for j in range(len(knots)) if knots[j][0] <= x)
            (x0, y0), (x1, y1) = knots[i], knots[i + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    def _analytic(self, r, x0, order):
        if r["kind"] == "polynomial":
            return _poly_eval(_poly_derivative(r["coeffs"], order), x0)
        if order >= 2:
            return 0.0
        knots = r["knots"]
        if len(knots) == 1:
            return 0.0
        if x0 <= knots[0][0]:
            (xa, ya), (xb, yb) = knots[0], knots[1]
        elif x0 >= knots[-1][0]:
            (xa, ya), (xb, yb) = knots[-2], knots[-1]
        else:
            i = max(j for j in range(len(knots)) if knots[j][0] <= x0)
            (xa, ya), (xb, yb) = knots[i], knots[i + 1]
        return (yb - ya) / (xb - xa)

    def d(self, driven, driver, order):
        """Analytic derivative of a '+'-sum of symbols along a driver; None if
        any component link is missing."""
        x0 = self.bundle(driver)
        single = "+" not in driver
        total = 0.0
        for name in driven.split("+"):
            if single and name == driver:
                total += 1.0 if order == 1 else 0.0
                continue
            r = self.resp.get((name, driver))
            if r is None:
                return None
            total += self._analytic(r, x0, order)
        return total

    def d_joint(self, driver, order):
        """Analytic derivative of rho_i ^ rho_p along a driver."""
        ri = self.resp.get(("rho_i", driver))
        rp = self.resp.get(("rho_p", driver))
        if ri is None or rp is None:
            return None
        x0 = self.bundle(driver)
        f = self._eval(ri, x0)
        g = self._eval(rp, x0)
        f1 = self._analytic(ri, x0, 1)
        g1 = self._analytic(rp, x0, 1)
        if self.cfg.intersection == "min":
            branch = ri if f < g else rp
            return self._analytic(branch, x0, order)
        if order == 1:
            return f1 * g + f * g1
        if order == 2:
            f2 = self._analytic(ri, x0, 2)
            g2 = self._analytic(rp, x0, 2)
            return f2 * g + 2.0 * f1 * g1 + f * g2
        raise ValueError("joint derivative supports orders 1-2")

    def joint(self, a, b, state=None):
        x, y = self.v(a, state), self.v(b, state)
        return min(x, y) if self.cfg.intersection == "min" else x * y

    def psi_max_driver(self, first, second):
        return first if self.v(first) >= self.v(second) else second

    def argmax_state(self, candidates=("E_s", "E_p", "E_m")):
        best, best_v = None, -INF
        for name in candidates:
            if self.v(name) > best_v:
                best, best_v = name, self.v(name)
        return best

    def failed_guard(self):
        """A failed guard's status: Violated under guard_mode "violated",
        VacuouslySatisfied otherwise ("skip" only leaves it out of the counts)."""
        return VIO if self.cfg.guard_mode == "violated" else VAC

    def approx(self, a, b):
        return abs(a - b) <= self.cfg.rel_tol * max(abs(a), abs(b), 1e-12)

    def approx_margin(self, a, b):
        return self.cfg.rel_tol * max(abs(a), abs(b), 1e-12) - abs(a - b)

    def path_value(self, name, t):
        for tp in self.data.get("time_paths", []):
            if tp["symbol"] != name:
                continue
            if tp["kind"] == "constant":
                return tp["value"]
            if tp["kind"] == "linear":
                return tp["v0"] + tp["slope"] * t
            ts, vs = tp["times"], tp["values"]
            if t <= ts[0]:
                return vs[0]
            if t >= ts[-1]:
                return vs[-1]
            i = max(j for j in range(len(ts)) if ts[j] <= t)
            frac = (t - ts[i]) / (ts[i + 1] - ts[i])
            return vs[i] + frac * (vs[i + 1] - vs[i])
        return self.v(name)

    def simpson(self, f):
        """Exact for integrands up to cubic in t (paths here are at most
        linear, so products of two path-driven factors stay within that)."""
        T = self.cfg.horizon_T
        return T / 6.0 * (f(0.0) + 4.0 * f(T / 2.0) + f(T))


# --- margin helpers ---------------------------------------------------------

def _gt_margin(lhs, rhs):
    """Signed margin of a decided lhs > rhs with interval operands."""
    t = tri_gt(lhs, rhs)
    if t is None:
        return None
    return lhs[0] - rhs[1] if t else lhs[1] - rhs[0]


def _lt_margin(lhs, rhs):
    return _gt_margin(rhs, lhs)


# --- buyer conditions -------------------------------------------------------

def oracle_B1(view):
    margins = [view.v("U_iw") - view.v("U_ip")]
    if view.cfg.b1_guard_joint:
        tris = [view.v("U_iw") > view.v("U_ip"),
                view.v("I_i") > view.v("I_p"),
                view.v("I_i") + view.v("I_o") > view.v("I_p")]
        margins += [view.v("I_i") - view.v("I_p"),
                    view.v("I_i") + view.v("I_o") - view.v("I_p")]
        return combine(tris), margins
    if not view.v("U_iw") > view.v("U_ip"):
        return view.failed_guard(), margins
    t1 = view.v("I_i") > view.v("I_p")
    t2 = view.v("I_i") + view.v("I_o") > view.v("I_p")
    margins += [view.v("I_i") - view.v("I_p"),
                view.v("I_i") + view.v("I_o") - view.v("I_p")]
    return combine([t1, t2]), margins


def oracle_B2(view):
    m = view.approx_margin(view.v("I_i"), view.v("psi_b"))
    return (SAT if m >= 0 else VIO), [m]


def _b34_body(view, st):
    lhs = (view.v("c", st) * view.v("P", st) + view.v("psi_b", st)
           + view.v("pi_b", st))
    rhs = view.v("psi_bi") + view.v("pi_i") + view.v("U_iw")
    return lhs, rhs


def oracle_B3(view):
    st = view.argmax_state()
    gm = view.approx_margin(view.v("P_s", st), view.v("P_b", st))
    if gm < 0:
        return view.failed_guard(), [gm]
    lhs, rhs = _b34_body(view, st)
    return (SAT if lhs > rhs else VIO), [gm, lhs - rhs]


def oracle_B4(view):
    st = view.argmax_state()
    gm = view.v("U_iw", st) - view.v("U_ip", st)
    if gm <= 0:
        return view.failed_guard(), [gm]
    lhs, rhs = _b34_body(view, st)
    return (SAT if lhs > rhs else VIO), [gm, lhs - rhs]


def oracle_B5(view):
    m1 = view.v("psi_b") - view.v("psi_bi")
    m2 = view.v("U_iw") - view.v("U_ip")
    return combine([m1 > 0, m2 > 0]), [m1, m2]


def oracle_B6(view):
    lhs2 = iv(view.d("psi_b", "U_ip", 2))
    rhs2 = imin(iv(view.d("psi_bi", "U_iw", 2)), iv(1.0))
    lhs1 = iv(view.d("psi_b", "U_ip", 1))
    rhs1 = imin(iv(view.d("psi_bi", "U_iw", 1)), iv(1.0))
    return (combine([tri_lt(lhs2, rhs2), tri_lt(lhs1, rhs1)]),
            [_lt_margin(lhs2, rhs2), _lt_margin(lhs1, rhs1)])


def oracle_B7(view):
    lhs1 = iv(view.d("U_iw", "pi_i", 1))
    rhs1 = imin(iv(view.d("U_ip", "pi_b", 1)), iv(0.0))
    lhs2 = iv(view.d("U_iw", "pi_i", 2))
    rhs2 = imin(iv(view.d("U_ip", "pi_b", 2)), iv(0.0))
    return (combine([tri_gt(lhs1, rhs1), tri_gt(lhs2, rhs2)]),
            [_gt_margin(lhs1, rhs1), _gt_margin(lhs2, rhs2)])


def oracle_B8(view):
    lhs2 = iv(view.d("I_o", "psi_bi", 2))
    rhs2 = imax(iv(view.d("I_p+I_i", "psi_b", 2)), iv(1.0))
    lhs1 = iv(view.d("I_o", "psi_bi", 1))
    rhs1 = imax(iv(view.d("I_p+I_i", "psi_b", 1)), iv(1.0))
    return (combine([tri_gt(lhs2, rhs2), tri_gt(lhs1, rhs1)]),
            [_gt_margin(lhs2, rhs2), _gt_margin(lhs1, rhs1)])


def oracle_B9(view):
    st = view.argmax_state()
    lhs = iv(view.d("I_p+I_i", st, 1))
    return combine([tri_lt(lhs, iv(1.0))]), [_lt_margin(lhs, iv(1.0))]


def oracle_B10(view):
    lhs1 = iv(view.d("I_p+I_i", "U_ip+U_iw", 1))
    rhs1 = imin(iv(view.d("I_o", "U_a", 1)), iv(1.0))
    lhs2 = iv(view.d("I_p+I_i", "U_ip+U_iw", 2))
    rhs2 = imin(iv(view.d("I_o", "U_a", 2)), iv(1.0))
    return (combine([tri_lt(lhs1, rhs1), tri_lt(lhs2, rhs2)]),
            [_lt_margin(lhs1, rhs1), _lt_margin(lhs2, rhs2)])


def oracle_B11(view):
    lhs1 = iv(view.d("I_p+I_i", "U_ip+U_iw", 3))
    lhs2 = iv(view.d("I_o", "U_a", 3))
    return (combine([tri_lt(lhs1, iv(1.0)), tri_lt(lhs2, iv(1.0))]),
            [_lt_margin(lhs1, iv(1.0)), _lt_margin(lhs2, iv(1.0))])


def oracle_B12(view):
    lhs3 = iv(view.d("P_b", "P", 3))
    rhs3 = imax(iv(view.d("I_o", "I_p+I_i", 3)), iv(1.0))
    lhs1 = iv(view.d("P_b", "P", 1))
    rhs1 = imax(iv(view.d("I_o", "I_p+I_i", 1)), iv(1.0))
    return (combine([tri_gt(lhs3, rhs3), tri_gt(lhs1, rhs1)]),
            [_gt_margin(lhs3, rhs3), _gt_margin(lhs1, rhs1)])


def oracle_B13(view):
    rhs = (view.v("c") * view.v("P") + view.v("pi_sb")
           + view.v("I_p") + view.v("I_i"))
    m = rhs - view.v("u_hat_s")
    return (SAT if m > 0 else VIO), [m]


def oracle_B14(view):
    lhs = iv(view.d("u_hat_s", "pi_sb+I_p+I_i", 1))
    return combine([tri_lt(lhs, iv(1.0))]), [_lt_margin(lhs, iv(1.0))]


def oracle_B15(view):
    lhs = view.v("SC_b") - view.v("psi_bi") - view.v("psi_b")
    rhs = (view.v("U_ip") + view.v("U_iw") + view.v("I_p")
           + view.v("I_i") + view.v("pi_b"))
    return (SAT if lhs > rhs else VIO), [lhs - rhs]


def _sc_head(view, driven, order):
    driver = view.psi_max_driver("psi_bi", "psi_b") if driven == "SC_b" \
        else view.psi_max_driver("psi_si", "psi_s")
    return iv(view.d(driven, driver, order))


def oracle_B16(view):
    lhs = _sc_head(view, "SC_b", 1)
    rhs = imax(iv(1.0), iv(view.d("U_ip+U_iw", "I_p+I_i+pi_b", 1)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_B17(view):
    lhs = _sc_head(view, "SC_b", 2)
    rhs = imax(iv(0.0), iv(view.d("U_ip+U_iw", "I_p+I_i+pi_b", 2)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_B18(view):
    lhs = _sc_head(view, "SC_b", 1)
    rhs = imax(iv(1.0), iv(view.d_joint("U_ip+U_iw", 1)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_B19(view):
    lhs = _sc_head(view, "SC_b", 2)
    rhs = imax(iv(0.0), iv(view.d_joint("U_ip+U_iw", 2)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


# --- broker web conditions --------------------------------------------------

def oracle_W1(view):
    st = "E_p"
    gm = view.v("psi_b", st) - view.v("psi_bi", st)
    if gm <= 0:
        return view.failed_guard(), [gm]
    lhs = (view.v("c", st) * view.v("P", st) * view.v("rho_p", st)
           - view.v("B_b", st) - view.v("B_s", st))
    rhs = view.v("B_i", st)
    return (SAT if lhs < rhs else VIO), [gm, rhs - lhs]


def oracle_W2(view):
    st = view.argmax_state(("E_s", "E_p"))
    m = view.v("U_iw", st) - view.v("U_ip", st)
    return (SAT if m > 0 else VIO), [m]


def oracle_W3(view):
    m = (view.v("psi_bi") * view.v("rho_i")
         - view.v("c") * view.v("P") * view.v("rho_p"))
    return (SAT if m > 0 else VIO), [m]


def _near_zero(view, d):
    if d is None:
        return None, None
    m = view.cfg.zero_tol - abs(d)
    return (m >= 0), m


def oracle_W4(view):
    t, m = _near_zero(view, view.d("rho_i", "rho_p", 1))
    return combine([t]), [m]


def oracle_W5(view):
    drv = view.cfg.w5_driver
    t1, m1 = _near_zero(view, view.d("rho_i", drv, 1))
    t2, m2 = _near_zero(view, view.d("rho_p", drv, 1))
    return combine([t1, t2]), [m1, m2]


def oracle_W6(view):
    lhs = iv(view.d("B_i", "I_i", 1))
    rhs = iv(view.d("RC_br+SC_br", "I_i", 1))
    return combine([tri_lt(lhs, rhs)]), [_lt_margin(lhs, rhs)]


def oracle_W7(view):
    lhs = iv(view.d("RC_br+SC_br", "B_i", 1))
    return combine([tri_gt(lhs, iv(1.0))]), [_gt_margin(lhs, iv(1.0))]


# --- seller conditions ------------------------------------------------------

def oracle_S1(view):
    j = view.joint("rho_p", "rho_i")
    rs = view.v("rho_s")
    ms = [rs - j, rs - view.v("rho_p"), rs - view.v("rho_i")]
    return combine([m > 0 for m in ms]), ms


def oracle_S2(view):
    lhs1 = iv(view.d("I_o", "psi_si", 1))
    rhs1 = imax(iv(view.d("I_p+I_o", "psi_sb", 1)), iv(1.0))
    lhs3 = iv(view.d("I_o", "psi_si", 3))
    rhs3 = imax(iv(view.d("I_p+I_o", "psi_sb", 3)), iv(1.0))
    return (combine([tri_gt(lhs1, rhs1), tri_gt(lhs3, rhs3)]),
            [_gt_margin(lhs1, rhs1), _gt_margin(lhs3, rhs3)])


def oracle_S3(view):
    ua = "U_sa" if view.cfg.seller_uses_U_sa else "U_a"
    lhs1 = iv(view.d(ua, "psi_si", 1))
    rhs1 = imax(iv(view.d("U_sp+U_sw", "psi_s", 1)), iv(1.0))
    lhs3 = iv(view.d(ua, "psi_si", 3))
    rhs3 = imax(iv(view.d("U_sp+U_sw", "psi_s", 3)), iv(1.0))
    return (combine([tri_gt(lhs1, rhs1), tri_gt(lhs3, rhs3)]),
            [_gt_margin(lhs1, rhs1), _gt_margin(lhs3, rhs3)])


def oracle_S4(view):
    st = view.argmax_state()
    m1 = view.v("psi_s") - view.v("psi_si")
    m2 = view.v("psi_s", st) - view.v("psi_si", st)
    return combine([m1 > 0, m2 > 0]), [m1, m2]


def oracle_S5(view):
    st = view.argmax_state()
    m1 = view.v("I_o") - (view.v("I_i") + view.v("I_p"))
    m2 = view.v("I_o", st) - (view.v("I_i", st) + view.v("I_p", st))
    return combine([m1 > 0, m2 > 0]), [m1, m2]


def oracle_S6(view):
    lhs = iv(view.d("P_s", "P", 1))
    return combine([tri_gt(lhs, iv(1.0))]), [_gt_margin(lhs, iv(1.0))]


def oracle_S7(view):
    ua = "U_sa" if view.cfg.seller_uses_U_sa else "U_a"
    lhs = iv(view.d("pi_sb", "U_sp+U_sw", 1))
    rhs = iv(view.d("pi_s", ua, 1))
    m2 = view.v("pi_sb") - view.v("pi_s")
    return (combine([tri_gt(lhs, rhs), m2 > 0]),
            [_gt_margin(lhs, rhs), m2])


def oracle_S8(view):
    pairs = [
        (iv(view.d("P", "pi_sb", 1)), imax(iv(view.d("P", "pi_s", 1)), iv(1.0))),
        (iv(view.d("P_s", "pi_sb", 1)), imax(iv(view.d("P_s", "pi_s", 1)), iv(1.0))),
        (iv(view.d("P_s", "P", 1)), iv(1.0)),
        (iv(view.d("P", "c", 1)), iv(1.0)),
    ]
    return (combine([tri_gt(a, b) for a, b in pairs]),
            [_gt_margin(a, b) for a, b in pairs])


def oracle_S9(view):
    m1 = (view.v("psi_sb") + view.v("pi_sb")) - (view.v("psi_si") + view.v("pi_s"))
    lhs = iv(view.d("psi_sb+pi_sb", "P_s", 1))
    rhs = iv(view.d("psi_si+pi_s", "P_s", 1))
    return (combine([m1 > 0, tri_gt(lhs, rhs)]), [m1, _gt_margin(lhs, rhs)])


def oracle_S10(view):
    lhs = iv(view.d("psi_sb+pi_sb", "c", 1))
    rhs = iv(view.d("psi_si+pi_s", "c", 1))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_S11(view):
    lhs = iv(view.d("psi_sb+pi_sb", "pi_sb", 1))
    rhs = iv(view.d("psi_si+pi_s", "pi_sb", 1))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_S12(view):
    m1 = view.v("rho_s") - view.v("rho_p")
    m2 = view.v("rho_s") - view.v("rho_i")
    return combine([m1 > 0, m2 > 0]), [m1, m2]


def oracle_S13(view):
    def own(t):
        return view.path_value("rho_s", t) * (
            view.path_value("P_s", t) - view.path_value("pi_b", t)
            - view.path_value("pi_s", t) - view.path_value("psi_si", t))

    def physical(t):
        return view.path_value("rho_p", t) * (
            view.path_value("P", t) - view.path_value("pi_b", t)
            - view.path_value("pi_sb", t) - view.path_value("psi_s", t))

    def web(t):
        ri = view.path_value("rho_i", t)
        rp = view.path_value("rho_p", t)
        j = min(ri, rp) if view.cfg.intersection == "min" else ri * rp
        return j * (view.path_value("P", t) - view.path_value("pi_b", t)
                    - view.path_value("pi_sb", t) - view.path_value("psi_sb", t))

    m = view.simpson(own) - max(view.simpson(physical), view.simpson(web))
    return (SAT if m > 0 else VIO), [m]


def oracle_S14(view):
    lhs = view.v("SC_s") - view.v("psi_si") - view.v("pi_sb") * view.v("pi_sb")
    rhs = (view.v("U_sw") + view.v("U_sp") + view.v("I_p")
           + view.v("I_i") + view.v("pi_sb"))
    return (SAT if lhs > rhs else VIO), [lhs - rhs]


def oracle_S15(view):
    lhs = _sc_head(view, "SC_s", 1)
    rhs = imax(iv(1.0), iv(view.d("U_sp+U_sw", "I_p+I_i+pi_b", 1)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_S16(view):
    lhs = _sc_head(view, "SC_s", 2)
    rhs = imax(iv(0.0), iv(view.d("U_sp+U_sw", "I_p+I_i+pi_b", 2)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_S17(view):
    lhs = _sc_head(view, "SC_s", 1)
    rhs = imax(iv(1.0), iv(view.d_joint("U_sp+U_sw", 1)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


def oracle_S18(view):
    lhs = _sc_head(view, "SC_s", 2)
    rhs = imax(iv(0.0), iv(view.d_joint("U_sp+U_sw", 2)))
    return combine([tri_gt(lhs, rhs)]), [_gt_margin(lhs, rhs)]


ORACLES = {
    name.split("_", 1)[1]: fn
    for name, fn in list(globals().items())
    if name.startswith("oracle_")
}


def oracle_statuses(scenario, cfg: RunConfig = RunConfig()):
    """Status per condition label, straight-line evaluated."""
    view = View(scenario, cfg)
    return {label: fn(view)[0] for label, fn in ORACLES.items()}


def oracle_margins(scenario, cfg: RunConfig = RunConfig()):
    """All decided margins, plus tie gaps that must stay away from zero."""
    view = View(scenario, cfg)
    margins = []
    for fn in ORACLES.values():
        margins.extend(m for m in fn(view)[1] if m is not None)
    margins += tie_gaps(view)
    return margins


def tie_gaps(view: View):
    """Distances whose sign picks a branch (max-driver and state resolution,
    min-mode intersection branch); near-zero values make statuses fragile."""
    gaps = [view.v("psi_bi") - view.v("psi_b"),
            view.v("psi_si") - view.v("psi_s"),
            view.v("E_s") - view.v("E_p"),
            view.v("E_p") - view.v("E_m"),
            view.v("E_s") - view.v("E_m")]
    if view.cfg.intersection == "min":
        gaps.append(view.v("rho_i") - view.v("rho_p"))
    return gaps


# ---------------------------------------------------------------------------
# Broker objective, one call at a time
# ---------------------------------------------------------------------------
# Every lookup and response evaluation is repeated on each call, in the float
# operations and order of the optimizer's compiled functions, which must give
# the same bits.

FEASIBILITY_SLACK = 1e-9
CAPITAL_SYMBOLS = ("SC_br", "RC_br")
DECISION_FIELDS = ("B_b", "B_s", "B_i", "B_n")


def _response_at(r, x):
    if r.kind == "polynomial":
        acc = 0.0
        for coef in reversed(r.coeffs):
            acc = acc * x + coef
        return acc
    ks = r.knots
    if len(ks) == 1:
        return ks[0][1]
    lo = min(max(bisect_right([k[0] for k in ks], x) - 1, 0), len(ks) - 2)
    (x0, y0), (x1, y1) = ks[lo], ks[lo + 1]
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def oracle_capital(s, d, ctx):
    links = []
    for sym in CAPITAL_SYMBOLS:
        for drv in DECISION_FIELDS:
            r = s.response_for(sym, drv, ctx)
            if r is not None:
                links.append((sym, drv, r))
    if not links:
        raise MissingCapitalResponse("no capital link")
    total = 0.0
    for sym in CAPITAL_SYMBOLS:
        value = s.value(sym, ctx)
        for lsym, drv, r in links:
            if lsym != sym:
                continue
            value += _response_at(r, getattr(d, drv)) - _response_at(r, s.value(drv, ctx))
        total += value
    return total


def oracle_feasible(s, d, ctx=None):
    cp = s.value("c", ctx) * s.value("P", ctx)
    slack = cp - max(0.0, d.B_b + d.B_s + d.B_i)
    return slack >= FEASIBILITY_SLACK * max(1.0, abs(cp))


def oracle_argmin_state(s):
    best, best_v = None, INF
    for name in ("E_m", "E_p", "E_s"):
        if s.value(name) < best_v:
            best, best_v = name, s.value(name)
    return best


def oracle_objective(s, d, mode="combined", weights=(1.0, 1.0)):
    capital = oracle_capital(s, d, oracle_argmin_state(s))
    cost = d.B_b + d.B_s + d.B_i + d.B_n
    if mode == "combined":
        return capital - cost
    if mode == "weighted":
        return weights[0] * capital - weights[1] * cost
    raise ValueError(f"unknown objective mode {mode!r}")


# ---------------------------------------------------------------------------
# Broker pattern search, as written with builtin clipping
# ---------------------------------------------------------------------------
# The optimizer's search before its polls inlined the box clip and hoisted the
# per-dimension bounds; every trial, its order and its floats must match.

INIT_STEP_FRAC = 0.125
TOL_FRAC = 1e-6
MAX_ITER = 100_000


def oracle_pattern_search(f, lows, highs, x0):
    dims = [j for j in range(len(lows)) if highs[j] > lows[j]]
    widths = [highs[j] - lows[j] for j in range(len(lows))]
    steps = [w * INIT_STEP_FRAC for w in widths]
    x = [min(max(v, lo), hi) for v, lo, hi in zip(x0, lows, highs)]
    fx = f(x)
    iterations = 0
    while iterations < MAX_ITER:
        iterations += 1
        best_fx, best_x = fx, None
        for j in dims:
            for v in (x[j] + steps[j], x[j] - steps[j]):
                v = min(max(v, lows[j]), highs[j])
                if v == x[j]:
                    continue
                trial = list(x)
                trial[j] = v
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
                trial[i] = min(max(x[i] + delta, lows[i]), highs[i])
                trial[j] = min(max(x[j] - delta, lows[j]), highs[j])
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
