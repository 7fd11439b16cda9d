"""Scenario data model: every base symbol of the brokerage model, plus
response functions, listing-state overlays and time paths.

The 41 base symbols are stored flat: ``Scenario.values`` holds one float per
symbol, and ``SYMBOLS`` maps each name to its slot, in the order scenario
files and payloads list them. Only this module knows that layout; everything
else reads ``Scenario.value(name, state)`` and copies with ``with_values``.
The module also owns scenario validation; violations are data, not
exceptions.

Naming notes:
  * broker effort is exposed as ``u_hat`` and the buyer's perception of it as
    ``u_hat_s``; the reputation/social-capital derivatives elsewhere treat the
    effort variable ``e`` as an alias of ``u_hat``.
  * ``B_op``, ``B_it``, ``prospect_count`` and ``valued_time_share`` are
    carried and validated but enter no decision condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence

DECIMALS_SIGNIFICANT = 12

STATE_NAMES = ("E_s", "E_p", "E_m")

#: Decision fields the broker optimizer may steer.
DECISION_FIELDS = ("B_b", "B_s", "B_i", "B_n")


def canonical_round(x: float) -> float:
    """Round to 12 significant digits, the model's canonical numeric identity."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{DECIMALS_SIGNIFICANT}g}")


@dataclass(frozen=True)
class ResponseFunction:
    """A declared univariate functional link ``driven = f(driver)``.

    ``driver`` may be a single symbol or a bundle like ``"U_ip+U_iw"`` whose
    base value is the sum of its components. ``context`` scopes the link to a
    listing state; evaluation falls back from state context to base.
    Polynomials store coefficients lowest order first; piecewise-linear links
    store (x, y) knots with strictly increasing x and extrapolate linearly
    from the terminal segments.
    """

    driven: str
    driver: str
    kind: str  # "polynomial" | "piecewise_linear"
    coeffs: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = ()
    context: str = "base"


@dataclass(frozen=True)
class TimePath:
    """Time evolution of one symbol over an integration horizon."""

    symbol: str
    kind: str  # "constant" | "linear" | "samples"
    value: float = 0.0                 # constant
    v0: float = 0.0                    # linear intercept
    slope: float = 0.0                 # linear slope
    times: tuple[float, ...] = ()      # samples
    values: tuple[float, ...] = ()


#: Symbol name -> slot in ``Scenario.values``, in file and payload order.
SYMBOLS: dict[str, int] = {name: i for i, name in enumerate((
    # valuation: appraised value (> 0), value to buyer (> 0) and to seller,
    # commission rate in (0, 1)
    "P", "P_b", "P_s", "c",
    # broker costs: serving a buyer, new-client search, operating expense
    # (carried only), listing, amortized and present-value (carried only) web
    "B_b", "B_n", "B_op", "B_s", "B_i", "B_it",
    # information: total (= I_p + I_i), personal channel, broker website,
    # all websites (includes I_i)
    "I", "I_p", "I_i", "I_o",
    # search costs: buyer without/with internet; seller with broker only,
    # internet only, broker and internet
    "psi_b", "psi_bi", "psi_s", "psi_si", "psi_sb",
    # utilities
    "U_ip", "U_iw", "U_a", "U_sp", "U_sw", "U_sa",
    # closing costs: additional with/without broker, total with/without
    "pi_b", "pi_i", "pi_sb", "pi_s",
    # listing states: super-exclusive, semi-exclusive, multiple listing
    "E_s", "E_p", "E_m",
    # closing probabilities: physical channel, internet channel, self-sale
    "rho_p", "rho_i", "rho_s",
    # broker effort cost, buyer's perceived value of it, reputation and
    # social capital
    "u_hat", "u_hat_s", "RC_br", "SC_br",
    # party social capital
    "SC_s", "SC_b",
))}


@dataclass(frozen=True)
class Scenario:
    values: tuple[float, ...]           # one per symbol, indexed by SYMBOLS
    prospect_count: int = 1
    valued_time_share: Optional[float] = None  # compensated share of search time
    responses: tuple[ResponseFunction, ...] = ()
    time_paths: tuple[TimePath, ...] = ()
    overlays: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    label: str = "scenario"

    def value(self, name: str, state: Optional[str] = None) -> float:
        """Base value of a symbol, honoring a listing-state overlay."""
        if state is not None:
            ov = self.overlays.get(state)
            if ov is not None and name in ov:
                return float(ov[name])
        return float(self.values[SYMBOLS[name]])

    def bundle_value(self, names: Sequence[str], state: Optional[str] = None) -> float:
        return sum(self.value(n, state) for n in names)

    def response_for(self, driven: str, driver: str,
                     state: Optional[str] = None) -> Optional[ResponseFunction]:
        """Look up a link in the state context, falling back to base."""
        idx = self.response_index
        if state is not None:
            r = idx.get((driven, driver, state))
            if r is not None:
                return r
        return idx.get((driven, driver, "base"))

    @cached_property
    def response_index(self) -> dict[tuple[str, str, str], ResponseFunction]:
        """Responses keyed by (driven, driver, context), built on first use.

        Every copy (``with_values``, ``dataclasses.replace``) is a new
        instance and builds its own index from its own ``responses``.
        """
        return {(r.driven, r.driver, r.context): r for r in self.responses}

    def time_path_for(self, symbol: str) -> Optional[TimePath]:
        for tp in self.time_paths:
            if tp.symbol == symbol:
                return tp
        return None

    def per_winner(self, names: Sequence[str], state: Optional[str], fn):
        """``fn(name, value)`` for the name with the largest value under
        ``state``, ties to the earlier name; ``fn(None, -inf)`` when no value
        exceeds -inf."""
        best, best_v = None, -math.inf
        for name in names:
            v = self.value(name, state)
            if v > best_v:
                best, best_v = name, v
        return fn(best, best_v)


PROBABILITY_SYMBOLS = ("rho_p", "rho_i", "rho_s")

def split_driver(driver: str) -> tuple[str, ...]:
    """Components of a (possibly bundled) driver name."""
    return tuple(part.strip() for part in driver.split("+"))


def with_values(s: Scenario, updates: Mapping[str, float]) -> Scenario:
    """Return a copy of ``s`` with the given symbol values replaced.

    No re-validation is performed; what-if evaluation is allowed to leave
    response anchors stale.
    """
    values = list(s.values)
    for name, value in updates.items():
        values[SYMBOLS[name]] = float(value)
    return replace(s, values=tuple(values))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"code": v.code, "message": v.message} for v in self.violations],
        }


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check every model invariant. Deterministic and side-effect free."""
    out: list[Violation] = []

    def bad(code: str, msg: str) -> None:
        out.append(Violation(code, msg))

    for name in SYMBOLS:
        v = s.value(name)
        if not _finite(v):
            bad("NonFiniteValue", f"{name} = {v!r} is not finite")
    P, P_b, c = s.value("P"), s.value("P_b"), s.value("c")
    if _finite(P) and P <= 0:
        bad("NonPositivePrice", f"P = {P} must be > 0")
    if _finite(P_b) and P_b <= 0:
        bad("NonPositivePrice", f"P_b = {P_b} must be > 0")
    if _finite(c) and not (0.0 < c < 1.0):
        bad("CommissionOutOfRange", f"c = {c} must lie in (0, 1)")
    if s.prospect_count < 1:
        bad("ProspectCountOutOfRange", f"prospect_count = {s.prospect_count} must be >= 1")
    vts = s.valued_time_share
    if vts is not None and not (_finite(vts) and 0.0 <= vts <= 1.0):
        bad("ValuedTimeShareOutOfRange", f"valued_time_share = {vts!r} must lie in [0, 1]")
    for name in PROBABILITY_SYMBOLS:
        v = s.value(name)
        if _finite(v) and not (0.0 <= v <= 1.0):
            bad("ProbabilityOutOfRange", f"{name} = {v} must lie in [0, 1]")

    I, I_p, I_i, I_o = (s.value(n) for n in ("I", "I_p", "I_i", "I_o"))
    if all(_finite(x) for x in (I, I_p, I_i)):
        if canonical_round(I) != canonical_round(I_p + I_i):
            bad("InformationIdentity", f"I = {I} must equal I_p + I_i = {I_p + I_i}")
    if all(_finite(x) for x in (I_o, I_i)) and I_o < I_i:
        bad("InformationInclusion", f"I_o = {I_o} must be >= I_i = {I_i}")

    _validate_overlays(s, bad)
    _validate_responses(s, bad)
    _validate_time_paths(s, bad)

    return ValidationReport(ok=not out, violations=tuple(out))


def _validate_overlays(s: Scenario, bad) -> None:
    for state, overrides in s.overlays.items():
        if state not in STATE_NAMES:
            bad("OverlayUnknownState", f"overlay state {state!r} is not one of {STATE_NAMES}")
            continue
        for name, value in overrides.items():
            if name not in SYMBOLS:
                bad("OverlayUnknownSymbol", f"overlay {state} overrides unknown symbol {name!r}")
                continue
            if name in STATE_NAMES:
                bad("OverlayListingState",
                    f"overlay {state} may not override listing-state value {name}")
            if not _finite(value):
                bad("NonFiniteValue", f"overlay {state}.{name} = {value!r} is not finite")
        touched = {"I", "I_p", "I_i"} & set(overrides)
        if touched:
            i_v = s.value("I", state)
            ip_v = s.value("I_p", state)
            ii_v = s.value("I_i", state)
            if all(_finite(x) for x in (i_v, ip_v, ii_v)) and \
                    canonical_round(i_v) != canonical_round(ip_v + ii_v):
                bad("InformationIdentity",
                    f"under overlay {state}: I = {i_v} must equal I_p + I_i = {ip_v + ii_v}")


MAX_POLY_DEGREE = 6
RESPONSE_CONSISTENCY_RTOL = 1e-9


def eval_response(r: ResponseFunction, x: float) -> float:
    """Evaluate a response link at a driver value."""
    if r.kind == "polynomial":
        acc = 0.0
        for coef in reversed(r.coeffs):
            acc = acc * x + coef
        return acc
    # piecewise linear with linear extrapolation from the end segments
    ks = r.knots
    if len(ks) == 1:
        return ks[0][1]
    if x <= ks[0][0]:
        (x0, y0), (x1, y1) = ks[0], ks[1]
    elif x >= ks[-1][0]:
        (x0, y0), (x1, y1) = ks[-2], ks[-1]
    else:
        lo, hi = 0, len(ks) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ks[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = ks[lo], ks[hi]
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def checked_responses(s: Scenario, bad):
    """Yield ``(r, driver parts, context)`` for each response whose structure
    is valid, in order; report every other one through ``bad``."""
    seen: set[tuple[str, str, str]] = set()
    for r in s.responses:
        ident = f"({r.driven}, {r.driver}, {r.context})"
        if r.driven not in SYMBOLS:
            bad("ResponseUnknownSymbol", f"response {ident}: unknown driven symbol {r.driven!r}")
            continue
        parts = split_driver(r.driver)
        if any(p not in SYMBOLS for p in parts):
            bad("ResponseUnknownSymbol", f"response {ident}: unknown driver symbol in {r.driver!r}")
            continue
        if r.driven in parts:
            bad("ResponseSelfLink", f"response {ident}: driven may not appear in its own driver")
            continue
        if r.context != "base" and r.context not in STATE_NAMES:
            bad("ResponseUnknownContext", f"response {ident}: context {r.context!r}")
            continue
        key = (r.driven, r.driver, r.context)
        if key in seen:
            bad("ResponseDuplicate", f"duplicate response {ident}")
            continue
        seen.add(key)
        if r.kind == "polynomial":
            if not r.coeffs or len(r.coeffs) - 1 > MAX_POLY_DEGREE:
                bad("ResponseDegree",
                    f"response {ident}: polynomial degree must be 0..{MAX_POLY_DEGREE}")
                continue
            if not all(_finite(c) for c in r.coeffs):
                bad("NonFiniteValue", f"response {ident}: non-finite coefficient")
                continue
        elif r.kind == "piecewise_linear":
            xs = [k[0] for k in r.knots]
            if len(r.knots) < 1 or any(b <= a for a, b in zip(xs, xs[1:])):
                bad("ResponseKnots", f"response {ident}: knots must be strictly increasing")
                continue
            if not all(_finite(k[0]) and _finite(k[1]) for k in r.knots):
                bad("NonFiniteValue", f"response {ident}: non-finite knot")
                continue
        else:
            bad("ResponseKind", f"response {ident}: unknown kind {r.kind!r}")
            continue
        yield r, parts, None if r.context == "base" else r.context


def _validate_responses(s: Scenario, bad) -> None:
    for r, parts, ctx in checked_responses(s, bad):
        ident = f"({r.driven}, {r.driver}, {r.context})"
        # Consistency: the link must pass through the scenario's stored point,
        # evaluated in the link's own context.
        x0 = s.bundle_value(parts, ctx)
        y0 = s.value(r.driven, ctx)
        if _finite(x0) and _finite(y0):
            y_hat = eval_response(r, x0)
            if abs(y_hat - y0) > RESPONSE_CONSISTENCY_RTOL * max(1.0, abs(y0)):
                bad("ResponseConsistency",
                    f"response {ident}: f({x0}) = {y_hat} but stored {r.driven} = {y0}")

        # Communicated information must rise, at an increasing rate, with the
        # broker's cost of providing it.
        if r.driven == "I" and r.driver == "B_b" and _finite(x0):
            h = 1e-3 * max(1.0, abs(x0))
            d1 = (eval_response(r, x0 + h) - eval_response(r, x0 - h)) / (2 * h)
            d2 = (eval_response(r, x0 + h) - 2 * eval_response(r, x0)
                  + eval_response(r, x0 - h)) / (h * h)
            if not (d1 > 0 and d2 > 0):
                bad("InformationMonotonicity",
                    f"response {ident}: I(B_b) must have positive first and second "
                    f"central differences at B_b = {x0} (got {d1:.6g}, {d2:.6g})")


def _validate_time_paths(s: Scenario, bad) -> None:
    seen: set[str] = set()
    for tp in s.time_paths:
        if tp.symbol not in SYMBOLS:
            bad("TimePathUnknownSymbol", f"time path for unknown symbol {tp.symbol!r}")
            continue
        if tp.symbol in seen:
            bad("TimePathDuplicate", f"duplicate time path for {tp.symbol}")
            continue
        seen.add(tp.symbol)
        if tp.kind == "constant":
            if not _finite(tp.value):
                bad("NonFiniteValue", f"time path {tp.symbol}: non-finite value")
        elif tp.kind == "linear":
            if not (_finite(tp.v0) and _finite(tp.slope)):
                bad("NonFiniteValue", f"time path {tp.symbol}: non-finite parameters")
        elif tp.kind == "samples":
            ts = tp.times
            if len(ts) < 2 or len(ts) != len(tp.values):
                bad("TimePathInvalid",
                    f"time path {tp.symbol}: needs matching times/values, length >= 2")
            elif any(b <= a for a, b in zip(ts, ts[1:])):
                bad("TimePathInvalid", f"time path {tp.symbol}: times must increase strictly")
            elif not all(_finite(x) for x in (*ts, *tp.values)):
                bad("NonFiniteValue", f"time path {tp.symbol}: non-finite sample")
        else:
            bad("TimePathInvalid", f"time path {tp.symbol}: unknown kind {tp.kind!r}")
