"""Scenario data model: every base symbol of the brokerage model, plus
response functions, listing-state overlays and time paths.

The 41 base symbols are stored flat: ``Scenario.values`` holds one float per
symbol, and ``SYMBOLS`` maps each name to its slot, in the order scenario
files and payloads list them. Only this module knows that layout; everything
else reads ``Scenario.value(name, state)`` and copies with ``with_values``.
In a sweep, a block of draws is a Scenario whose swept slots hold numpy
arrays, one value per draw; ``value``, ``per_winner`` and ``eval_response``
then answer per draw.

The module also owns scenario validation: ``check_scenario`` is the one walk
over every invariant, and reports each check with where it fails (per draw
in a block); ``check_fixed`` splits it for a sweep into the checks no draw
changes and the rest. ``validate_scenario`` collects the failures of one
scenario as violations, which are data, not exceptions.

Naming notes:
  * broker effort is exposed as ``u_hat`` and the buyer's perception of it as
    ``u_hat_s``; the reputation/social-capital derivatives elsewhere treat the
    effort variable ``e`` as an alias of ``u_hat``.
  * ``B_op``, ``B_it``, ``prospect_count`` and ``valued_time_share`` are
    carried and validated but enter no decision condition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .record import Record

DECIMALS_SIGNIFICANT = 12

STATE_NAMES = ("E_s", "E_p", "E_m")

#: Decision fields the broker optimizer may steer.
DECISION_FIELDS = ("B_b", "B_s", "B_i", "B_n")


def canonical_round(x: float) -> float:
    """Round to 12 significant digits, the model's canonical numeric identity."""
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{DECIMALS_SIGNIFICANT}g}")


# A comparison of two floats gives True or False, which callers test by
# identity; anything else is one bool per draw of a sweep block. numpy is
# imported only where a value is per draw, so scalar commands never load it.

def _where(cond, a, b):
    import numpy as np
    return np.where(cond, a, b)


def _first(xs, larger: bool):
    """Python's max (``larger``) or min over ``xs``, per draw: a later value
    replaces the current one only when strictly better, so the first of equal
    values (or a NaN) stays."""
    best = xs[0]
    for x in xs[1:]:
        better = x > best if larger else x < best
        if better is True:
            best = x
        elif better is not False:
            best = _where(better, x, best)
    return best


class ResponseFunction(Record):
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

    def __init__(self, driven, driver, kind, coeffs=(), knots=(), context="base"):
        # built per link on every load
        self.__dict__.update(driven=driven, driver=driver, kind=kind, coeffs=coeffs,
                             knots=knots, context=context)

    @property
    def ident(self) -> str:
        """The link as validation messages name it."""
        return f"({self.driven}, {self.driver}, {self.context})"


class TimePath(Record):
    """Time evolution of one symbol over an integration horizon."""

    symbol: str
    kind: str  # "constant" | "linear" | "samples"
    value: float = 0.0                 # constant
    v0: float = 0.0                    # linear intercept
    slope: float = 0.0                 # linear slope
    times: tuple[float, ...] = ()      # samples
    values: tuple[float, ...] = ()

    def __init__(self, symbol, kind, value=0.0, v0=0.0, slope=0.0, times=(), values=()):
        self.__dict__.update(symbol=symbol, kind=kind, value=value, v0=v0, slope=slope,
                             times=times, values=values)


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
        return self.values[SYMBOLS[name]]

    def bundle_value(self, names: Sequence[str], state: Optional[str] = None) -> float:
        total = 0.0  # plain float additions, as per draw (sum() compensates from 3.12)
        for name in names:
            total = total + self.value(name, state)
        return total

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
        exceeds -inf. Where values are per draw, each draw takes its own
        winner's result (a block's values are finite, so each draw has one)."""
        win, best = -1, -math.inf
        for k, name in enumerate(names):
            v = self.value(name, state)
            larger = v > best
            if larger is True:
                win, best = k, v
            elif larger is not False:
                win, best = _where(larger, k, win), _where(larger, v, best)
        if isinstance(win, int):
            return fn(names[win] if win >= 0 else None, best)
        out = None
        for k, name in enumerate(names):
            rows = win == k
            if not rows.any():
                continue
            value = fn(name, self.value(name, state))
            if rows.all():
                return value
            if out is None:
                out = value
            elif isinstance(value, tuple):  # an interval, endpoint by endpoint
                out = tuple(_where(rows, a, b) for a, b in zip(value, out))
            else:
                out = _where(rows, value, out)
        return out


PROBABILITY_SYMBOLS = ("rho_p", "rho_i", "rho_s")

def split_driver(driver: str) -> tuple[str, ...]:
    """Components of a (possibly bundled) driver name."""
    return tuple(map(str.strip, driver.split("+")))


def with_values(s: Scenario, updates: Mapping[str, float]) -> Scenario:
    """Return a copy of ``s`` with the given symbol values replaced.

    No re-validation is performed; what-if evaluation is allowed to leave
    response anchors stale.
    """
    values = list(s.values)
    for name, value in updates.items():
        values[SYMBOLS[name]] = float(value)
    return replace(s, values=tuple(values))


class Violation(Record):
    code: str
    message: str


class ValidationReport(Record):
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"code": v.code, "message": v.message} for v in self.violations],
        }


def _finite(x):
    """Whether ``x`` is a finite number, per draw: ``x - x`` is 0 only where
    ``x`` is finite."""
    try:
        return x - x == 0
    except TypeError:
        return False


def _rounds_apart(a, b):
    """``canonical_round(a) != canonical_round(b)``, per draw; only draws
    where a and b differ exactly are rounded."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return canonical_round(a) != canonical_round(b)
    import numpy as np
    a, b = np.broadcast_arrays(a, b)
    apart = a != b
    for k in np.flatnonzero(apart).tolist():
        apart[k] = canonical_round(float(a[k])) != canonical_round(float(b[k]))
    return apart


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check every model invariant. Deterministic and side-effect free."""
    out: list[Violation] = []

    def bad(code: str, when, message: str, *args) -> None:
        if when:
            out.append(Violation(code, message.format(*args)))

    check_scenario(s, bad)
    return ValidationReport(ok=not out, violations=tuple(out))


def check_scenario(s: Scenario, bad) -> None:
    """Run every check of the model's invariants on ``s``, in report order.

    Each check calls ``bad(code, when, message, *args)``: ``when`` is whether
    it fails, a bool, or one bool per draw where ``s`` holds per-draw arrays
    (``^ True`` is the per-draw "not"); ``message.format(*args)`` describes
    the failure. A check that reads no per-draw value passes a plain bool.
    """
    _check_values(s, bad)
    _check_responses(s, bad)
    _check_time_paths(s, bad)


def check_fixed(s: Scenario, swept, bad):
    """Run on the base ``s`` of a sweep, whose draws change the symbols in
    ``swept`` only, the checks no draw changes: the structure of links and
    time paths, and the value checks and link consistency that read no swept
    symbol. Returns ``check(block, bad)``, which runs the rest on a block of
    draws."""
    _check_values(s, bad, lambda *names: swept.isdisjoint(names))
    later = _check_responses(s, bad, swept)
    _check_time_paths(s, bad)

    def check(block: Scenario, bad) -> None:
        _check_values(block, bad, lambda *names: not swept.isdisjoint(names))
        for link in later:
            _check_link(block, *link, bad)

    return check


def _check_values(s: Scenario, bad, reads=lambda *names: True) -> None:
    """The value checks, each run where ``reads(*names)`` holds for the
    base symbols ``names`` it reads."""
    for name in filter(reads, SYMBOLS):
        v = s.value(name)
        bad("NonFiniteValue", _finite(v) ^ True, "{} = {!r} is not finite", name, v)
    for name in filter(reads, ("P", "P_b")):
        v = s.value(name)
        bad("NonPositivePrice", _finite(v) & (v <= 0), "{} = {} must be > 0", name, v)
    if reads("c"):
        c = s.value("c")
        bad("CommissionOutOfRange", _finite(c) & ((c <= 0.0) | (c >= 1.0)),
            "c = {} must lie in (0, 1)", c)
    if reads():
        bad("ProspectCountOutOfRange", s.prospect_count < 1,
            "prospect_count = {} must be >= 1", s.prospect_count)
        vts = s.valued_time_share
        bad("ValuedTimeShareOutOfRange",
            vts is not None and not (_finite(vts) and 0.0 <= vts <= 1.0),
            "valued_time_share = {!r} must lie in [0, 1]", vts)
    for name in filter(reads, PROBABILITY_SYMBOLS):
        v = s.value(name)
        bad("ProbabilityOutOfRange", _finite(v) & ((v < 0.0) | (v > 1.0)),
            "{} = {} must lie in [0, 1]", name, v)

    if reads("I", "I_p", "I_i"):
        _check_identity(s, None, bad)
    if reads("I_o", "I_i"):
        I_o, I_i = s.value("I_o"), s.value("I_i")
        bad("InformationInclusion", _finite(I_o) & _finite(I_i) & (I_o < I_i),
            "I_o = {} must be >= I_i = {}", I_o, I_i)

    _check_overlays(s, bad, reads)


def _check_identity(s: Scenario, state: Optional[str], bad) -> None:
    I, I_p, I_i = (s.value(n, state) for n in ("I", "I_p", "I_i"))
    total = I_p + I_i
    bad("InformationIdentity",
        _finite(I) & _finite(I_p) & _finite(I_i) & _rounds_apart(I, total),
        "{}I = {} must equal I_p + I_i = {}",
        "" if state is None else f"under overlay {state}: ", I, total)


def _check_overlays(s: Scenario, bad, reads) -> None:
    for state, overrides in s.overlays.items():
        if state not in STATE_NAMES:
            if reads():
                bad("OverlayUnknownState", True, "overlay state {!r} is not one of {}",
                    state, STATE_NAMES)
            continue
        for name, value in overrides.items() if reads() else ():
            if name not in SYMBOLS:
                bad("OverlayUnknownSymbol", True, "overlay {} overrides unknown symbol {!r}",
                    state, name)
                continue
            bad("OverlayListingState", name in STATE_NAMES,
                "overlay {} may not override listing-state value {}", state, name)
            bad("NonFiniteValue", not _finite(value), "overlay {}.{} = {!r} is not finite",
                state, name, value)
        # the identity under the overlay reads the base value of what it keeps
        kept = [name for name in ("I", "I_p", "I_i") if name not in overrides]
        if len(kept) < 3 and reads(*kept):
            _check_identity(s, state, bad)


MAX_POLY_DEGREE = 6
RESPONSE_CONSISTENCY_RTOL = 1e-9


def eval_response(r: ResponseFunction, x: float) -> float:
    """Evaluate a response link at a driver value (a float, or an array with
    one value per draw, computed in the same operations)."""
    if r.kind == "polynomial":
        acc = 0.0
        for coef in reversed(r.coeffs):
            acc = acc * x + coef
        return acc
    # piecewise linear with linear extrapolation from the end segments
    ks = r.knots
    if len(ks) == 1:
        return ks[0][1]
    # the segment from the last knot <= x (the end segments extrapolate)
    if not isinstance(x, (int, float)):
        import numpy as np
        xs, ys = np.array([k[0] for k in ks]), np.array([k[1] for k in ks])
        lo = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(ks) - 2)
        x0, y0 = xs[lo], ys[lo]
        t = (x - x0) / (xs[lo + 1] - x0)
        return y0 + t * (ys[lo + 1] - y0)
    lo = min(max(bisect_right(ks, x, key=itemgetter(0)) - 1, 0), len(ks) - 2)
    (x0, y0), (x1, y1) = ks[lo], ks[lo + 1]
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def _check_responses(s: Scenario, bad, swept=frozenset()) -> list:
    """Check each link's structure, then its values; those of a link that
    reads a symbol in ``swept`` are left to ``_check_link``: returned. A
    message names its link through ``{.ident}``, formatted only on failure."""
    seen: set[tuple[str, str, str]] = set()
    later = []
    for r in s.responses:
        if r.driven not in SYMBOLS:
            bad("ResponseUnknownSymbol", True, "response {.ident}: unknown driven symbol {!r}",
                r, r.driven)
            continue
        parts = split_driver(r.driver)
        if not all(map(SYMBOLS.__contains__, parts)):
            bad("ResponseUnknownSymbol", True,
                "response {.ident}: unknown driver symbol in {!r}", r, r.driver)
            continue
        if r.driven in parts:
            bad("ResponseSelfLink", True,
                "response {.ident}: driven may not appear in its own driver", r)
            continue
        if r.context != "base" and r.context not in STATE_NAMES:
            bad("ResponseUnknownContext", True, "response {.ident}: context {!r}", r, r.context)
            continue
        key = (r.driven, r.driver, r.context)
        if key in seen:
            bad("ResponseDuplicate", True, "duplicate response {.ident}", r)
            continue
        seen.add(key)
        if r.kind == "polynomial":
            if not r.coeffs or len(r.coeffs) - 1 > MAX_POLY_DEGREE:
                bad("ResponseDegree", True, "response {.ident}: polynomial degree must be 0..{}",
                    r, MAX_POLY_DEGREE)
                continue
            if not all(map(_finite, r.coeffs)):
                bad("NonFiniteValue", True, "response {.ident}: non-finite coefficient", r)
                continue
        elif r.kind == "piecewise_linear":
            xs = [k[0] for k in r.knots]
            if len(r.knots) < 1 or any(b <= a for a, b in zip(xs, xs[1:])):
                bad("ResponseKnots", True,
                    "response {.ident}: knots must be strictly increasing", r)
                continue
            if not all(_finite(k[0]) and _finite(k[1]) for k in r.knots):
                bad("NonFiniteValue", True, "response {.ident}: non-finite knot", r)
                continue
        else:
            bad("ResponseKind", True, "response {.ident}: unknown kind {!r}", r, r.kind)
            continue
        if r.driven in swept or not swept.isdisjoint(parts):
            later.append((r, parts))
        else:
            _check_link(s, r, parts, bad)
    return later


def _check_link(s: Scenario, r: ResponseFunction, parts: tuple[str, ...], bad) -> None:
    """The checks of a well-formed link that read symbol values."""
    # Consistency: the link must pass through the scenario's stored point,
    # evaluated in the link's own context.
    ctx = None if r.context == "base" else r.context
    x0, y0 = s.bundle_value(parts, ctx), s.value(r.driven, ctx)
    y_hat = eval_response(r, x0)
    bad("ResponseConsistency", _finite(x0) & _finite(y0) & (
            abs(y_hat - y0) > RESPONSE_CONSISTENCY_RTOL * _first((1.0, abs(y0)), True)),
        "response {.ident}: f({}) = {} but stored {} = {}", r, x0, y_hat, r.driven, y0)

    # Communicated information must rise, at an increasing rate, with the
    # broker's cost of providing it.
    if r.driven == "I" and r.driver == "B_b":
        h = 1e-3 * _first((1.0, abs(x0)), True)
        up, down = eval_response(r, x0 + h), eval_response(r, x0 - h)
        d1 = (up - down) / (2 * h)
        d2 = (up - 2 * y_hat + down) / (h * h)
        bad("InformationMonotonicity", _finite(x0) & (((d1 > 0) & (d2 > 0)) ^ True),
            "response {.ident}: I(B_b) must have positive first and second central "
            "differences at B_b = {} (got {:.6g}, {:.6g})", r, x0, d1, d2)


def _check_time_paths(s: Scenario, bad) -> None:
    seen: set[str] = set()
    for tp in s.time_paths:
        if tp.symbol not in SYMBOLS:
            bad("TimePathUnknownSymbol", True, "time path for unknown symbol {!r}", tp.symbol)
            continue
        if tp.symbol in seen:
            bad("TimePathDuplicate", True, "duplicate time path for {}", tp.symbol)
            continue
        seen.add(tp.symbol)
        if tp.kind == "constant":
            bad("NonFiniteValue", not _finite(tp.value),
                "time path {}: non-finite value", tp.symbol)
        elif tp.kind == "linear":
            bad("NonFiniteValue", not (_finite(tp.v0) and _finite(tp.slope)),
                "time path {}: non-finite parameters", tp.symbol)
        elif tp.kind == "samples":
            ts = tp.times
            if len(ts) < 2 or len(ts) != len(tp.values):
                bad("TimePathInvalid", True,
                    "time path {}: needs matching times/values, length >= 2", tp.symbol)
            elif any(b <= a for a, b in zip(ts, ts[1:])):
                bad("TimePathInvalid", True, "time path {}: times must increase strictly",
                    tp.symbol)
            else:
                bad("NonFiniteValue", not all(_finite(x) for x in (*ts, *tp.values)),
                    "time path {}: non-finite sample", tp.symbol)
        else:
            bad("TimePathInvalid", True, "time path {}: unknown kind {!r}", tp.symbol, tp.kind)
