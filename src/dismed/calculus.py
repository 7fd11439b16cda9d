"""Three-valued evaluation primitives for the condition notation.

The carrier type is :class:`ExtendedValue`, a closed interval [lower, upper];
a point value has lower == upper and the fully unknown value ("Indeterminate")
is (-inf, +inf). Arithmetic is standard interval arithmetic; comparisons
resolve only when the operand intervals force one answer, so a comparison
against a partially known Max/Min expression can still be decidable.

Derivatives are never symbolic: a partial ∂driven/∂driver is estimated by
central finite differences through a declared ResponseFunction, and the
absence of a declared link yields Indeterminate rather than an error or a
guessed slope. A derivative of a symbol with respect to itself is the
identity's derivative (1, then 0 for higher orders).

There is one interval arithmetic. An endpoint is a float, or an array with
one value per draw of a sweep block where a draw changes it. Float endpoints
compute in plain Python, and numpy is imported only where an endpoint is an
array, so the scalar commands never load it; array endpoints round as float
ones do. Every operation is total (as in IEEE 1788): an undefined result,
such as inf - inf, a divisor interval that holds 0, an overflowing stencil
step or a time path that ends early, is the unknown interval, per draw.

Expressions are compiled once into closures that combine the values of their
leaves (symbols, derivatives and horizon integrals) with these operations;
only the leaf resolver differs: a symbol at base or under a listing-state
overlay, a symbol with the driver pinned to a stencil point, or a symbol at
time t along its time path. The closures read a Scenario per call, through
its ``value``, ``bundle_value``, ``response_for``, ``time_path_for`` and
``per_winner``: in ``decide`` one scenario, in sweeps a block of draws
(``dismed.batch.block``) whose swept values are per-draw arrays.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import IndeterminateIntegrand, PathCoverageError
from .model import Scenario, TimePath, _first, _where, eval_response, split_driver
from .record import Record

INF = math.inf
_TINY = 1 / sys.float_info.max  # the least divisor with a finite reciprocal

#: An interval inside the evaluator: a checked (lower, upper) pair.
Interval = tuple
UNKNOWN: Interval = (-INF, INF)


# ---------------------------------------------------------------------------
# Interval arithmetic over float or per-draw endpoints
# ---------------------------------------------------------------------------
#
# A comparison of two floats gives True or False, which the operations test
# by identity; anything else is per draw. Array endpoints take the float
# operations in the same order, Python's first-extreme-wins min/max as
# selections, and ``h ** 3`` and piecewise links element by element, so they
# round as floats do. A point interval's endpoints are one object, and an
# operation on points computes its single endpoint once.

def _checked(lo, hi) -> Interval:
    """The one interval rule: a NaN endpoint leaves its side unbounded."""
    ok = lo <= hi
    if ok is True:
        return lo, hi
    if ok is False:
        return (lo if lo == lo else -INF), (hi if hi == hi else INF)
    if ok.all():
        return lo, hi
    return _where(lo == lo, lo, -INF), _where(hi == hi, hi, INF)


def _times(a, b):
    # interval convention: 0 * inf = 0
    zero = (a == 0.0) | (b == 0.0)
    if zero is False:
        return a * b
    if zero is True:
        return 0.0
    return _where(zero, 0.0, a * b)


def _hull(xs) -> Interval:
    return _checked(_first(xs, False), _first(xs, True))


def point(x) -> Interval:
    if (x == x) is True:
        return x, x
    return _checked(x, x)


def add(a: Interval, b: Interval) -> Interval:
    if a[0] is a[1] and b[0] is b[1]:
        return point(a[0] + b[0])
    return _checked(a[0] + b[0], a[1] + b[1])


def sub(a: Interval, b: Interval) -> Interval:
    if a[0] is a[1] and b[0] is b[1]:
        return point(a[0] - b[0])
    return _checked(a[0] - b[1], a[1] - b[0])


def mul(a: Interval, b: Interval) -> Interval:
    if a[0] is a[1] and b[0] is b[1]:
        return point(_times(a[0], b[0]))
    # the four products in this order; min/max keep the first of equal zeros
    return _hull((_times(a[0], b[0]), _times(a[0], b[1]),
                  _times(a[1], b[0]), _times(a[1], b[1])))


def scale(a: Interval, k) -> Interval:
    if a[0] is a[1]:
        return point(_times(a[0], k))
    return _hull((_times(a[0], k), _times(a[1], k)))


def div(a: Interval, b: Interval) -> Interval:
    """``a / b``; unknown where the divisor interval holds 0."""
    lo, hi = b
    zero = (lo <= 0.0) & (0.0 <= hi)
    if zero is True:  # 1.0 / 0.0 raises for floats
        return UNKNOWN
    if lo is hi:
        r = 1.0 / lo
        return _unknown_where(zero, mul(a, (r, r)))
    return _unknown_where(zero, mul(a, _hull((1.0 / lo, 1.0 / hi))))


def _unknown_where(cond, v: Interval) -> Interval:
    """``v``, unknown where ``cond`` holds (per draw)."""
    if cond is True:
        return UNKNOWN
    if cond is False or not cond.any():
        return v
    return _where(cond, -INF, v[0]), _where(cond, INF, v[1])


def extremum(vs: Sequence[Interval], larger: bool) -> Interval:
    """Max (``larger``) or Min of intervals, endpoint by endpoint."""
    los = [v[0] for v in vs]
    if all(v[0] is v[1] for v in vs):
        return point(_first(los, larger))
    return _checked(_first(los, larger), _first([v[1] for v in vs], larger))


def joint(a: Interval, b: Interval, intersection: str) -> Interval:
    """Intersection of two closing probabilities: a point where both are
    points, unknown elsewhere."""
    points = (a[0] == a[1]) & (b[0] == b[1])
    if points is False:
        return UNKNOWN
    return _unknown_where(points ^ True, point(_joint_raw(a[0], b[0], intersection)))


def iabs(a: Interval) -> Interval:
    lo, hi = a
    nonneg, nonpos = lo >= 0, hi <= 0
    if nonneg is True:
        return a
    if nonneg is False and nonpos is True:
        return -hi, -lo
    if nonneg is False and nonpos is False:
        return 0.0, _first((-lo, hi), True)
    return (_where(nonneg, lo, _where(nonpos, -hi, 0.0)),
            _where(nonneg, hi, _where(nonpos, -lo, _first((-lo, hi), True))))


def _cube(h):
    # Python's pow per element (numpy's may round differently); inf on overflow
    if isinstance(h, (int, float)):
        try:
            return h ** 3
        except OverflowError:
            return INF
    import numpy as np
    return np.array([_cube(x) for x in np.ravel(h).tolist()]).reshape(np.shape(h))


class ExtendedValue(Record):
    lower: float
    upper: float

    def __init__(self, lower: float, upper: float):
        if not lower <= upper:
            raise ValueError(f"invalid interval [{lower}, {upper}]")
        self.__dict__.update(lower=lower, upper=upper)

    @staticmethod
    def point(x: float) -> "ExtendedValue":
        return ExtendedValue(x, x)

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    @property
    def is_indeterminate(self) -> bool:
        return self.lower == -INF and self.upper == INF

    def _pair(self) -> Interval:
        return self.lower, self.upper

    def __add__(self, other: "ExtendedValue") -> "ExtendedValue":
        return ExtendedValue(*add(self._pair(), other._pair()))

    def __sub__(self, other: "ExtendedValue") -> "ExtendedValue":
        return ExtendedValue(*sub(self._pair(), other._pair()))

    def __neg__(self) -> "ExtendedValue":
        return ExtendedValue(-self.upper, -self.lower)

    def __mul__(self, other: "ExtendedValue") -> "ExtendedValue":
        return ExtendedValue(*mul(self._pair(), other._pair()))

    def divide(self, other: "ExtendedValue") -> "ExtendedValue":
        return ExtendedValue(*div(self._pair(), other._pair()))

    def abs(self) -> "ExtendedValue":
        return ExtendedValue(*iabs(self._pair()))

    def to_json(self) -> list:
        def enc(x: float):
            return None if math.isinf(x) else x
        return [enc(self.lower), enc(self.upper)]


INDETERMINATE = ExtendedValue(-INF, INF)


def _close(a, b, rel_tol: float):
    """|a - b| <= rel_tol * max(|a|, |b|, 1e-12), per draw."""
    return abs(a - b) <= rel_tol * _first((abs(a), abs(b), 1e-12), True)


def approx_equal(a: float, b: float, rel_tol: float) -> bool:
    """Symmetric closeness test: |a - b| <= rel_tol * max(|a|, |b|, 1e-12)."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    return _close(a, b, rel_tol)


def joint_prob(a: float, b: float, mode: str = "product") -> float:
    """Joint closing probability under an independence or comonotone reading."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("joint_prob arguments must lie in [0, 1]")
    return _joint_raw(a, b, mode)


def _joint_raw(a, b, mode: str):
    # Arithmetic core without domain checks; derivative stencils may probe
    # response values slightly outside [0, 1].
    if mode == "product":
        return a * b
    if mode == "min":
        return _first((a, b), False)
    raise ValueError(f"unknown intersection mode {mode!r}")


def argmax_state(s: Scenario, candidates: Sequence[str] = ("E_s", "E_p", "E_m")) -> str:
    """State with the largest base value; ties break by the candidates' order
    (E_s over E_p over E_m for the full triple)."""
    return s.per_winner(candidates, None, lambda name, value: name)


def argmin_state(s: Scenario, candidates: Sequence[str] = ("E_m", "E_p", "E_s")) -> str:
    """Mirror of argmax_state; ties break E_m over E_p over E_s."""
    best = None
    best_v = INF
    for name in candidates:
        v = s.value(name)
        if v < best_v:
            best, best_v = name, v
    return best


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr(Record):
    __slots__ = ()


class Sym(Expr):
    name: str


class Const(Expr):
    value: float


class Add(Expr):
    parts: tuple[Expr, ...]


class Sub(Expr):
    a: Expr
    b: Expr


class Mul(Expr):
    a: Expr
    b: Expr


class Div(Expr):
    a: Expr
    b: Expr


class MaxE(Expr):
    parts: tuple[Expr, ...]


class MinE(Expr):
    parts: tuple[Expr, ...]


class Joint(Expr):
    """Intersection of two closing probabilities, read per configuration."""
    a: str
    b: str


class IntegralE(Expr):
    """Trapezoid integral of the integrand over the configured horizon."""
    integrand: Expr


class Axis(Record):
    """Differentiation axis: a symbol, a "+"-bundle, or the max of symbols."""
    kind: str                      # "sym" | "bundle" | "max"
    names: tuple[str, ...]

    @staticmethod
    def sym(name: str) -> "Axis":
        parts = split_driver(name)
        if len(parts) > 1:
            return Axis("bundle", parts)
        return Axis("sym", parts)

    @staticmethod
    def bundle(*names: str) -> "Axis":
        return Axis("bundle", tuple(names))

    @staticmethod
    def max_of(*names: str) -> "Axis":
        return Axis("max", tuple(names))

    @property
    def ordered(self) -> tuple[str, ...]:
        """The names in tie-break order: a max axis picks its largest
        component, ties to the earlier name, and the listing-state triple
        always breaks ties E_s, E_p, E_m (as argmax_state does)."""
        if self.kind == "max" and set(self.names) == {"E_s", "E_p", "E_m"}:
            return ("E_s", "E_p", "E_m")
        return self.names


class Deriv(Expr):
    driven: Expr
    axis: Axis
    order: int


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

Combine = Callable[[Sequence[Interval]], Interval]
#: A compiled expression under a state context: (scenario, context, notes) ->
#: interval, per draw where the scenario is a block of draws.
Compiled = Callable[[object, Optional[str], Optional[list]], Interval]

_BINARY = {Sub: sub, Mul: mul, Div: div}


def _combine(expr: Expr, leaves: dict, intersection: str) -> Combine:
    """Closure computing ``expr`` from its leaves' values.

    Symbols, derivatives and integrals are leaves: each is registered in
    ``leaves`` (node -> slot) in first-evaluation order, and the closure reads
    its value from that slot of the sequence it is given.
    """
    if isinstance(expr, (Sym, Deriv, IntegralE)):
        return itemgetter(leaves.setdefault(expr, len(leaves)))
    if isinstance(expr, Const):
        value = point(expr.value)
        return lambda vals: value
    if isinstance(expr, Joint):
        fa = _combine(Sym(expr.a), leaves, intersection)
        fb = _combine(Sym(expr.b), leaves, intersection)
        return lambda vals: joint(fa(vals), fb(vals), intersection)
    if isinstance(expr, Add):
        fs = tuple(_combine(p, leaves, intersection) for p in expr.parts)
        zero = point(0.0)

        def total(vals):
            acc = zero
            for f in fs:
                acc = add(acc, f(vals))
            return acc
        return total
    if isinstance(expr, (MaxE, MinE)):
        fs = tuple(_combine(p, leaves, intersection) for p in expr.parts)
        larger = isinstance(expr, MaxE)
        return lambda vals: extremum([f(vals) for f in fs], larger)
    binary = _BINARY.get(type(expr))
    if binary is not None:
        fa = _combine(expr.a, leaves, intersection)
        fb = _combine(expr.b, leaves, intersection)
        return lambda vals: binary(fa(vals), fb(vals))
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def _stencil(f: Callable, x0, h, order: int) -> Interval:
    """Central difference of ``f`` at ``x0`` with step ``h``; unknown where
    the step's power overflows or underflows past a finite reciprocal (the
    result is then UNKNOWN itself)."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    if order == 1:
        num, den = sub(f(x0 + h), f(x0 - h)), 2.0 * h
    elif order == 2:
        num, den = add(sub(f(x0 + h), scale(f(x0), 2.0)), f(x0 - h)), h * h
    else:
        num = sub(add(sub(f(x0 + 2 * h), scale(f(x0 + h), 2.0)),
                      scale(f(x0 - h), 2.0)), f(x0 - 2 * h))
        den = 2.0 * _cube(h)
    lost = (den == INF) | (den < _TINY)
    if lost is True:
        return UNKNOWN
    return _unknown_where(lost, scale(num, 1.0 / den))


def _note(notes: Optional[list], note: str) -> None:
    if notes is not None and note not in notes:
        notes.append(note)


_IDENTITY = object()  # link marker: the driven symbol is the driver itself


def _compile_deriv(d: Deriv, cfg: RunConfig = DEFAULT_CONFIG):
    """Compiled derivative: (scenario, context, notes, h=None) -> interval.

    The driven side resolves with the driver pinned to each stencil point:
    the driver itself (identity), a declared response of it, or unknown. A
    max axis is differentiated along its winning component.
    """
    leaves: dict = {}
    combine = _combine(d.driven, leaves, cfg.intersection)
    for leaf in leaves:
        if not isinstance(leaf, Sym):
            raise TypeError(f"unsupported driven expression {type(leaf).__name__}")
    driven_names = tuple(leaf.name for leaf in leaves)
    identity = d.driven.name if isinstance(d.driven, Sym) else None
    order, step_scale = d.order, cfg.fd_step_scale
    kind, names = d.axis.kind, d.axis.ordered
    first, joined = names[0], "+".join(names)
    constant = point(1.0 if order == 1 else 0.0)

    def along(s, ctx: Optional[str], notes: Optional[list], h, axis: Optional[str], x0):
        if identity is not None and identity == axis:
            return constant
        if h is None:
            h = step_scale * _first((1.0, abs(x0)), True)
        links = []
        for name in driven_names:
            if name == axis:
                links.append(_IDENTITY)
                continue
            r = s.response_for(name, axis, ctx)
            if r is None:
                _note(notes, f"missing response ({name}, {axis})")
            links.append(r)

        def f(x):
            vals = []  # a loop, not a comprehension: one call fewer per stencil point
            for r in links:
                if r is None:
                    vals.append(UNKNOWN)
                elif r is _IDENTITY:
                    vals.append(point(x))
                else:
                    # looked up at call time: perfbench's tracer wraps this binding
                    vals.append(point(eval_response(r, x)))
            return combine(vals)

        v = _stencil(f, x0, h, order)
        if v is UNKNOWN:
            flow = "overflows" if h > 1 else "underflows"
            _note(notes, f"difference step along {axis} {flow} (h = {h})")
        return v

    def deriv(s, ctx: Optional[str], notes: Optional[list], h=None) -> Interval:
        if kind == "sym":
            return along(s, ctx, notes, h, first, s.value(first, ctx))
        if kind == "bundle":
            return along(s, ctx, notes, h, joined, s.bundle_value(names, ctx))
        return s.per_winner(names, ctx, lambda axis, x0: along(s, ctx, notes, h, axis, x0))

    return deriv


def _horizon_nodes(T: float, dt: float) -> list[float]:
    if not (T > 0 and 0 < dt <= T):
        raise ValueError("require T > 0 and 0 < dt <= T")
    nodes = []
    k = 0
    while True:
        t = k * dt
        if t >= T - 1e-12 * max(1.0, T):
            nodes.append(T)
            return nodes
        nodes.append(t)
        k += 1


def _path_value(tp: TimePath, t: float, T: float) -> float:
    if tp.kind == "constant":
        return tp.value
    if tp.kind == "linear":
        return tp.v0 + tp.slope * t
    # samples: linear interpolation; must cover [0, T]
    ts, vs = tp.times, tp.values
    if ts[0] > 0.0 or ts[-1] < T:
        raise PathCoverageError(
            f"time path for {tp.symbol} covers [{ts[0]}, {ts[-1]}], needs [0, {T}]")
    if t <= ts[0]:
        return vs[0]
    if t >= ts[-1]:
        return vs[-1]
    lo = bisect_right(ts, t) - 1
    frac = (t - ts[lo]) / (ts[lo + 1] - ts[lo])
    return vs[lo] + frac * (vs[lo + 1] - vs[lo])


def _compile_integral(integrand: Expr, T: float, dt: float,
                      cfg: RunConfig = DEFAULT_CONFIG) -> Callable:
    """Compiled trapezoid integral over [0, T]: scenario -> float (per draw).

    Symbols follow their time paths and otherwise stay at base values; a
    derivative is taken at base and must be a point. The sum runs node by
    node, so it holds one integrand value at a time.
    """
    nodes = _horizon_nodes(T, dt)
    leaves: dict = {}
    combine = _combine(integrand, leaves, cfg.intersection)
    resolvers = tuple(_time_leaf(leaf, cfg) for leaf in leaves)

    def integrate(s):
        slots = [resolve(s) for resolve in resolvers]
        paths = [(i, x) for i, x in enumerate(slots) if isinstance(x, TimePath)]

        def at(t: float):
            for i, tp in paths:
                slots[i] = point(_path_value(tp, t, T))
            return _sole(combine(slots))

        if not paths:  # nothing moves with t
            fixed = _sole(combine(slots))
            at = lambda t: fixed  # noqa: E731
        total = 0.0
        prev = at(nodes[0])
        for i in range(1, len(nodes)):
            value = at(nodes[i])
            total += 0.5 * (prev + value) * (nodes[i] - nodes[i - 1])
            prev = value
        return total

    return integrate


def _sole(v: Interval):
    """A point interval's value: NaN where ``v`` is not a point."""
    same = v[0] == v[1]
    if same is True or same is False:
        return v[0] if same else math.nan
    return _where(same, v[0], math.nan)


def _time_leaf(leaf: Expr, cfg: RunConfig) -> Callable:
    """A leaf over the horizon: its time path, or an interval fixed over it."""
    if isinstance(leaf, Sym):
        name = leaf.name

        def symbol(s):
            tp = s.time_path_for(name)
            return tp if tp is not None else point(s.value(name))
        return symbol
    if isinstance(leaf, Deriv):
        deriv = _compile_deriv(leaf, cfg)

        def derivative(s) -> Interval:
            v = deriv(s, None, None)
            same = v[0] == v[1]
            if not (same is True or (same is not False and same.all())):
                raise IndeterminateIntegrand("integrand contains an indeterminate derivative")
            return v
        return derivative
    raise TypeError(f"unsupported integrand node {type(leaf).__name__}")


def _state_leaf(leaf: Expr, cfg: RunConfig) -> Compiled:
    """A leaf at base or under a listing-state overlay."""
    if isinstance(leaf, Sym):
        name = leaf.name
        return lambda s, ctx, notes: point(s.value(name, ctx))
    if isinstance(leaf, Deriv):
        return _compile_deriv(leaf, cfg)
    integrate = _compile_integral(leaf.integrand, cfg.horizon_T, cfg.horizon_dt, cfg)

    def integral(s, ctx, notes) -> Interval:
        try:
            return point(integrate(s))
        except PathCoverageError as exc:  # the same for every draw: paths are the base's
            _note(notes, str(exc))
            return UNKNOWN
    return integral


def compile_expression(expr: Expr, cfg: RunConfig = DEFAULT_CONFIG) -> Compiled:
    """Compile ``expr`` for evaluation at base or under a listing-state
    overlay: the result maps (scenario, context, notes) to an interval."""
    leaves: dict = {}
    combine = _combine(expr, leaves, cfg.intersection)
    getters = tuple(_state_leaf(leaf, cfg) for leaf in leaves)
    if expr in leaves:  # a bare leaf needs no combining
        return getters[0]

    def evaluate(s, ctx: Optional[str], notes: Optional[list]) -> Interval:
        return combine([g(s, ctx, notes) for g in getters])
    return evaluate


def symbols_of(expr: Expr) -> set[str]:
    """Every symbol ``expr`` reads, derivative axes and integrands included."""
    leaves: dict = {}
    _combine(expr, leaves, "product")
    out: set[str] = set()
    for leaf in leaves:
        if isinstance(leaf, Sym):
            out.add(leaf.name)
        elif isinstance(leaf, Deriv):
            out |= symbols_of(leaf.driven)
            out.update(leaf.axis.names)
        else:
            out |= symbols_of(leaf.integrand)
    return out


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def finite_difference(s: Scenario, driven: str | Expr, driver: str | Axis,
                      order: int, h: Optional[float] = None,
                      context: Optional[str] = None,
                      cfg: RunConfig = DEFAULT_CONFIG,
                      notes: Optional[list] = None) -> ExtendedValue:
    """Central-difference estimate of ∂^order driven / ∂driver^order.

    ``driven`` may be a symbol name, a "+"-joined sum of symbols, or an
    expression; ``driver`` a symbol/bundle name or an Axis. Missing links
    yield Indeterminate, never an error.
    """
    if isinstance(driven, str):
        parts = split_driver(driven)
        driven = Sym(parts[0]) if len(parts) == 1 else Add(tuple(Sym(p) for p in parts))
    axis = Axis.sym(driver) if isinstance(driver, str) else driver
    deriv = _compile_deriv(Deriv(driven, axis, order), cfg)
    return ExtendedValue(*deriv(s, context, notes, h))


def evaluate_expression(s: Scenario, expr: Expr, context: Optional[str] = None,
                        cfg: RunConfig = DEFAULT_CONFIG,
                        notes: Optional[list] = None) -> ExtendedValue:
    """Evaluate an expression tree to an ExtendedValue under a state context."""
    return ExtendedValue(*compile_expression(expr, cfg)(s, context, notes))


def integrate_horizon(s: Scenario, integrand: Expr, T: float, dt: float,
                      cfg: RunConfig = DEFAULT_CONFIG) -> float:
    """Trapezoid-rule integral of ``integrand`` over [0, T] at spacing dt.

    Symbols follow their declared time paths and otherwise stay at base
    values; the rule is exact for constant and linear integrands.
    """
    return _compile_integral(integrand, T, dt, cfg)(s)
