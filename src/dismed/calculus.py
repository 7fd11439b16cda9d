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
such as inf - inf, an overflowing stencil step or a time path that ends
early, is the unknown interval, per draw. Unknown absorbs under ``+``, ``-``
and the joint, so a derivative whose driven side is built from those alone
and misses a link is the float UNKNOWN without a stencil run: a sweep
settles it once per base (:func:`on_base`), even along a swept axis.

Expressions are compiled once into closures that combine the values of their
leaves (symbols, derivatives and horizon integrals) with these operations;
only the leaf resolver differs: a symbol at base or under a listing-state
overlay, a symbol with the driver pinned to a stencil point, or a symbol at
time t along its time path: its line ``v0 + slope * t``, or the segment rule
of piecewise links (``model._interpolate``) through its samples, held at the
end samples where a link extrapolates (no benchmark workload holds either).
The listing-state context (a state, or an argmax context's candidates) is
fixed at compile time, so a closure reads only a Scenario (and a notes list)
per call, through its ``value``, ``bundle_value``, ``response_for``,
``time_path_for`` and ``per_winner``: in ``decide`` one scenario, in sweeps a
block of draws (``dismed.batch.block``) whose swept values are per-draw arrays.
"""

from __future__ import annotations

import math
import sys
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import PathCoverageError
from .model import Scenario, TimePath, _first, _interpolate, _where, eval_response, split_driver
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


def _close(a, b, rel_tol: float):
    """|a - b| <= rel_tol * max(|a|, |b|, 1e-12), per draw."""
    return abs(a - b) <= rel_tol * _first((abs(a), abs(b), 1e-12), True)


def _joint_raw(a, b, mode: str):
    # The joint closing probability, per draw and unchecked: derivative
    # stencils may probe response values slightly outside [0, 1].
    if mode == "product":
        return a * b
    if mode == "min":
        return _first((a, b), False)
    raise ValueError(f"unknown intersection mode {mode!r}")


def argmin_state(s: Scenario, candidates: Sequence[str] = ("E_m", "E_p", "E_s")) -> str:
    """State with the smallest base value; ties break by the candidates'
    order (E_m over E_p over E_s for the full triple)."""
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
    def max_of(*names: str) -> "Axis":
        return Axis("max", tuple(names))

    @property
    def ordered(self) -> tuple[str, ...]:
        """The names in tie-break order: a max axis picks its largest
        component, ties to the earlier name, and the listing-state triple
        always breaks ties E_s, E_p, E_m (as a part's argmax context does)."""
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
#: An expression compiled under its listing-state context: (scenario, notes)
#: -> interval, per draw where the scenario is a block of draws.
Compiled = Callable[[object, Optional[list]], Interval]

_BINARY = {Sub: sub, Mul: mul}


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


def _divisor(h, order: int):
    """The stencil's divisor for step ``h``, and where it is lost: where the
    step's power overflows or underflows past a finite reciprocal."""
    if order == 1:
        den = 2.0 * h
    elif order == 2:
        den = h * h
    else:
        den = 2.0 * _cube(h)
    return den, (den == INF) | (den < _TINY)


def _stencil(f: Callable, x0, h, order: int) -> Interval:
    """Central difference of ``f`` at ``x0`` with step ``h``; unknown where
    the divisor is lost (the result is then UNKNOWN itself)."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    if order == 1:
        num = sub(f(x0 + h), f(x0 - h))
    elif order == 2:
        num = add(sub(f(x0 + h), scale(f(x0), 2.0)), f(x0 - h))
    else:
        num = sub(add(sub(f(x0 + 2 * h), scale(f(x0 + h), 2.0)),
                      scale(f(x0 - h), 2.0)), f(x0 - 2 * h))
    den, lost = _divisor(h, order)
    if lost is True:
        return UNKNOWN
    return _unknown_where(lost, scale(num, 1.0 / den))


def _strict(expr: Expr) -> bool:
    """Whether ``expr`` is unknown wherever a symbol it reads is: sums,
    differences and joints of symbols and constants are (unknown absorbs
    under IEEE 1788's ``+``, ``-`` and the joint); a product is not (0 *
    unknown = 0), nor is a Max or Min."""
    if isinstance(expr, Add):
        return all(map(_strict, expr.parts))
    if isinstance(expr, Sub):
        return _strict(expr.a) and _strict(expr.b)
    return isinstance(expr, (Sym, Const, Joint))


def _note(notes: Optional[list], note: str) -> None:
    if notes is not None and note not in notes:
        notes.append(note)


def _note_lost(notes: Optional[list], axis: str, h) -> None:
    flow = "overflows" if h > 1 else "underflows"
    _note(notes, f"difference step along {axis} {flow} (h = {h})")


_IDENTITY = object()  # link marker: the driven symbol is the driver itself


def _compile_deriv(d: Deriv, cfg: RunConfig = DEFAULT_CONFIG, ctx: Optional[str] = None):
    """Compiled derivative under the state ``ctx``: (scenario, notes, h=None) -> interval.

    The driven side resolves with the driver pinned to each stencil point:
    the driver itself (identity), a declared response of it, or unknown. A
    max axis is differentiated along its winning component. A driven side
    that is unknown wherever a symbol it reads is (``_strict``, decided here
    once) is unknown at every stencil point when a link is missing, so the
    stencil is not run: only a float step's loss is left to find and note.
    Its ``reads`` are the driven side's symbols and the axis names; its
    ``along`` (context, identity, strictness, driven names, axes) lets
    :func:`on_base` tell from a base's links alone whether every axis gives
    the one constant or UNKNOWN, so that on that base it reads nothing.
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
    # an invalid order still reaches the stencil, which refuses it
    strict = order in (1, 2, 3) and _strict(d.driven)

    def along(s, notes: Optional[list], h, axis: Optional[str], x0):
        if identity is not None and identity == axis:
            return constant
        links, missing = [], False
        for name in driven_names:
            if name == axis:
                links.append(_IDENTITY)
                continue
            r = s.response_for(name, axis, ctx)
            if r is None:
                missing = True
                _note(notes, f"missing response ({name}, {axis})")
            links.append(r)
        unknown = missing and strict
        if h is None:
            if unknown and not isinstance(x0, (int, float)):
                return UNKNOWN  # a per-draw step is never noted
            h = step_scale * _first((1.0, abs(x0)), True)
        if unknown:
            if _divisor(h, order)[1] is True:
                _note_lost(notes, axis, h)
            return UNKNOWN

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
            _note_lost(notes, axis, h)
        return v

    def deriv(s, notes: Optional[list], h=None) -> Interval:
        if kind == "sym":
            return along(s, notes, h, first, s.value(first, ctx))
        if kind == "bundle":
            return along(s, notes, h, joined, s.bundle_value(names, ctx))
        return s.per_winner(names, ctx, lambda axis, x0: along(s, notes, h, axis, x0))

    deriv.reads = frozenset((*driven_names, *names))
    deriv.along = ctx, identity, strict, driven_names, (joined,) if kind == "bundle" else names
    return deriv


def _horizon_nodes(T: float, dt: float) -> list[float]:
    if not (T > 0 and 0 < dt <= T):
        raise ValueError("require T > 0 and 0 < dt <= T")
    nodes = []
    k = 0
    while True:
        t = k * dt
        if t >= T - 1e-12 * T:  # relative: a horizon below 1e-12 keeps its nodes
            nodes.append(T)
            return nodes
        nodes.append(t)
        k += 1


#: Above this many horizon nodes, an integrand that a time path moves is
#: evaluated once on the array of node times, not node by node, unless a
#: symbol it reads holds per-draw values (a sweep block). Below it no numpy
#: is imported.
NODE_AXIS_MIN = 1000


def _compile_integral(integrand: Expr, T: float, dt: float,
                      cfg: RunConfig = DEFAULT_CONFIG) -> Callable:
    """Compiled trapezoid integral over [0, T]: scenario -> float (per draw).

    Symbols follow their time paths and otherwise stay at base values. The
    trapezoid terms are added to the total one at a time, in node order,
    whether the integrand is evaluated node by node or on the node axis.
    """
    nodes = _horizon_nodes(T, dt)
    widths = [b - a for a, b in zip(nodes, nodes[1:])]
    axis = []  # the node times and widths as arrays, made on first use
    leaves: dict = {}
    combine = _combine(integrand, leaves, cfg.intersection)
    resolvers = tuple(_time_leaf(leaf) for leaf in leaves)

    def fixed(value) -> float:
        # an integrand that does not move with t: every term is 0.5 * (v + v) * width
        total = 0.0
        mean = 0.5 * (value + value)
        for width in widths:
            total += mean * width
        return total

    def on_axis(at):
        import numpy as np
        if not axis:
            axis.extend((np.array(nodes), np.array(widths)))
        t, w = axis
        with np.errstate(all="ignore"):
            v = at(t)
            terms = 0.5 * (v[:-1] + v[1:]) * w
        total = 0.0
        for term in terms.tolist():
            total += term
        return total

    def integrate(s):
        slots = [resolve(s) for resolve in resolvers]
        paths = [(i, x) for i, x in enumerate(slots) if isinstance(x, TimePath)]
        if not paths:
            return fixed(_sole(combine(slots)))
        for _, tp in paths:
            ts = tp.times
            if tp.kind == "samples" and (ts[0] > 0.0 or ts[-1] < T):
                raise PathCoverageError(
                    f"time path for {tp.symbol} covers [{ts[0]}, {ts[-1]}], needs [0, {T}]")

        def at(t):  # the integrand at a node time, or on the array of node times
            for i, tp in paths:
                slots[i] = point(tp.v0 + tp.slope * t if tp.kind == "linear"
                                 else _interpolate(tp.times, tp.values, t, True))
            return _sole(combine(slots))

        if len(nodes) > NODE_AXIS_MIN and all(
                isinstance(x, TimePath) or x[0].__class__ is float for x in slots):
            return on_axis(at)
        total = 0.0
        prev = at(nodes[0])
        for t, width in zip(nodes[1:], widths):
            value = at(t)
            total += 0.5 * (prev + value) * width
            prev = value
        return total

    integrate.reads = frozenset(leaf.name for leaf in leaves)
    return integrate


def _sole(v: Interval):
    """A point interval's value: NaN where ``v`` is not a point."""
    same = v[0] == v[1]
    if same is True or same is False:
        return v[0] if same else math.nan
    return _where(same, v[0], math.nan)


def _time_leaf(leaf: Expr) -> Callable:
    """A symbol over the horizon: its moving time path, or the point it stays at."""
    if not isinstance(leaf, Sym):
        raise TypeError(f"unsupported integrand node {type(leaf).__name__}")
    name = leaf.name

    def symbol(s):
        tp = s.time_path_for(name)
        if tp is None:
            return point(s.value(name))
        return point(tp.value) if tp.kind == "constant" else tp
    return symbol


def _state_leaf(leaf: Expr, cfg: RunConfig, ctx: Optional[str]) -> Compiled:
    """A leaf at base (``ctx`` None) or under a listing-state overlay."""
    if isinstance(leaf, Sym):
        name = leaf.name

        def symbol(s, notes) -> Interval:
            return point(s.value(name, ctx))
        symbol.reads = frozenset((name,))
        return symbol
    if isinstance(leaf, Deriv):
        return _compile_deriv(leaf, cfg, ctx)
    integrate = _compile_integral(leaf.integrand, cfg.horizon_T, cfg.horizon_dt, cfg)

    def integral(s, notes) -> Interval:
        try:
            return point(integrate(s))
        except PathCoverageError as exc:  # the same for every draw: paths are the base's
            _note(notes, str(exc))
            return UNKNOWN
    integral.reads = integrate.reads
    return integral


def compile_expression(expr: Expr, cfg: RunConfig = DEFAULT_CONFIG,
                       ctx: Optional[str | tuple[str, ...]] = None) -> Compiled:
    """Compile ``expr`` at base (``ctx`` None), under a listing-state overlay
    (a state) or under an argmax context (a tuple of candidate states): the
    result maps (scenario, notes) to an interval, its ``reads`` are the
    symbols its leaves read, and on a given base it reads the union of what
    its ``leaves`` read there (:func:`on_base`). An argmax context compiles
    ``expr`` under each candidate and under None (which ``Scenario.per_winner``
    passes when no state exceeds -inf), kept as ``under``, gives the winner's
    value, per draw, and reads the candidates too."""
    if isinstance(ctx, tuple):
        under = {state: compile_expression(expr, cfg, state) for state in (*ctx, None)}

        def winner(s, notes: Optional[list]) -> Interval:
            return s.per_winner(ctx, None, lambda state, _: under[state](s, notes))
        winner.reads = under[None].reads | frozenset(ctx)
        winner.under = under
        return winner
    leaves: dict = {}
    combine = _combine(expr, leaves, cfg.intersection)
    getters = tuple(_state_leaf(leaf, cfg, ctx) for leaf in leaves)
    if expr in leaves:  # a bare leaf needs no combining
        return getters[0]

    def evaluate(s, notes: Optional[list]) -> Interval:
        return combine([g(s, notes) for g in getters])
    evaluate.reads = frozenset().union(*(g.reads for g in getters))
    evaluate.leaves = getters
    return evaluate


def _fixed(s: Scenario, ctx, identity, strict, driven, axes) -> bool:
    """Whether a derivative gives one and the same value along each of its
    ``axes`` on ``s`` whatever its values: the constant along its own driven
    symbol (``identity``), or UNKNOWN where its ``strict`` driven side misses
    a link in ``ctx`` or at base."""
    outcomes = set()
    for axis in axes:
        if axis == identity:
            outcomes.add("constant")
        elif strict and any(name != axis and s.response_for(name, axis, ctx) is None
                            for name in driven):
            outcomes.add("unknown")
        else:
            return False
    return len(outcomes) == 1


def on_base(f: Compiled, s: Scenario) -> tuple[Compiled, frozenset]:
    """Compiled ``f`` as it runs on every draw of a sweep of the base ``s``,
    and the symbols it reads there: its ``reads``, less what ``s``'s links
    and overlays, which no draw changes, keep from its value.

    A derivative reads nothing where each axis it can be taken along (its
    symbol, its bundle or each component of its max axis) gives the same one
    of two values: its own driven symbol gives the constant 1 or 0, and an
    axis along which a strict driven side (``_strict``) misses a link gives
    UNKNOWN. An expression reads what its leaves read there. An argmax
    context (:func:`compile_expression`) gives its base-context side where
    no candidate state's overlay overrides a symbol it names and no link
    scoped to one has such a symbol as its driven: every candidate then
    gives that side's value.
    """
    along = getattr(f, "along", None)
    if along is not None:
        return f, frozenset() if _fixed(s, *along) else f.reads
    leaves = getattr(f, "leaves", None)
    if leaves is not None:
        return f, frozenset().union(*(on_base(g, s)[1] for g in leaves))
    under = getattr(f, "under", None)
    if under is not None:
        named, states = under[None].reads, frozenset(under) - {None}
        if all(named.isdisjoint(s.overlays.get(state, ())) for state in states) and not any(
                r.context in states and r.driven in named for r in s.responses):
            return on_base(under[None], s)
        return f, states.union(*(on_base(g, s)[1] for g in under.values()))
    return f, f.reads


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
    deriv = _compile_deriv(Deriv(driven, axis, order), cfg, context)
    return ExtendedValue(*deriv(s, notes, h))


def evaluate_expression(s: Scenario, expr: Expr, context: Optional[str] = None,
                        cfg: RunConfig = DEFAULT_CONFIG,
                        notes: Optional[list] = None) -> ExtendedValue:
    """Evaluate an expression tree to an ExtendedValue under a state context."""
    return ExtendedValue(*compile_expression(expr, cfg, context)(s, notes))


def integrate_horizon(s: Scenario, integrand: Expr, T: float, dt: float,
                      cfg: RunConfig = DEFAULT_CONFIG) -> float:
    """Trapezoid-rule integral of ``integrand`` over [0, T] at spacing dt.

    Symbols follow their declared time paths and otherwise stay at base
    values; the rule is exact for constant and linear integrands.
    """
    return _compile_integral(integrand, T, dt, cfg)(s)
