"""The random streams of a block of sweep draws, drawn as arrays.

Draw ``i`` of a sweep owns the stream ``SeedSequence([seed, i]) -> PCG64``.
``Streams`` holds the streams of draws start..stop-1 as arrays with one row
per draw: each PCG64's 128-bit state and increment as hi/lo ``uint64``
pairs, seeded by numpy's SeedSequence entropy coercion and mixing, computed
in ``uint32`` array arithmetic by ``pcg.state_words``. A row's outputs are
those of its own PCG64 (an LCG step, then the XSL-RR output function;
O'Neill 2014), bit for bit.

Marginals are drawn with numpy's ``Generator`` formulas: a uniform is
``lo + (hi - lo) * next_double``; a normal is ``mean + sd * z`` with ``z``
on the fast path of numpy's ziggurat (Marsaglia & Tsang 2000), read from the
tables ``wi``/``ki`` of the installed numpy (``normal_tables``). A row whose
normal leaves the fast path (about 1.5 % of normals) finishes its attempt on
a ``Generator`` loaded with the row's state, by the same formulas over its
``random`` and ``standard_normal``, and the state is read back. NEP 19 pins
the SeedSequence and PCG64 bit streams across numpy versions, not the
algorithm of ``Generator.normal``; the tables are probed from the numpy that
runs, once per process, and if the probe fails its own check every normal
takes that Generator path.

Each ``Streams`` reads its marginals into ``loc`` and ``scale`` columns once
(``_layout``), again only when a different marginals tuple arrives, so an
attempt computes every drawn value as ``loc + scale * x`` in one pass; it
makes its rows' increment part of the k-step jumps once per k, from the
constants of every jump a block can take, tabled at import, and its
slow-path Generator once, at the first row that needs it. None of it
outlives the Streams.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import SYMBOLS
from .pcg import _MASK32, _MASK64, _MASK128, _MULT, _double, _output, _words, state_words

_M_HI, _M_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & _MASK64)  # MULT's 64-bit halves

_LAYERS = 256        # ziggurat layers, chosen by the low 8 bits of an output
_RABS = 1 << 52      # the 52-bit magnitude above the layer and sign bits


def _add(a_hi, a_lo, b_hi, b_lo):
    """128-bit sums, mod 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul(a_hi, a_lo, b_hi, b_lo):
    """128-bit products, mod 2**128: the high half of ``a_lo * b_lo`` is
    built from 32-bit partial products (Warren, Hacker's Delight, 8-2)."""
    low, half = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a_lo & low, a_lo >> half, b_lo & low, b_lo >> half
    t = a1 * b0 + (a0 * b0 >> half)
    w = (t & low) + a0 * b1
    return a1 * b1 + (t >> half) + (w >> half) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _halves(values: list[int]):
    """128-bit ints as a column of hi and a column of lo ``uint64``s."""
    return (np.array([[v >> 64] for v in values], dtype=np.uint64),
            np.array([[v & _MASK64] for v in values], dtype=np.uint64))


def _jump_table(steps: int):
    """``MULT**j`` and ``MULT**(j-1) + ... + 1`` (mod 2**128) for j in
    0..steps, each as hi and lo columns."""
    powers, sums = [1], [0]
    for _ in range(steps):
        powers.append(powers[-1] * _MULT & _MASK128)
        sums.append((sums[-1] * _MULT + 1) & _MASK128)
    return _halves(powers), _halves(sums)


#: The jumps of 0..len(SYMBOLS) steps: an attempt draws at most one output
#: per marginal, and a distribution samples each symbol at most once.
_POWERS, _SUMS = _jump_table(len(SYMBOLS))


def _seeded(seed: int, start: int, stop: int):
    """State and increment of ``PCG64(SeedSequence([seed, i]))`` for i in
    start..stop-1, where every i has as many uint32 words as ``start``."""
    n = stop - start
    i = np.arange(start, stop, dtype=np.uint64 if stop <= 1 << 64 else object)
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed)]
    entropy += [(i >> (32 * k) & _MASK32).astype(np.uint32) for k in range(len(_words(start)))]
    # generate_state(4, uint64): 8 hashed words, paired little-end first
    out = np.array(state_words(entropy), dtype=np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << np.uint64(32)
    # pcg64_set_seed: inc = seq << 1 | 1; state = (inc + seed) * MULT + inc
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    hi, lo = _add(*_mul(*_add(inc_hi, inc_lo, seed_hi, seed_lo), _M_HI, _M_LO), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _spans(start: int, stop: int):
    """start..stop split where the number of uint32 words of an index changes."""
    while start < stop:
        end = min(stop, 1 << 32 * len(_words(start)))
        yield start, end
        start = end


class Streams:
    """The streams ``SeedSequence([seed, i]) -> PCG64`` of draws
    start..stop-1; row ``r`` is draw ``start + r``."""

    def __init__(self, seed: int, start: int, stop: int):
        parts = [_seeded(seed, a, b) for a, b in _spans(start, stop)]
        self.hi, self.lo, self.inc_hi, self.inc_lo = (np.concatenate(p) for p in zip(*parts))
        self._jumps = {}  # k -> every row's inc part after 0..k steps
        # the last marginals drawn and their _layout; the slow path's Generator
        self._marginals = self._layout = self._gen = None

    def ahead(self, rows: np.ndarray, k: int):
        """The states of the rows in ``rows`` after 0..k more outputs, as hi
        and lo arrays of shape (k + 1, len(rows)); the streams stay put.

        After j steps a state is ``state * MULT**j + inc * (MULT**(j-1) +
        ... + 1)`` mod 2**128: one product by a constant of the table made
        at import, plus a part that no draw changes, the row's ``inc`` times
        the table's sum, made for every row at the first call with ``k``."""
        if k not in self._jumps:
            self._jumps[k] = _mul(self.inc_hi, self.inc_lo, _SUMS[0][:k + 1], _SUMS[1][:k + 1])
        i_hi, i_lo = self._jumps[k]
        return _add(*_mul(self.hi[rows], self.lo[rows], _POWERS[0][:k + 1], _POWERS[1][:k + 1]),
                    i_hi[:, rows], i_lo[:, rows])

    def draw(self, marginals, rows: np.ndarray) -> np.ndarray:
        """One attempt of each row in ``rows``: a value per marginal, in order,
        as ``Generator.uniform``/``normal`` draw them from the row's stream,
        which advances past them. Uniform and normal marginals use one output
        each on the fast path; a row leaves it at its first normal off it."""
        if marginals is not self._marginals:
            self._marginals, self._layout = marginals, _layout(marginals)
        points, values, drawn, normal, loc, scale, params = self._layout
        out = np.empty((len(rows), len(marginals)))
        out[:, points] = values
        if not drawn:
            return out
        hi, lo = self.ahead(rows, len(drawn))
        u = _output(hi[1:], lo[1:])
        x, off = _double(u), np.zeros(u.shape, dtype=bool)  # a normal's place takes its z
        if normal:
            tables = normal_tables()  # None: every normal is off the fast path
            x[normal], fast = _fast_path(u[normal], *tables) if tables else (0.0, False)
            off[normal] = np.logical_not(fast)
        out[:, drawn] = (loc + scale * x).T
        # each row stands after its outputs up to the first normal off the fast path
        stop = np.where(off.any(axis=0), off.argmax(axis=0), len(drawn))
        cols = np.arange(len(rows))
        self.hi[rows], self.lo[rows] = hi[stop, cols], lo[stop, cols]
        for k in np.flatnonzero(stop < len(drawn)).tolist():
            self._finish(params, drawn[stop[k]], rows[k], out[k])
        return out

    def _finish(self, params: list, first: int, row: int, out: np.ndarray) -> None:
        """Draw the marginals from ``first`` on of ``row`` into ``out`` by the
        formulas of ``Generator.uniform``/``normal``, ``loc + scale *
        random()`` and ``loc + scale * standard_normal()``, on this Streams'
        one Generator loaded with the row's state; then read the state back."""
        gen = self._gen = self._gen or np.random.Generator(np.random.PCG64(0))
        bits = gen.bit_generator
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": int(self.hi[row]) << 64 | int(self.lo[row]),
                                "inc": int(self.inc_hi[row]) << 64 | int(self.inc_lo[row])}}
        out[first:] = [loc if kind == "point" else
                       loc + scale * (gen.random() if kind == "uniform" else gen.standard_normal())
                       for kind, loc, scale in params[first:]]
        state = bits.state["state"]["state"]
        self.hi[row], self.lo[row] = state >> 64, state & _MASK64


def _layout(marginals) -> tuple:
    """What ``Streams.draw`` reads of ``marginals``: the point columns and
    values; the drawn columns, the places of the normals among them and
    their ``loc`` and ``scale`` columns; and each marginal's ``(kind, loc,
    scale)``, as floats: ``lo`` and ``hi - lo`` for a uniform, ``mean`` and
    ``sd`` for a normal, ``value`` and 0 for a point."""
    params = [(m.kind, float(m.value), 0.0) if m.kind == "point" else
              (m.kind, float(m.lo), float(m.hi) - float(m.lo)) if m.kind == "uniform" else
              (m.kind, float(m.mean), float(m.sd)) for m in marginals]
    points = [j for j, p in enumerate(params) if p[0] == "point"]
    drawn = [j for j, p in enumerate(params) if p[0] != "point"]
    normal = [k for k, j in enumerate(drawn) if params[j][0] == "normal"]
    loc, scale = (np.array([[params[j][i]] for j in drawn]) for i in (1, 2))
    return points, np.array([params[j][1] for j in points]), drawn, normal, loc, scale, params


def _fast_path(u: np.ndarray, wi: np.ndarray, ki: np.ndarray):
    """numpy's ziggurat on outputs ``u``: the low 8 bits pick a layer, the
    next bit is the sign and the 52 above it the magnitude ``rabs``, so
    ``z = +-rabs * wi[layer]``, on the fast path where ``rabs < ki[layer]``."""
    layer = (u & np.uint64(0xFF)).astype(np.intp)
    rabs = u >> np.uint64(9) & np.uint64(_RABS - 1)
    z = rabs * wi[layer]
    return np.where(u >> np.uint64(8) & np.uint64(1), -z, z), rabs < ki[layer]


@functools.cache
def normal_tables():
    """numpy's ziggurat tables ``(wi, ki)``, read from the installed numpy
    once per process, or None where the probe fails its own check.

    A PCG64 state can be chosen whose next output is any 64-bit ``u``; each
    probe loads one, calls ``Generator.standard_normal()`` and reads the
    state back, which tells whether the call used ``u`` alone (the fast
    path). With magnitude 1, the call returns ``wi[layer]``. ``ki[layer]``
    is the smallest magnitude off the fast path, searched for outward from
    ``floor(2**52 * wi[layer - 1] / wi[layer])`` (by bisection in layers 0
    and 2: ``ki[1]`` is 0, so ``wi[1]`` cannot be probed). The check: every
    fast probe of the search, made with the sign bit set, and the outputs of
    a fixed stream must take the path and give the value the tables give.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inc = bits.state["state"]["inc"]
    unstep = pow(_MULT, -1, 1 << 128)

    def probe(u: int):
        # the stepped state (0, u) outputs u: its rotation is 0
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (u - inc) * unstep & _MASK128, "inc": inc}}
        z = gen.standard_normal()
        return z, bits.state["state"]["state"] == u

    wi, ki, wrong = [0.0] * _LAYERS, [0] * _LAYERS, []
    for layer in range(_LAYERS):
        z, fast = probe(1 << 9 | layer)
        if fast:
            wi[layer] = z

    def fast(layer: int, rabs: int) -> bool:
        z, used_one = probe(rabs << 9 | 1 << 8 | layer)
        if used_one and z != -(rabs * wi[layer]):
            wrong.append(layer)
        return used_one

    for layer in range(_LAYERS):
        lo, hi = (1, _RABS) if wi[layer] else (-1, 1)
        guess = (int(_RABS * wi[layer - 1] / wi[layer]) if layer > 1 and wi[layer - 1]
                 and wi[layer] else None)
        ki[layer] = _first_off(functools.partial(fast, layer), lo, hi, guess)
    wi, ki = np.array(wi), np.array(ki, dtype=np.uint64)
    u = np.random.PCG64(1).random_raw(64)
    z, on_path = _fast_path(u, wi, ki)
    for x, value, fast_path in zip(u.tolist(), z.tolist(), on_path.tolist()):
        got, used_one = probe(x)
        if used_one != fast_path or used_one and got != value:
            wrong.append(x)
    if wrong:
        return None
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def _first_off(fast, lo: int, hi: int, guess) -> int:
    """The smallest ``x`` in (lo, hi] with ``fast(x)`` false, given that it
    holds at ``lo`` and fails at ``hi``: by bisection, or, given a
    ``guess``, by probes stepping away from it in doubling strides until
    they bracket ``x``, then bisection."""
    stride = 1
    while hi - lo > 1:
        x = guess if guess is not None and lo < guess < hi else (lo + hi) // 2
        if fast(x):
            lo = x
        else:
            hi = x
        if guess is not None:
            guess, stride = x + stride if x == lo else x - stride, 2 * stride
    return hi
