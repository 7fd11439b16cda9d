"""Block-drawn streams against numpy's own Generator, draw by draw.

The oracle is the scalar drawing loop the block streams replace: draw ``i``
builds ``default_rng(SeedSequence([seed, i]))`` and draws each marginal in
order with ``Generator.uniform``/``normal``, redrawing until
``validate_scenario`` accepts; where I_p or I_i is sampled without I, I is
I_p + I_i. Values are compared bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dismed import DistributionSpec, RejectionLimit, RunConfig, run_sweep, validate_scenario
from dismed import batch, model, streams
from dismed.io import scenario_from_dict
from dismed.model import SYMBOLS, split_driver, with_values
from dismed.simulate import MAX_REJECTIONS_PER_DRAW, draw_scenario, rejection_limit

from fixture_defs import fixture_dict
from test_golden import GOLDEN_DIR, wide_sweep_case, wide_sweep_golden
from test_simulate import (_BLOCK_BASES, _block_case, bare_scenario, sample_scenarios,
                           wide_distributions)

# PCG64's LCG multiplier (O'Neill 2014), for states that output a chosen value.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64, MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _oracle_value(m, rng: np.random.Generator) -> float:
    if m.kind == "point":
        return m.value
    if m.kind == "uniform":
        return float(rng.uniform(m.lo, m.hi))
    return float(rng.normal(m.mean, m.sd))


def _oracle_draw(base, dist, seed: int, index: int):
    """Draw ``index`` and its rejections, one Generator call per marginal."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    derive_I = (("I_p" in dist.marginals or "I_i" in dist.marginals)
                and "I" not in dist.marginals)
    rejections = 0
    while True:
        candidate = with_values(base, {name: _oracle_value(m, rng)
                                       for name, m in dist.marginals.items()})
        if derive_I:
            candidate = with_values(
                candidate, {"I": candidate.value("I_p") + candidate.value("I_i")})
        if validate_scenario(candidate).ok:
            return candidate, rejections
        rejections += 1
        if rejections > MAX_REJECTIONS_PER_DRAW:
            raise rejection_limit(index)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# --- seeding --------------------------------------------------------------------

SEEDS = st.one_of(st.integers(0, 2 ** 130 - 1),
                  st.sampled_from((0, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 63 + 11,
                                   2 ** 64, 2 ** 96 - 1, 2 ** 128 + 1)))
STARTS = st.one_of(st.integers(0, 2 ** 40), st.integers(2 ** 32 - 6, 2 ** 32 + 2))


@settings(max_examples=60, deadline=None)
@given(SEEDS, STARTS, st.integers(1, 9), st.integers(1, 3))
def test_rows_are_the_seed_sequence_pcg64_streams(seed, start, n, k):
    # the outputs of every row, then of every other row, from its k-th state
    s = streams.Streams(seed, start, start + n)
    hi, lo = s.ahead(np.arange(n), k)
    first = streams._output(hi[1:], lo[1:])
    s.hi, s.lo = hi[-1], lo[-1]
    hi, lo = s.ahead(np.arange(0, n, 2), 1)
    second = streams._output(hi[1:], lo[1:])
    for r in range(n):
        bits = np.random.PCG64(np.random.SeedSequence([seed, start + r]))
        even = r % 2 == 0
        raw = bits.random_raw(k + even).tolist()
        assert first[:, r].tolist() == raw[:k]
        if even:
            assert int(second[0, r // 2]) == raw[k]
            assert _bits([streams._double(second[0, r // 2])]) == _bits(
                [np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence([seed, start + r]))).random(k + 1)[k]])


@pytest.mark.parametrize("seed, start, error", [
    (-1, 0, ValueError), (2.5, 0, TypeError), (3, -2, ValueError)])
def test_seeds_numpy_refuses_are_refused_alike(seed, start, error):
    with pytest.raises(error) as numpy_refusal:
        np.random.SeedSequence([seed, start])
    with pytest.raises(error) as refusal:
        streams.Streams(seed, start, start + 2)
    assert str(refusal.value) == str(numpy_refusal.value)


# --- block draws ------------------------------------------------------------------

@st.composite
def distributions(draw):
    """1-8 marginals of every kind around the fixture's values; links that
    touch a sampled symbol go, except next to "tiny" marginals, which move
    a value by about the 12-digit identity tolerance (I) or up to a few
    times the links' consistency tolerance (others), so that the links stay
    and reject some draws. An optional marginal on c or rho_s leaves its
    domain in about a quarter of its draws."""
    data = fixture_dict("streams")
    values = {name: data[name] for name in SYMBOLS}
    names = draw(st.lists(st.sampled_from(sorted(SYMBOLS)), min_size=1, max_size=8,
                          unique=True))
    tiny = set(draw(st.lists(st.sampled_from(names), max_size=2, unique=True)))
    if "I" in names:
        names = [n for n in names if n not in ("I_p", "I_i") or n in tiny]
        tiny.add("I")
    marginals = {}
    for name in names:
        v = values[name]
        if name in tiny:
            eps = abs(v) * 10 ** (draw(st.floats(-13.0, -10.0)) if name == "I"
                                  else draw(st.floats(-10.0, -8.3)))
            marginals[name] = {"kind": "uniform", "lo": v - eps, "hi": v + eps}
            continue
        width = draw(st.floats(0.01, 1.0)) * (abs(v) + 0.1)
        kind = draw(st.sampled_from(("point", "uniform", "normal", "normal")))
        if kind == "uniform":
            marginals[name] = {"kind": kind, "lo": v - width, "hi": v + width}
        elif kind == "normal":
            marginals[name] = {"kind": kind, "mean": v, "sd": width}
        else:
            marginals[name] = {"kind": kind, "value": v + draw(st.floats(-1.0, 1.0)) * width}
    if draw(st.booleans()):
        name, m = draw(st.sampled_from((("c", {"kind": "uniform", "lo": 0.2, "hi": 1.3}),
                                        ("rho_s", {"kind": "normal", "mean": 0.9, "sd": 0.2}))))
        marginals[name] = m
    moved = marginals.keys() - tiny
    data["responses"] = [r for r in data["responses"]
                         if not ({r["driven"], *split_driver(r["driver"])} & moved)]
    return scenario_from_dict(data), DistributionSpec.from_dict({"marginals": marginals})


def _assert_block_equals_oracle(base, dist, seed: int, start: int, stop: int):
    """``batch.draw`` gives the oracle's values bit for bit and its rejection
    counts, or the RejectionLimit of the oracle's first draw over budget,
    which is returned."""
    try:
        expected = [_oracle_draw(base, dist, seed, i) for i in range(start, stop)]
    except RejectionLimit as exc:
        with pytest.raises(RejectionLimit) as batched:
            batch.draw(base, dist, seed, start, stop)
        assert str(batched.value) == str(exc)
        return exc
    X, _, rejections = batch.draw(base, dist, seed, start, stop)
    for r, (scenario, rejected) in enumerate(expected):
        assert _bits(X[r]) == _bits(scenario.values), r
        assert int(rejections[r]) == rejected, r


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(distributions(), SEEDS, STARTS, st.integers(1, 12))
def test_block_rows_equal_the_scalar_generator_loop(case, seed, start, n):
    base, dist = case
    _assert_block_equals_oracle(base, dist, seed, start, start + n)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_distributions(), SEEDS, STARTS)
def test_wide_block_rows_equal_the_scalar_generator_loop(case, seed, start):
    # the inputs of test_simulate's batch-against-decide property: overlays,
    # piecewise links, marginals that move an anchor by about its tolerance.
    # Apart from the test above because a case over its redraw budget costs
    # about a second here (1,001 rounds on 30-50 links, on both sides).
    base, dist = case
    _assert_block_equals_oracle(base, dist, seed, start, start + 8)


def _duplicated_link(base):
    return dataclasses.replace(base, responses=base.responses + base.responses[:1])


@pytest.mark.parametrize("base, marginals, seed, start, stop", [
    # every candidate leaves c's domain
    (bare_scenario(), {"c": {"kind": "uniform", "lo": 1.5, "hi": 2.0}}, 8, 0, 4),
    # c < 1 in 7 of 10,000 candidates: a draw in the middle runs out first
    (bare_scenario(), {"c": {"kind": "uniform", "lo": 0.9993, "hi": 1.9993}}, 0, 3, 9),
    # a duplicated link rejects every candidate
    (_duplicated_link(_BLOCK_BASES[1]), {"rho_s": {"kind": "uniform", "lo": 0.2, "hi": 0.9}},
     2, 0, 3),
    # c is out of its domain in the base and no draw changes it: the first
    # block's value walk rejects every candidate
    (with_values(bare_scenario(), {"c": 1.5}),
     {"rho_s": {"kind": "uniform", "lo": 0.2, "hi": 0.9}}, 2, 5, 9),
])
def test_rejection_limits_are_the_scalar_generator_loops(base, marginals, seed, start, stop):
    dist = DistributionSpec.from_dict({"marginals": marginals})
    assert _assert_block_equals_oracle(base, dist, seed, start, stop) is not None


def _state_with_output(u: int, inc: int) -> int:
    """A PCG64 state whose next output is ``u``: its successor (0, u) has
    rotation 0, so it outputs 0 ^ u."""
    return (u - inc) * pow(PCG64_MULT, -1, 1 << 128) & MASK128


_MARGINALS = st.sampled_from((
    {"kind": "point", "value": 3.0},
    {"kind": "uniform", "lo": -1.5, "hi": 2.5},
    {"kind": "normal", "mean": 10.0, "sd": 3.0},
    {"kind": "normal", "mean": -0.25, "sd": 1e-3},
))


@st.composite
def forced_outputs(draw):
    """A normal's first output at the edges of the fast path: layers 0 and 1
    (whose ki is 0) and any other, magnitudes just under, at and over the
    layer's bound, the largest one, or any, with either sign."""
    layer = draw(st.one_of(st.sampled_from((0, 1, 2, 255)), st.integers(0, 255)))
    ki = int(streams.normal_tables()[1][layer])
    rabs = draw(st.one_of(st.sampled_from((ki - 1, ki, ki + 1, 2 ** 52 - 1)),
                          st.integers(0, 2 ** 52 - 1)))
    rabs = min(max(rabs, 0), 2 ** 52 - 1)
    return rabs << 9 | draw(st.integers(0, 1)) << 8 | layer


@settings(max_examples=80, deadline=None)
@given(st.lists(forced_outputs(), min_size=1, max_size=6), st.integers(0, 3),
       st.lists(_MARGINALS, max_size=4), st.integers(0, 2 ** 64))
def test_normals_forced_off_the_fast_path_finish_in_the_generator(outputs, points, tail, seed):
    # the first output of each row goes to the first normal, after some points
    head = [{"kind": "point", "value": 3.0}] * points
    dist = DistributionSpec.from_dict({"marginals": {
        name: m for name, m in zip(SYMBOLS, [*head, {"kind": "normal", "mean": 0.5, "sd": 2.0},
                                             *tail])}})
    marginals = tuple(dist.marginals.values())
    n = len(outputs)
    s = streams.Streams(seed, 0, n)
    expected = []
    for r, u in enumerate(outputs):
        inc = int(s.inc_hi[r]) << 64 | int(s.inc_lo[r])
        state = _state_with_output(u, inc)
        s.hi[r], s.lo[r] = state >> 64, state & MASK64
        bits = np.random.PCG64(0)
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": state, "inc": inc}}
        rng = np.random.Generator(bits)
        expected.append(([_oracle_value(m, rng) for m in marginals],
                         bits.state["state"]["state"]))
    got = s.draw(marginals, np.arange(n))
    for r, (values, state) in enumerate(expected):
        assert _bits(got[r]) == _bits(values), r
        assert int(s.hi[r]) << 64 | int(s.lo[r]) == state, r


def test_one_streams_follows_each_marginals_tuple_it_is_given():
    # Two draws on one Streams with different marginals, some rows forced off
    # the fast path at their first normal: a layout or slow-path Generator
    # kept from the first call must not shape the second.
    wi, ki = streams.normal_tables()
    first = tuple(DistributionSpec.from_dict({"marginals": {
        "c": {"kind": "uniform", "lo": -1.5, "hi": 2.5},
        "P": {"kind": "normal", "mean": 10.0, "sd": 3.0},
        "E_s": {"kind": "point", "value": 3},
        "rho_s": {"kind": "normal", "mean": -0.25, "sd": 1e-3}}}).marginals.values())
    second = tuple(DistributionSpec.from_dict({"marginals": {
        "psi_b": {"kind": "normal", "mean": 0.5, "sd": 2.0},
        "I_p": {"kind": "uniform", "lo": 4, "hi": 7.25},
        "pi_s": {"kind": "normal", "mean": 1e6, "sd": 0.125},
        "U_ip": {"kind": "point", "value": -2.0},
        "P_s": {"kind": "uniform", "lo": 0.0, "hi": 1e-9}}}).marginals.values())
    n = 9
    s = streams.Streams(77, 40, 40 + n)
    rows = np.array([0, 2, 3, 5, 6, 8])
    for marginals, normal_at, layers in [(first, 1, (1, 2, 0)), (second, 0, (255, 1, 3))]:
        expected = []
        for k, r in enumerate(rows.tolist()):
            inc = int(s.inc_hi[r]) << 64 | int(s.inc_lo[r])
            state = int(s.hi[r]) << 64 | int(s.lo[r])
            if k % 2 == 0:  # the row's first normal sits just off its layer's fast path
                layer = layers[k // 2]
                u = int(ki[layer]) << 9 | (k // 2 % 2) << 8 | layer
                assert not streams._fast_path(np.array([u], dtype=np.uint64), wi, ki)[1][0]
                state = _state_with_output(u, inc)
                for _ in range(normal_at):  # the outputs before the first normal
                    state = (state - inc) * pow(PCG64_MULT, -1, 1 << 128) & MASK128
                s.hi[r], s.lo[r] = state >> 64, state & MASK64
            bits = np.random.PCG64(0)
            bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                          "state": {"state": state, "inc": inc}}
            rng = np.random.Generator(bits)
            expected.append(([_oracle_value(m, rng) for m in marginals],
                             bits.state["state"]["state"]))
        got = s.draw(marginals, rows)
        assert got.shape == (len(rows), len(marginals))
        for k, (values, state) in enumerate(expected):
            r = int(rows[k])
            assert _bits(got[k]) == _bits(values), (len(marginals), r)
            assert int(s.hi[r]) << 64 | int(s.lo[r]) == state, (len(marginals), r)


def test_probed_tables_give_standard_normal_on_a_million_outputs():
    # One stream's outputs, and the normals a Generator draws from the same
    # stream. A normal whose first output the tables put on the fast path
    # must use that output alone and give its fast-path value; every other
    # one must use more. Where a normal leaves the fast path, a PCG64 at its
    # first output measures how many outputs the Generator used.
    wi, ki = streams.normal_tables()
    n, seed = 1_000_000, 20260101
    raw = np.random.PCG64(seed).random_raw(n + n // 10)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    value, fast = streams._fast_path(raw, wi, ki)
    slow_at = np.append(np.flatnonzero(~fast), len(raw))
    starts = np.empty(n, dtype=np.int64)
    bits, at = np.random.PCG64(seed), 0
    gen = np.random.Generator(bits)
    k = p = 0
    while True:
        q = int(slow_at[np.searchsorted(slow_at, p)])
        run = min(q - p, n - k)
        starts[k:k + run] = np.arange(p, p + run)
        k, p = k + run, p + run
        if k == n:
            break
        bits.advance(p - at)
        probe = np.random.PCG64(0)
        probe.state = bits.state
        assert gen.standard_normal() == z[k], k
        used, after = 1, bits.state["state"]["state"]
        probe.advance(1)
        while probe.state["state"]["state"] != after:
            probe.advance(1)
            used += 1
        assert used > 1, k
        starts[k], at = p, p + used
        k, p = k + 1, p + used
    on_path = fast[starts]
    assert on_path.sum() > 0.98 * n
    assert _bits(z[on_path]) == _bits(value[starts[on_path]])


# --- tables -----------------------------------------------------------------------

@pytest.fixture
def fresh_tables():
    streams.normal_tables.cache_clear()
    yield
    streams.normal_tables.cache_clear()


def test_a_failed_probe_sends_every_normal_through_the_generator(fresh_tables, monkeypatch):
    # the tables predict nothing numpy does, as if its normal had changed
    monkeypatch.setattr(streams, "_fast_path",
                        lambda u, wi, ki: (np.zeros(len(u)), np.ones(len(u), dtype=bool)))
    assert streams.normal_tables() is None
    assert wide_sweep_golden() == (GOLDEN_DIR / "sweep_wide.json").read_text(encoding="utf-8")


def test_a_sweep_without_normals_never_builds_the_tables(fresh_tables):
    base, wide = wide_sweep_case()
    uniforms = {name: m.to_dict() for name, m in wide.marginals.items() if m.kind != "normal"}
    assert len(uniforms) < len(wide.marginals)
    dist = DistributionSpec.from_dict({"marginals": uniforms})
    run_sweep(base, dist, n=64, seed=3, cfg=RunConfig())
    draw_scenario(base, dist, 3, 5)
    assert streams.normal_tables.cache_info().misses == 0


# --- validation -------------------------------------------------------------------

def test_links_are_walked_once_per_block_whatever_the_rounds(monkeypatch):
    # rho_s ~ U(0.5, 1.5) leaves its domain in half the candidates, so a
    # block of 64 takes several rounds of redraws; I_o moves by up to about
    # the consistency tolerance, so its links stay and are checked every round.
    # The walk runs once per base instance and swept set, whatever the blocks.
    base = scenario_from_dict(fixture_dict("rounds"))
    dist = DistributionSpec.from_dict({"marginals": {
        "rho_s": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
        "u_hat": {"kind": "normal", "mean": 0.5, "sd": 0.1},
        "I_o": {"kind": "uniform", "lo": 8.0 - 1e-8, "hi": 8.0 + 1e-8}}})
    assert not any({"rho_s", "u_hat"} & {r.driven, *split_driver(r.driver)}
                   for r in base.responses)
    visits = []
    walk = model._check_responses

    def counted(s, bad, *args):
        visits.append(len(s.responses))
        return walk(s, bad, *args)

    monkeypatch.setattr(model, "_check_responses", counted)
    ev = batch.evaluate(base, dist, 7, 0, 64, RunConfig())
    assert int(ev.rejections.max()) >= 3
    assert visits == [len(base.responses)]
    base = scenario_from_dict(fixture_dict("rounds"))  # loading walks the links too
    visits.clear()
    X, _, rejections = batch.draw(base, dist, 7, 0, 64)
    assert visits == [len(base.responses)]
    for r in range(64):
        scenario, rejected = _oracle_draw(base, dist, 7, r)
        assert _bits(X[r]) == _bits(scenario.values), r
        assert int(rejections[r]) == rejected, r
    base = scenario_from_dict(fixture_dict("rounds"))
    visits.clear()
    run_sweep(base, dist, n=batch.ROWS + 5, seed=7, cfg=RunConfig())
    assert visits == [len(base.responses)]
    visits.clear()
    run_sweep(base, dist, n=batch.ROWS + 5, seed=7, cfg=RunConfig())
    assert visits == []


@settings(max_examples=300, deadline=None)
@given(_block_case())
def test_split_block_check_equals_row_check(case):
    # as a sweep checks: the checks no draw changes once on the base, the
    # rest on the block, with the I(B_b) links, overlays, non-finite values
    # and bound and identity edges of the one-walk property
    base, X, varying = case
    expected = [validate_scenario(with_values(base, {name: row[SYMBOLS[name]]
                                                    for name in varying})).ok
                for row in X.tolist()]
    fixed = []
    check = model.check_fixed(base, set(varying), lambda code, when, *args: fixed.append(when))
    assert not any(fixed)
    with np.errstate(all="ignore"):
        got = batch._valid_rows(batch.block(base, X, varying), len(X), check)
    assert got.tolist() == expected


@pytest.mark.parametrize("rows, codes", [
    # overlay E_p sets I and I_i, so its identity reads the swept I_p: moving
    # I_p and I_i together keeps the base identity and breaks E_p's
    ([{"I_p": 2.0, "I_i": 4.95}, {"I_p": 2.5, "I_i": 4.45}, {"I_p": 1.5, "I_i": 5.45}],
     [(), ("InformationIdentity",), ("InformationIdentity",)]),
    # B_b moves along the link I(B_b), which is straight away from its kink at 0.3
    ([{"B_b": 0.3, "I": 6.95, "I_i": 4.95}, {"B_b": 0.25, "I": 6.9, "I_i": 4.9},
      {"B_b": 0.38, "I": 7.11, "I_i": 5.11}],
     [(), ("InformationMonotonicity",), ("InformationMonotonicity",)]),
])
def test_checks_that_read_a_swept_symbol_run_per_draw(rows, codes):
    base = _BLOCK_BASES[1]
    assert [validate_scenario(with_values(base, row)).codes() for row in rows] == codes
    X = np.tile(np.array(base.values), (len(rows), 1))
    for r, row in enumerate(rows):
        for name, v in row.items():
            X[r, SYMBOLS[name]] = v
    check = model.check_fixed(base, set(rows[0]), lambda *args: None)
    got = batch._valid_rows(batch.block(base, X, rows[0]), len(rows), check)
    assert got.tolist() == [not c for c in codes]


def test_a_check_no_draw_changes_fails_once_on_the_base():
    base = _BLOCK_BASES[1]
    for swept in ({"rho_s"}, {"I", "B_b"}, set(SYMBOLS)):
        fixed = []
        model.check_fixed(_duplicated_link(base), swept,
                          lambda code, when, *args: fixed.append((code, when)))
        assert [code for code, when in fixed if when] == ["ResponseDuplicate"], swept


def test_draw_scenario_and_sample_scenarios_are_blocks_of_the_same_streams():
    data = fixture_dict("bare")
    data["responses"] = []
    base = scenario_from_dict(data)
    dist = DistributionSpec.from_dict({"marginals": {
        "rho_s": {"kind": "normal", "mean": 0.9, "sd": 0.2},
        "I_p": {"kind": "uniform", "lo": 1.5, "hi": 2.5}}})
    expected = [_oracle_draw(base, dist, 11, i) for i in range(8)]
    sample, rejections = sample_scenarios(base, dist, 8, 11)
    assert rejections == sum(rej for _, rej in expected) > 0
    for i, (scenario, rejected) in enumerate(expected):
        assert _bits(sample[i].values) == _bits(scenario.values)
        one, one_rejected = draw_scenario(base, dist, 11, i)
        assert _bits(one.values) == _bits(scenario.values)
        assert one_rejected == rejected
