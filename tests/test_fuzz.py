"""The CLI over its accepted input space: every call ends in 0, 2 or 3 within 2 s.

Scenario, config, bounds and distribution files are drawn around what their
parsers check: numbers that are subnormal, huge, negative, non-finite, bools
or integers too long for a float; fixed (lo == hi) and free widths; every
optional field present or not. A call that exits 4 is an internal error, a
fault of the program and never of its inputs.
"""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dismed.cli import main
from dismed.conditions import ALL_CONDITION_IDS
from dismed.config import (AGGREGATION_MODES, GUARD_MODES, INTERSECTION_MODES, OUTPUT_FORMATS,
                           RunConfig)
from dismed.model import DECISION_FIELDS, STATE_NAMES, SYMBOLS
from dismed.simulate import Marginal

FIXTURES_DIR = Path(__file__).parent / "fixtures"
_SCENARIOS = ("all_three_satisfied.json", "broker_opt.json", "broker_retained.json",
              "all_satisfied_seller.json")
_BASES = {name: json.loads((FIXTURES_DIR / name).read_text(encoding="utf-8"))
          for name in _SCENARIOS}
_SYMBOL_NAMES = st.sampled_from(sorted(SYMBOLS))

# Magnitudes the parsers and the model's checks draw lines at.
_EDGES = (0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 0.5, 1,
          -1, 2.5, 1e12, 1e300, -1e300, 1e308, -1e308, 1.7976931348623157e308,
          math.inf, -math.inf, math.nan, 10 ** 400)
_NUMBERS = st.one_of(st.floats(-10, 10), st.integers(-10, 10), st.sampled_from(_EDGES),
                     st.floats())
_VALUES = st.one_of(_NUMBERS, st.sampled_from((True, None, "1")))


def _optional(**fields):
    """A dict holding any subset of ``fields``, each drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=fields)


_RESPONSE = st.builds(
    lambda driven, driver, shape, context: {"driven": driven, "driver": driver,
                                            **shape, **context},
    _SYMBOL_NAMES,
    st.one_of(_SYMBOL_NAMES, st.lists(_SYMBOL_NAMES, min_size=2, max_size=3).map("+".join)),
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("polynomial"),
                               "coeffs": st.lists(_NUMBERS, max_size=4)}),
        st.fixed_dictionaries({"kind": st.just("piecewise_linear"),
                               "knots": st.lists(st.lists(_NUMBERS, min_size=2, max_size=2),
                                                 max_size=3)})),
    _optional(context=st.sampled_from(("base", *STATE_NAMES, "E_x"))))

_TIME_PATH = st.one_of(
    st.fixed_dictionaries({"symbol": _SYMBOL_NAMES, "kind": st.just("constant"),
                           "value": _NUMBERS}),
    st.fixed_dictionaries({"symbol": _SYMBOL_NAMES, "kind": st.just("linear"),
                           "v0": _NUMBERS, "slope": _NUMBERS}),
    st.fixed_dictionaries({"symbol": _SYMBOL_NAMES, "kind": st.just("samples"),
                           "times": st.lists(_NUMBERS, max_size=3),
                           "values": st.lists(_NUMBERS, max_size=3)}))


@st.composite
def _scenarios(draw):
    """A fixture scenario, changed in any subset of its symbol values, its
    responses and its optional fields."""
    data = dict(_BASES[draw(st.sampled_from(_SCENARIOS))])
    changes = draw(st.sets(st.sampled_from(("values", "drop", "add", "optional"))))
    if "values" in changes:
        data.update(draw(st.dictionaries(_SYMBOL_NAMES, _VALUES, min_size=1, max_size=2)))
    if "drop" in changes and data.get("responses"):
        responses = data["responses"]
        kept = draw(st.lists(st.sampled_from(range(len(responses))), unique=True))
        data["responses"] = [responses[k] for k in sorted(kept)]
    if "add" in changes:
        data["responses"] = [*data.get("responses", []), draw(_RESPONSE)]
    if "optional" in changes:
        data.update(draw(_optional(
            label=st.one_of(st.text(max_size=3), st.integers()),
            prospect_count=st.one_of(st.integers(-2, 5), st.sampled_from((10 ** 30, 1.0, True))),
            valued_time_share=_VALUES,
            overlays=st.dictionaries(st.sampled_from((*STATE_NAMES, "E_x")),
                                     st.dictionaries(_SYMBOL_NAMES, _NUMBERS, max_size=2),
                                     max_size=2),
            time_paths=st.lists(_TIME_PATH, max_size=2))))
    return data


# A config field takes a value of its annotated kind, one of its allowed
# choices where the config names them, or a value of another kind.
_CHOICES = {"aggregation": AGGREGATION_MODES, "intersection": INTERSECTION_MODES,
            "guard_mode": GUARD_MODES, "output_format": OUTPUT_FORMATS,
            "w5_driver": tuple(sorted(SYMBOLS))}
_KINDS = {"float": _NUMBERS, "bool": st.booleans(), "str": st.text(max_size=2)}
_CONFIGS = _optional(**{
    name: st.one_of(st.sampled_from(_CHOICES[name]) if name in _CHOICES else _KINDS[kind],
                    _VALUES)
    for name, kind in RunConfig.__annotations__.items()})


@st.composite
def _bounds(draw):
    out = {}
    for name in DECISION_FIELDS:
        width = draw(st.sampled_from(("fixed", "free", "any")))
        if width == "free":  # widths within a factor of 4 of each other
            lo = draw(st.one_of(st.floats(0, 1), st.sampled_from((5e-324, -1e300, 1e308))))
            out[name] = [lo, lo + draw(st.floats(0.5, 2))]
        else:
            lo = draw(st.one_of(st.floats(0, 1), _NUMBERS))
            out[name] = [lo, lo] if width == "fixed" else [lo, draw(_NUMBERS)]
    return out


_MARGINALS = st.sampled_from(sorted(Marginal._kinds)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), **{p: _NUMBERS for p in Marginal._kinds[kind]}}))
_DISTRIBUTIONS = _optional(marginals=st.dictionaries(_SYMBOL_NAMES, _MARGINALS, max_size=2))

_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(("validate", "decide"))),
    st.tuples(st.just("conditions"), st.just("--set"),
              st.sampled_from(("buyer", "broker", "seller"))),
    st.tuples(st.just("optimize"), st.just("--bounds"), _bounds()),
    st.tuples(st.just("pareto"), st.just("--bounds"), _bounds(), st.just("--points"),
              st.integers(2, 6).map(str)),
    st.tuples(st.just("sweep"), st.just("--dist"), _DISTRIBUTIONS, st.just("-n"),
              st.integers(1, 8).map(str), st.just("--seed"),
              st.sampled_from(("0", "7", str(2 ** 64)))),
    st.tuples(st.just("sensitivity"), st.just("--condition"),
              st.sampled_from([cid.label for cid in ALL_CONDITION_IDS]), st.just("--param"),
              _SYMBOL_NAMES, st.just("--rel-step"), st.sampled_from(("0.05", "0.25")))).map(list)

# Every start of this box scores -inf: RC_br(B_i) = -4.25 + 5 B_i - B_i^2
# overflows on broker_opt.json.
_MINUS_INF_BOX = {"B_b": [0, 0], "B_s": [0, 0], "B_i": [-1e308, -1e308], "B_n": [0, 0]}


def _call(argv: list, scenario: dict, config) -> tuple[int, float]:
    """``main``'s exit code and wall time, each JSON argument written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        def file(name, value) -> str:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(value))
            return str(path)

        args = [argv[0], file("scenario", scenario)]
        args += [file(k, a) if isinstance(a, dict) else a for k, a in enumerate(argv[1:])]
        if config is not None:
            args += ["--config", file("config", config)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = main(args)
            elapsed = time.perf_counter() - start
    return code, elapsed


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_COMMANDS, _scenarios(), st.one_of(st.none(), _CONFIGS))
@example(["optimize", "--bounds", _MINUS_INF_BOX], _BASES["broker_opt.json"], None)
@example(["pareto", "--bounds", _MINUS_INF_BOX], _BASES["broker_opt.json"], None)
def test_every_call_exits_0_2_or_3_within_2_s(argv, scenario, config):
    code, elapsed = _call(argv, scenario, config)
    assert code in (0, 2, 3), argv
    assert elapsed < 2.0, (argv, elapsed)
