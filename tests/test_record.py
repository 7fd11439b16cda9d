"""Engine records behave as the frozen dataclasses they replaced.

Each record is checked against a frozen dataclass twin with the same fields
and values: equality and hash agree, a record never equals another type with
the same values, the repr has the same text, fields cannot be assigned, and
a pickle round trip gives an equal record.
"""

import dataclasses
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from dismed import batch, calculus, conditions, config, model, optimizer, simulate
from dismed.conditions import ALL_CONDITION_IDS, build_form, decide
from dismed.config import RunConfig
from dismed.io import load_scenario, scenario_from_dict
from dismed.model import validate_scenario, with_values
from dismed.record import Record

from conftest import FIXTURES_DIR
from fixture_defs import fixture_dict


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORD_CLASSES = sorted((c for c in _subclasses(Record) if c._fields),
                        key=lambda c: (c.__module__, c.__qualname__))


def _walk(node):
    yield node
    if isinstance(node, Record):
        for value in node._values():
            items = value.values() if isinstance(value, dict) else value
            for item in items if isinstance(value, (dict, tuple)) else (value,):
                yield from _walk(item)


def _samples() -> dict:
    """One or more instances of every record class, from real runs."""
    cfg = RunConfig()
    base = load_scenario(FIXTURES_DIR / "all_three_satisfied.json")
    broker = load_scenario(FIXTURES_DIR / "broker_opt.json")
    bounds = optimizer.Bounds.from_dict(json.loads((FIXTURES_DIR / "bounds_bi.json").read_text()))
    dist = simulate.DistributionSpec.from_dict(
        json.loads((FIXTURES_DIR / "rho_dist.json").read_text()))
    summary = decide(base, cfg)
    paths = scenario_from_dict({**fixture_dict("paths"), "time_paths": [
        {"symbol": "rho_s", "kind": "samples", "times": [0.0, 1.0], "values": [0.7, 0.7]},
        {"symbol": "rho_p", "kind": "linear", "v0": 0.6, "slope": 0.0},
        {"symbol": "rho_i", "kind": "constant", "value": 0.4},
    ]})
    roots = [
        base, paths, cfg, summary, *summary.reports.values(), dist, bounds,
        optimizer.OptimizerConfig(),
        *base.responses, *paths.time_paths,
        *(build_form(cid, cfg) for cid in ALL_CONDITION_IDS),
        validate_scenario(with_values(base, {"c": -1.0})),
        optimizer.optimize_broker(broker, bounds),
        *optimizer.pareto_sweep(broker, bounds, 2),
        simulate.run_sweep(base, dist, 4, seed=1, cfg=cfg),
        simulate.sensitivity(base, ALL_CONDITION_IDS[4], "psi_b", cfg=cfg),
        batch.evaluate(base, dist, 1, 0, 3, cfg),
    ]
    found = {}
    for root in roots:
        for node in _walk(root):
            if isinstance(node, Record):
                found.setdefault(type(node), []).append(node)
    return found


SAMPLES = _samples()


def _outcome(fn):
    """``fn()``'s value, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the twin must fail the same way
        return type(exc)


def _twin(record):
    twin = dataclasses.make_dataclass(type(record).__name__,
                                      [(n, object) for n in record._fields], frozen=True)
    return twin(*record._values())


def test_every_engine_module_defines_its_records_here():
    modules = {c.__module__ for c in RECORD_CLASSES}
    assert modules == {m.__name__ for m in (batch, calculus, conditions, config, model,
                                            optimizer, simulate)}
    assert len(RECORD_CLASSES) == 35


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
def test_record_behaves_as_its_frozen_dataclass(cls):
    assert cls in SAMPLES, f"no sample of {cls.__qualname__}"
    for record in SAMPLES[cls][:50]:
        twin = _twin(record)
        assert repr(record) == repr(twin)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        assert _outcome(lambda: record == type(record)(*record._values())) \
            == _outcome(lambda: twin == type(twin)(*record._values()))
        assert record != twin and twin != record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[-1])
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and repr(back) == repr(record)
        if cls is not batch.Evaluation:  # its fields are arrays, which == does not reduce
            assert back == record
            assert _outcome(lambda: hash(back)) == _outcome(lambda: hash(record))
        else:
            assert all(np.array_equal(a, b) for a, b in zip(back._values(), record._values()))


def test_default_factories_are_not_shared():
    cset = conditions.ConditionSet.BUYER
    a, b = (conditions.ConditionReport("x", cset, (), conditions.SetDecision.SATISFIED)
            for _ in range(2))
    assert a.config == {} and a.config is not b.config
    assert simulate.DistributionSpec().marginals is not simulate.DistributionSpec().marginals


def test_defaults_replace_and_constructor_errors():
    cfg = RunConfig(rel_tol=0.1)
    assert cfg == RunConfig().replace(rel_tol=0.1)
    assert cfg.zero_tol == RunConfig().zero_tol
    with pytest.raises(TypeError):
        RunConfig(no_such_field=1)
    with pytest.raises(TypeError):
        RunConfig(0.1, rel_tol=0.1)
    with pytest.raises(TypeError):
        calculus.Sym()
    with pytest.raises(TypeError):
        calculus.Sym("a", "b")
    with pytest.raises(config.ParseError):  # replace checks the copy anew
        cfg.replace(quorum=2.0)
    report = SAMPLES[conditions.ConditionReport][0]  # its to_dict is its payload's
    assert report.replace() == report and report.replace(config={}).config == {}


def test_dataclasses_replace_still_copies_a_scenario():
    """``perfbench/inputs.py`` copies its sweep base with ``dataclasses.replace``."""
    base = SAMPLES[model.Scenario][0]
    kept = base.responses[:1]
    copy = dataclasses.replace(base, label="sweep_base", responses=kept)
    assert type(copy) is model.Scenario
    assert copy == base.replace(label="sweep_base", responses=kept)
    assert (copy.label, copy.responses, copy.values) == ("sweep_base", kept, base.values)
    assert dataclasses.replace(base) == base
    assert dataclasses.is_dataclass(base) and dataclasses.is_dataclass(model.Scenario)
    fields = dataclasses.fields(base)
    assert tuple(f.name for f in fields) == model.Scenario._fields
    assert fields == dataclasses.fields(model.Scenario)
    assert {f.name: f.default_factory() for f in fields
            if f.default_factory is not dataclasses.MISSING} == {"overlays": {}}
    assert model.Scenario(base.values).overlays == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.label = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del base.values
    with pytest.raises(TypeError):
        dataclasses.replace(base, no_such_field=1)


# ``sys.modules`` is read before the probe imports dataclasses itself.
_STRUCTURE = """
import contextlib, io, json, sys
from dismed.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["decide", sys.argv[1]]) == 0
loaded = [m for m in ("numpy", "csv", "dataclasses", "inspect") if m in sys.modules]
import dataclasses
print(json.dumps({
    "dataclasses": sorted(name for module, m in list(sys.modules.items())
                          if module.startswith("dismed")
                          for name, obj in vars(m).items()
                          if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                          and obj.__module__ == module),
    "loaded": loaded,
}))
"""


def test_a_cold_decide_defines_one_dataclass_and_loads_no_numpy_or_csv():
    """``Scenario`` answers as a dataclass, but nothing a cold ``decide`` runs
    imports ``dataclasses``, or ``inspect`` through it."""
    scenario = str(FIXTURES_DIR / "all_three_satisfied.json")
    done = subprocess.run([sys.executable, "-c", _STRUCTURE, scenario],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"dataclasses": ["Scenario"], "loaded": []}
