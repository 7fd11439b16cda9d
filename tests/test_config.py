"""RunConfig field checks: every malformed field is a ParseError. A config
instance compiles its conditions once, for itself only."""

import ast
import json
import math
import pickle
from pathlib import Path

import pytest

import dismed.conditions
from dismed import ParseError, RunConfig
from dismed.conditions import ConditionId
from dismed.config import MAX_HORIZON_NODES
from dismed.simulate import DistributionSpec, run_sweep, sensitivity

from conftest import FIXTURES_DIR


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan),
    ("rel_tol", "0.1"),
    ("rel_tol", True),
    ("zero_tol", math.nan),
    ("fd_step_scale", math.nan),
    ("fd_step_scale", math.inf),
    ("quorum", None),
    ("horizon_T", math.inf),
    ("horizon_dt", -math.inf),
    ("aggregation", 1),
    ("w5_driver", None),
    ("output_format", b"json"),
    ("b1_guard_joint", 1),
    ("quorum_violations_block", "false"),
    ("seller_uses_U_sa", None),
])
def test_mistyped_or_non_finite_field_is_parse_error(field, value):
    with pytest.raises(ParseError, match=field):
        RunConfig(**{field: value})
    with pytest.raises(ParseError, match=field):
        RunConfig.from_dict({field: value})


@pytest.mark.parametrize("horizon", [
    {"horizon_dt": 1e-9},
    {"horizon_T": 1e6, "horizon_dt": 1.0},
    {"horizon_T": 100_000.0, "horizon_dt": 0.5},
])
def test_horizon_node_count_is_capped(horizon):
    assert horizon.get("horizon_T", 1.0) / horizon["horizon_dt"] > MAX_HORIZON_NODES
    with pytest.raises(ParseError, match="horizon"):
        RunConfig(**horizon)
    with pytest.raises(ParseError, match="horizon"):
        RunConfig.from_dict(horizon)


@pytest.mark.parametrize("horizon", [
    {},                                                   # the golden default: dt 0.125
    {"horizon_T": 2.0, "horizon_dt": 0.25},               # the golden "steps" config
    {"horizon_T": 100_000.0, "horizon_dt": 1.0},          # exactly at the cap
])
def test_horizons_up_to_the_cap_are_accepted(horizon):
    cfg = RunConfig.from_dict(horizon)
    assert cfg.horizon_T / cfg.horizon_dt <= MAX_HORIZON_NODES


def test_each_config_instance_compiles_its_conditions_once(base_scenario, monkeypatch):
    calls = []
    build_form = dismed.conditions.build_form

    def counted(cid, cfg):
        calls.append(cfg)
        return build_form(cid, cfg)

    # counted through the module binding, as the benchmark's tracer counts it
    monkeypatch.setattr(dismed.conditions, "build_form", counted)
    dist = DistributionSpec.from_dict(json.loads((FIXTURES_DIR / "rho_dist.json").read_text()))
    cfg = RunConfig(rel_tol=0.03125)  # a config no other test builds
    dismed.conditions.decide(base_scenario, cfg)
    run_sweep(base_scenario, dist, 5, seed=3, cfg=cfg, workers=1)
    sensitivity(base_scenario, ConditionId.parse("B5"), "psi_b", cfg=cfg)
    assert len(calls) == 44 and all(c is cfg for c in calls)

    # an equal instance keeps a table of its own
    twin = RunConfig(rel_tol=0.03125)
    assert twin == cfg and hash(twin) == hash(cfg)
    dismed.conditions.decide(base_scenario, twin)
    assert len(calls) == 88 and all(c is twin for c in calls[44:])
    assert twin.compiled is not cfg.compiled

    # the table is no field: payloads, repr and pickling see the 14 fields only
    assert len(cfg.to_dict()) == 14
    assert repr(cfg) == repr(RunConfig(rel_tol=0.03125))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and "compiled" not in vars(copy)


def test_no_module_global_cache_but_the_normal_tables():
    # streams.normal_tables probes the installed numpy once per process
    found = []
    for path in sorted(Path(dismed.conditions.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else \
                        getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        found.append((path.stem, node.name))
    assert found == [("streams", "normal_tables")]
