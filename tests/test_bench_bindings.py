"""The benchmark's tracer must still find every binding it wraps.

``perfbench/tracing.py`` replaces module attributes by name for
``perfbench/run.py --trace 1``; a refactor that renames or stops calling one
of them would silently zero a layer. The tracer is imported read-only.
"""

import importlib
import sys
from pathlib import Path

import dismed.conditions
from dismed import RunConfig
from dismed.io import load_scenario

from conftest import FIXTURES_DIR

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def test_every_traced_binding_resolves():
    for module_name, attr, name in tracing.SPANNED + tracing.COUNTED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr, name)


def test_decide_is_traced_through_its_bindings():
    scenario = load_scenario(FIXTURES_DIR / "all_three_satisfied.json")
    cfg = RunConfig(rel_tol=0.0625)  # a config no other test compiles
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # called through the module binding, as the benchmark's workloads do
        dismed.conditions.decide(scenario, cfg)
        dismed.conditions.decide(scenario, cfg)
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    assert layers["conditions.decide"]["calls"] == 2
    assert layers["conditions.eval_condition"]["calls"] == 88
    assert layers["conditions.build_form"]["calls"] == 44  # compiled once
    assert tracer.counts["model.eval_response"] > 0
