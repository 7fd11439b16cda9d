"""Compiled condition tables never leak between run configs.

Each config's payload, computed while other configs' compiled tables are
cached in the same process, must equal the payload of a fresh process that
has only ever seen that config, or the pinned golden bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dismed
from dismed import RunConfig, decide
from dismed.cli import render_report
from dismed.io import load_scenario

from conftest import FIXTURES_DIR
from test_golden import CONFIGS, GOLDEN_DIR

SCENARIO = FIXTURES_DIR / "all_three_satisfied.json"

# Pairs differ in one field. rel_tol 1 and 1.0 (and zero_tol 0.0 and -0.0)
# compare equal but print differently in the notes.
PAIRS = (
    ({"rel_tol": 0.05}, {"rel_tol": 0.2}),
    ({"rel_tol": 1}, {"rel_tol": 1.0}),
    ({"w5_driver": "B_b"}, {"w5_driver": "B_s"}),
    ({"intersection": "product"}, {"intersection": "min"}),
    ({"zero_tol": 0.0}, {"zero_tol": -0.0}),
)

_FRESH = """
import json, os, sys
from dismed import RunConfig, decide
from dismed.cli import render_report
from dismed.io import load_scenario
cfg = RunConfig(**json.loads(sys.argv[1]))
render_report(decide(load_scenario(sys.argv[2]), cfg), "json", sys.argv[3])
"""


def _fresh_payload(overrides: dict, out: Path) -> str:
    src = str(Path(dismed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", _FRESH, json.dumps(overrides), str(SCENARIO), str(out)],
                   check=True, env=env)
    return out.read_text(encoding="utf-8")


def test_interleaved_configs_match_fresh_processes(tmp_path):
    configs = [c for pair in PAIRS for c in pair]
    expected = [_fresh_payload(c, tmp_path / f"{i}.json") for i, c in enumerate(configs)]
    for i in range(0, len(configs), 2):
        assert expected[i] != expected[i + 1], configs[i:i + 2]

    # the golden configs ride along, checked against their pinned bytes
    for name, overrides in CONFIGS.items():
        configs.append(overrides)
        expected.append((GOLDEN_DIR / "decide" / f"{SCENARIO.stem}.{name}.json")
                        .read_text(encoding="utf-8"))

    scenario = load_scenario(SCENARIO)
    cases = list(zip(configs, expected))  # pair members sit next to each other
    for sequence in (cases, cases[::-1], cases):
        for overrides, want in sequence:
            got = render_report(decide(scenario, RunConfig(**overrides)), "json", os.devnull)
            assert got == want, overrides
