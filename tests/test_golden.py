"""Golden outputs: payload bytes pinned so that engine refactors cannot move them.

The files under ``tests/golden/`` hold:

* ``decide/<fixture>.<config>.json``: the ``render_report(decide(...), "json")``
  text for the four ``all_*`` fixtures under three configs;
* ``sweep_acceptance6.json``: the acceptance-6 sweep payload
  (``json.dumps(run_sweep(...).to_dict())``);
* ``sweep_wide.json``: sweep payloads over 13 marginals in every symbol group
  (with rejections, a derived ``I`` and listing-state overlays that the moving
  ``E_m`` switches between), one per config in ``WIDE_CONFIGS``;
* ``decide_digests.txt``: one sha256 per ``decide`` payload over 200 seeded
  ``random_scenario`` / ``drop_responses`` scenarios, plus a few time-path
  scenarios (an evaluation that raises is pinned by its exception text);
* ``optimize/<case>.optimize.json`` and ``optimize/<case>.pareto.json``: the
  ``optimize`` and ``pareto --points 5`` JSON payloads, under the CLI's
  default ``OptimizerConfig``, for ``broker_opt.json`` with ``bounds_bi.json``
  and for a few ``random_opt_instance`` seeds;
* ``render/<result>.json`` and ``render/<result>.csv``: what
  ``render_report`` writes in each format for every result in
  ``test_render.RESULTS``, one per subcommand and its edge cases.

Regenerate them only when a payload change is intended, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from dismed import RunConfig, decide, run_sweep  # noqa: E402
from dismed.cli import render_report  # noqa: E402
from dismed.io import load_scenario, scenario_from_dict  # noqa: E402
from dismed.model import split_driver  # noqa: E402
from dismed.simulate import DistributionSpec  # noqa: E402

from fixture_defs import fixture_dict  # noqa: E402
from scen_gen import drop_responses, random_opt_instance, random_scenario  # noqa: E402

GOLDEN_DIR = TESTS_DIR / "golden"
FIXTURES_DIR = TESTS_DIR / "fixtures"

FIXTURES = ("all_satisfied_buyer", "all_satisfied_seller",
            "all_satisfied_broker_web", "all_three_satisfied")

CONFIGS = {
    "default": {},
    "min_skip_joint": {"intersection": "min", "guard_mode": "skip",
                       "b1_guard_joint": True},
    "usa_wbs": {"seller_uses_U_sa": True, "w5_driver": "B_s"},
}

# The digest corpus also varies the step scale, the horizon and the guard mode.
DIGEST_CONFIGS = dict(CONFIGS, steps={"fd_step_scale": 2e-3, "horizon_T": 2.0,
                                      "horizon_dt": 0.25, "rel_tol": 0.1,
                                      "guard_mode": "violated"})

DIGEST_SEED = 20261017
DIGEST_PAIRS = 100


def _payload(scenario, cfg: RunConfig) -> str:
    try:
        summary = decide(scenario, cfg)
    except Exception as exc:  # pinned as text: the same input must fail the same way
        return f"error: {type(exc).__name__}: {exc}\n"
    return render_report(summary, "json", os.devnull)


def decide_goldens() -> dict[str, str]:
    out = {}
    for fixture in FIXTURES:
        scenario = load_scenario(FIXTURES_DIR / f"{fixture}.json")
        for name, overrides in CONFIGS.items():
            out[f"{fixture}.{name}.json"] = _payload(scenario, RunConfig(**overrides))
    return out


def sweep_golden() -> str:
    base = load_scenario(FIXTURES_DIR / "all_satisfied_buyer.json")
    dist = DistributionSpec.from_dict(
        {"marginals": {"rho_s": {"kind": "uniform", "lo": 0.35, "hi": 0.85}}})
    stats = run_sweep(base, dist, n=200, seed=424242, cfg=RunConfig(), workers=1)
    return json.dumps(stats.to_dict())


WIDE_MARGINALS = {
    "P_b": {"kind": "normal", "mean": 10.0, "sd": 3.0},
    "c": {"kind": "uniform", "lo": 0.2, "hi": 1.05},
    "B_n": {"kind": "uniform", "lo": 0.1, "hi": 0.4},
    "I_p": {"kind": "uniform", "lo": 1.5, "hi": 2.5},
    "I_o": {"kind": "uniform", "lo": 4.0, "hi": 9.0},
    "psi_b": {"kind": "uniform", "lo": 4.7, "hi": 5.2},
    "psi_s": {"kind": "uniform", "lo": 1.5, "hi": 2.5},
    "U_sa": {"kind": "normal", "mean": 1.1, "sd": 0.3},
    "pi_i": {"kind": "uniform", "lo": 0.3, "hi": 0.8},
    "E_m": {"kind": "uniform", "lo": -0.5, "hi": 2.5},
    "rho_s": {"kind": "normal", "mean": 0.75, "sd": 0.15},
    "u_hat": {"kind": "uniform", "lo": 0.3, "hi": 0.9},
    "SC_s": {"kind": "normal", "mean": 25.0, "sd": 5.0},
}
WIDE_OVERLAYS = {
    "E_s": {"P_s": 10.4, "U_iw": 1.9, "psi_s": 1.85},
    "E_p": {"P_s": 9.0, "psi_b": 4.8, "rho_p": 0.55, "U_ip": 3.5},
    "E_m": {"P_s": 9.9, "c": 0.25, "I": 9.0, "I_p": 1.0, "I_i": 8.0, "U_iw": 1.5},
}
WIDE_CONFIGS = {
    "default": {},
    "min_skip_joint": CONFIGS["min_skip_joint"],
    "quorum": json.loads((FIXTURES_DIR / "config_quorum.json").read_text(encoding="utf-8")),
}
WIDE_N, WIDE_SEED = 250, 20261018


def wide_sweep_case():
    """Base and distribution of the wide sweep: responses that touch a sampled
    symbol are dropped, so no draw is rejected for moving a response anchor."""
    data = json.loads((FIXTURES_DIR / "all_three_satisfied.json").read_text(encoding="utf-8"))
    data["responses"] = [r for r in data["responses"]
                         if not ({r["driven"], *split_driver(r["driver"])} & WIDE_MARGINALS.keys())]
    data["overlays"] = WIDE_OVERLAYS
    data["label"] = "sweep_wide"
    return scenario_from_dict(data), DistributionSpec.from_dict({"marginals": WIDE_MARGINALS})


def wide_sweep_golden(workers: int = 1) -> str:
    base, dist = wide_sweep_case()
    return json.dumps({name: run_sweep(base, dist, n=WIDE_N, seed=WIDE_SEED,
                                       cfg=RunConfig(**overrides), workers=workers).to_dict()
                       for name, overrides in WIDE_CONFIGS.items()})


def _time_path_scenarios():
    """Fixture variants whose S13 integrals follow declared time paths."""
    paths = {
        "paths_const_linear": [
            {"symbol": "rho_s", "kind": "constant", "value": 0.65},
            {"symbol": "P_s", "kind": "linear", "v0": 9.0, "slope": 1.5}],
        "paths_samples": [
            {"symbol": "P", "kind": "samples", "times": [0.0, 0.3, 0.7, 2.0],
             "values": [10.0, 11.0, 9.5, 12.0]},
            {"symbol": "rho_p", "kind": "linear", "v0": 0.6, "slope": -0.1}],
        "paths_short": [
            {"symbol": "P", "kind": "samples", "times": [0.0, 0.5, 1.0],
             "values": [10.0, 10.5, 11.0]}],
    }
    for label, tps in paths.items():
        data = fixture_dict(label)
        data["time_paths"] = tps
        yield label, scenario_from_dict(data)


def decide_digests() -> list[str]:
    configs = list(DIGEST_CONFIGS.items())
    lines = []

    def add(tag: str, scenario, cfg_name: str) -> None:
        cfg = RunConfig(**DIGEST_CONFIGS[cfg_name])
        digest = hashlib.sha256(_payload(scenario, cfg).encode("utf-8")).hexdigest()
        lines.append(f"{tag} {cfg_name} {digest}")

    for i in range(DIGEST_PAIRS):
        cfg_name = configs[i % len(configs)][0]
        full = random_scenario([DIGEST_SEED, i])
        partial = drop_responses(full, [DIGEST_SEED, 1000 + i],
                                 keep_fraction=0.3 + 0.05 * (i % 10))
        add(f"random-{i}", full, cfg_name)
        add(f"dropped-{i}", partial, cfg_name)
    for label, scenario in _time_path_scenarios():
        for cfg_name in ("default", "steps"):
            add(label, scenario, cfg_name)
    return lines


OPT_SEED, OPT_INSTANCES = 20261019, 5


def optimizer_goldens() -> dict[str, str]:
    """What ``optimize`` and ``pareto --points 5`` render as JSON for each case."""
    from dismed.optimizer import Bounds, OptimizerConfig, optimize_broker, pareto_sweep

    bounds = json.loads((FIXTURES_DIR / "bounds_bi.json").read_text(encoding="utf-8"))
    cases = [("broker_opt.bounds_bi", load_scenario(FIXTURES_DIR / "broker_opt.json"),
              Bounds.from_dict(bounds))]
    for i in range(OPT_INSTANCES):
        scenario, box, _, _, _ = random_opt_instance([OPT_SEED, i], concave=i % 2 == 1)
        cases.append((f"random-{i}", scenario, box))
    out = {}
    for name, scenario, box in cases:
        out[f"{name}.optimize.json"] = render_report(
            optimize_broker(scenario, box, OptimizerConfig()), "json", os.devnull)
        out[f"{name}.pareto.json"] = render_report(
            pareto_sweep(scenario, box, 5, OptimizerConfig()), "json", os.devnull)
    return out


def render_goldens() -> dict[str, str]:
    """Both formats of every result in ``test_render.RESULTS``."""
    from test_render import RESULTS

    out = {}
    for name, make in RESULTS.items():
        result = make(FIXTURES_DIR)
        for fmt in ("json", "csv"):
            out[f"{name}.{fmt}"] = render_report(result, fmt, os.devnull)
    return out


def _first_difference(expected: str, got: str, name: str) -> str:
    diff = difflib.unified_diff(expected.splitlines(), got.splitlines(),
                                f"golden/{name}", "now", lineterm="", n=2)
    return "\n".join(list(diff)[:40])


def test_decide_payloads_match_golden():
    for name, text in decide_goldens().items():
        expected = (GOLDEN_DIR / "decide" / name).read_text(encoding="utf-8")
        assert text == expected, _first_difference(expected, text, name)


def test_sweep_payload_matches_golden():
    expected = (GOLDEN_DIR / "sweep_acceptance6.json").read_text(encoding="utf-8")
    got = sweep_golden()
    assert got == expected, _first_difference(expected, got, "sweep_acceptance6.json")


def test_wide_sweep_payload_matches_golden_across_workers():
    expected = (GOLDEN_DIR / "sweep_wide.json").read_text(encoding="utf-8")
    for workers in (1, 2, 3):
        got = wide_sweep_golden(workers)
        assert got == expected, _first_difference(expected, got, "sweep_wide.json")


def test_decide_digests_match_golden():
    expected = (GOLDEN_DIR / "decide_digests.txt").read_text(encoding="utf-8").splitlines()
    got = decide_digests()
    assert len(got) == len(expected)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, f"{len(bad)} payload digests moved, first: {bad[:3]}"


def test_optimizer_payloads_match_golden():
    for name, text in optimizer_goldens().items():
        expected = (GOLDEN_DIR / "optimize" / name).read_text(encoding="utf-8")
        assert text == expected, _first_difference(expected, text, name)


def test_render_payloads_match_golden():
    for name, text in render_goldens().items():
        expected = (GOLDEN_DIR / "render" / name).read_bytes().decode("utf-8")
        assert text == expected, _first_difference(expected, text, f"render/{name}")


def write_goldens() -> None:
    (GOLDEN_DIR / "decide").mkdir(parents=True, exist_ok=True)
    for name, text in decide_goldens().items():
        (GOLDEN_DIR / "decide" / name).write_text(text, encoding="utf-8")
    (GOLDEN_DIR / "sweep_acceptance6.json").write_text(sweep_golden(), encoding="utf-8")
    (GOLDEN_DIR / "sweep_wide.json").write_text(wide_sweep_golden(), encoding="utf-8")
    (GOLDEN_DIR / "decide_digests.txt").write_text(
        "\n".join(decide_digests()) + "\n", encoding="utf-8")
    (GOLDEN_DIR / "optimize").mkdir(exist_ok=True)
    for name, text in optimizer_goldens().items():
        (GOLDEN_DIR / "optimize" / name).write_text(text, encoding="utf-8")
    (GOLDEN_DIR / "render").mkdir(exist_ok=True)
    for name, text in render_goldens().items():
        (GOLDEN_DIR / "render" / name).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
