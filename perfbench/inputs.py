"""Seeded input generation for the benchmark workloads.

Everything here runs in the benchmark's own process, before any workload
process starts, so none of it counts toward ``setup_s``. Each generator
writes its input files under the run's work directory and returns the plan
the workload process reads plus the expected outputs the checks compare
against. The same seed gives byte-identical files; ``digest`` hashes them so
that drift in ``tests/scen_gen`` shows up in the recorded result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from dismed import load_scenario, save_scenario
from dismed.model import split_driver
from oracle import oracle_statuses
from scen_gen import drop_responses, random_opt_instance, random_scenario
from worker import status_string

# Oracle-corpus scenarios per decide-corpus run; odd indices are thinned.
# Scenarios differ in cost, so the corpus is large enough that the cost of a
# pass over it varies little from seed to seed.
CORPUS_SIZE = 124
FIXTURES = ("all_satisfied_buyer", "all_satisfied_seller",
            "all_satisfied_broker_web", "all_three_satisfied")

# Draws per run_sweep call: enough for a batched engine to amortise its set-up.
SWEEP_N = 200
# About a dozen marginals, one or more in every symbol group. Responses that
# touch a sampled symbol are removed from the base scenario, so no draw moves
# a response anchor; the normals are truncated by the symbol domains. The
# marginals are the same for every seed, so every seed costs the same per
# draw; the seed picks the draws.
SWEEP_MARGINALS = {
    "P_b": {"kind": "normal", "mean": 10.0, "sd": 3.0},
    "B_n": {"kind": "uniform", "lo": 0.1, "hi": 0.4},
    "B_op": {"kind": "uniform", "lo": 0.05, "hi": 0.2},
    "I_o": {"kind": "uniform", "lo": 7.0, "hi": 9.0},
    "psi_s": {"kind": "uniform", "lo": 1.5, "hi": 2.5},
    "U_sa": {"kind": "normal", "mean": 1.1, "sd": 0.3},
    "U_sw": {"kind": "uniform", "lo": 1.0, "hi": 1.4},
    "pi_i": {"kind": "uniform", "lo": 0.3, "hi": 0.8},
    "pi_b": {"kind": "uniform", "lo": 0.8, "hi": 1.2},
    "E_m": {"kind": "uniform", "lo": -0.5, "hi": 0.8},
    "rho_s": {"kind": "normal", "mean": 0.75, "sd": 0.15},
    "u_hat": {"kind": "uniform", "lo": 0.3, "hi": 0.9},
    "SC_s": {"kind": "normal", "mean": 25.0, "sd": 5.0},
}

# Distinct optimizer instances per run; op i solves instance i % OPT_POOL.
# More than a run solves in its timed phase on the sizing host, so no
# instance is solved twice and nothing keyed on an instance can hit a cache.
OPT_POOL = 2048
OPT_RESTARTS = 6
GRID_N = 200


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def decide_corpus(seed: int, work: Path, root: Path) -> tuple[dict, list]:
    corpus = work / "corpus"
    corpus.mkdir()
    paths, expected = [], []
    for i in range(CORPUS_SIZE):
        full = random_scenario([seed, i])
        oracle = status_string(oracle_statuses(full))
        scenario = full
        if i % 2:
            scenario = drop_responses(full, [seed, 10_000 + i])
        path = save_scenario(scenario, corpus / f"random_{i:03d}.json")
        paths.append(_rel(path, root))
        expected.append({"statuses": oracle, "thinned": bool(i % 2)})
    for name in FIXTURES:
        path = corpus / f"{name}.json"
        shutil.copyfile(root / "tests" / "fixtures" / f"{name}.json", path)
        paths.append(_rel(path, root))
        expected.append({"statuses": status_string(oracle_statuses(load_scenario(path))),
                         "thinned": False})
    return {"paths": paths}, expected


def sweep_wide(seed: int, work: Path, root: Path) -> tuple[dict, dict]:
    base = load_scenario(root / "tests" / "fixtures" / "all_three_satisfied.json")
    kept = tuple(r for r in base.responses
                 if not ({r.driven, *split_driver(r.driver)} & SWEEP_MARGINALS.keys()))
    base_path = save_scenario(replace(base, label="sweep_base", responses=kept),
                              work / "sweep_base.json")
    dist_path = work / "sweep_dist.json"
    dist_path.write_text(json.dumps({"marginals": SWEEP_MARGINALS}, indent=2), encoding="utf-8")
    plan = {"base": _rel(base_path, root), "dist": _rel(dist_path, root),
            "n": SWEEP_N, "seed": seed}
    return plan, {"responses_kept": len(kept), "responses_total": len(base.responses)}


def broker_optimize(seed: int, work: Path, root: Path) -> tuple[dict, list]:
    instances, expected = [], []
    for k in range(OPT_POOL):
        scenario, bounds, _, _, grid = random_opt_instance([seed, k])
        path = save_scenario(scenario, work / f"opt_{k:03d}.json")
        instances.append({"scenario": _rel(path, root),
                          "bounds": {f: list(getattr(bounds, f))
                                     for f in ("B_b", "B_s", "B_i", "B_n")}})
        cost, capital = grid(GRID_N)
        expected.append({
            "grid_best": float(np.max(capital - cost)),
            "budget": {st: scenario.value("c", st) * scenario.value("P", st)
                       for st in ("E_s", "E_p", "E_m")},
        })
    return {"instances": instances, "restarts": OPT_RESTARTS}, expected


def cli_cold(seed: int, work: Path, root: Path) -> tuple[dict, list]:
    fixtures = root / "tests" / "fixtures"
    generated = save_scenario(random_scenario([seed, 0]), work / "cli_random.json")
    bounds = work / "cli_bounds.json"
    shutil.copyfile(fixtures / "bounds_bi.json", bounds)
    scen = {name: work / f"{name}.json" for name in (*FIXTURES, "broker_opt")}
    for name, path in scen.items():
        shutil.copyfile(fixtures / f"{name}.json", path)

    def r(path: Path) -> str:
        return _rel(path, root)

    # decide is the majority: it is what users run most.
    commands = [
        ["decide", r(scen["all_three_satisfied"])],
        ["validate", r(scen["all_satisfied_buyer"])],
        ["decide", r(scen["all_satisfied_buyer"])],
        ["conditions", r(scen["all_satisfied_seller"]), "--set", "seller"],
        ["decide", r(generated)],
        ["sensitivity", r(scen["all_three_satisfied"]), "--condition", "B5",
         "--param", "psi_b"],
        ["decide", r(scen["all_satisfied_seller"])],
        ["optimize", r(scen["broker_opt"]), "--bounds", r(bounds)],
        ["decide", r(scen["all_satisfied_broker_web"])],
    ]
    start = seed % len(commands)
    commands = commands[start:] + commands[:start]
    return {"commands": commands}, [_cli_expected(cmd, root) for cmd in commands]


def _cli_expected(cmd: list, root: Path):
    """What one CLI command must print. Statuses come from the oracle, which
    every full-response scenario here matches; the other payloads come from
    the in-process engine."""
    from dismed import (Bounds, ConditionId, ConditionSet, OptimizerConfig, RunConfig,
                        condition_ids, optimize_broker, sensitivity)

    kind, scenario = cmd[0], load_scenario(root / cmd[1])
    opts = dict(zip(cmd[2::2], cmd[3::2]))
    if kind == "decide":
        return {"statuses": oracle_statuses(scenario)}
    if kind == "conditions":
        labels = {cid.label for cid in condition_ids(ConditionSet(opts["--set"]))}
        return {"statuses": {k: v for k, v in oracle_statuses(scenario).items() if k in labels}}
    if kind == "validate":
        return {"payload": {"ok": True, "violations": []}}
    if kind == "sensitivity":
        result = sensitivity(scenario, ConditionId.parse(opts["--condition"]),
                             opts["--param"], cfg=RunConfig())
        return {"payload": json.loads(json.dumps(result.to_dict()))}
    bounds = Bounds.from_dict(json.loads((root / opts["--bounds"]).read_text()))
    result = optimize_broker(scenario, bounds, OptimizerConfig())
    return {"payload": json.loads(json.dumps(result.to_dict()))}


GENERATORS = {
    "decide-corpus": decide_corpus,
    "sweep-wide": sweep_wide,
    "broker-optimize": broker_optimize,
    "cli-cold": cli_cold,
}


def digest(work: Path, plan: dict, expected) -> str:
    """sha256 over every generated file, the plan and the expected outputs."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(path.relative_to(work).as_posix().encode())
        h.update(path.read_bytes())
    h.update(json.dumps([plan, expected], sort_keys=True).encode())
    return h.hexdigest()
