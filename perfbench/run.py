#!/usr/bin/env python3
"""dismed benchmark: one workload per call, timed end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload decide-corpus --seed 1 --seconds 10 --trace 0

The benchmark runs the dismed sources under ``src/`` of the checkout it sits
in, never an installed copy. It generates the workload's inputs from the
seed, starts fresh processes for set-up samples and for the measured run,
checks every output, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: sample counts, quartiles, p99 where it is defined, the
input digest, machine facts and the raw times. Times are reported at one
nominal host speed (see hostspeed.py). ``--trace 1`` reports per-layer
metrics instead of end-to-end ones. The exit code is 0 only when every check
passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# Set-up probe processes per run, before and after the measured process, so
# that the samples span the run.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 3
# Host-speed loops timed just before and just after each set-up probe.
SETUP_REF_SAMPLES = 5
# Children per kind for cli.interpreter_ms, cli.import_ms and cli.command_ms,
# which the cli-cold traced run reports.
CLI_PROBES = 5
CLI_PROBE_ARGS = ["decide", "tests/fixtures/all_three_satisfied.json"]
READY_TIMEOUT_S = 60
WORKER_GRACE_S = 60
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile
GRID_REL_TOL = 1e-3  # a solve within this of the 200x200 grid best counts as ok


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("DISMED_CONFIG", None)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def setup_sample(plan_path: Path, env: dict) -> tuple[float, float]:
    """(raw s, s at the nominal host speed) of one probe process's set-up."""
    before = hostspeed.sample(SETUP_REF_SAMPLES)
    proc, ready_s = start_worker(plan_path, env, probe=True)
    finish_worker(proc, READY_TIMEOUT_S)
    return ready_s, hostspeed.scale(ready_s, before + hostspeed.sample(SETUP_REF_SAMPLES))


def start_worker(plan_path: Path, env: dict, probe: bool) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it and the seconds until it was ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else b""
    ready_s = time.perf_counter() - t0
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, ready_s


def finish_worker(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("workload process overran its deadline") from None
    proc.stdout.close()
    if code != 0:
        raise BenchError(f"workload process exited with {code}")


def cli_probes(env: dict, decide_args: list[str]) -> dict:
    """Medians of bare interpreter start, ``import dismed.cli`` (less the
    interpreter start) and one full ``dismed decide`` call, each in its own
    child, interleaved."""
    kinds = {
        "cli.interpreter_ms": [sys.executable, "-c", "pass"],
        "cli.import_ms": [sys.executable, "-c", "import dismed.cli"],
        "cli.command_ms": [sys.executable, "-m", "dismed.cli", *decide_args],
    }
    samples = {name: [] for name in kinds}
    for _ in range(CLI_PROBES):
        for name, cmd in kinds.items():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
            samples[name].append((time.perf_counter() - t0) * 1e3)
            if proc.returncode != 0:
                raise BenchError(f"{name} child exited with {proc.returncode}")
    medians = {name: statistics.median(v) for name, v in samples.items()}
    medians["cli.import_ms"] -= medians["cli.interpreter_ms"]
    return medians


# ---------------------------------------------------------------------------
# Correctness checks: each returns (one message per failed op, extras)
# ---------------------------------------------------------------------------

def _refines(got: str, full: str) -> bool:
    """Monotone refinement: each status is the full one or Indeterminate."""
    return len(got) == len(full) and all(g in (f, "I") for g, f in zip(got, full))


def check_decide(result: dict, plan: dict, expected: list) -> tuple[list, dict]:
    failures = []
    for i, rec in enumerate(result["records"]):
        exp = expected[i % len(expected)]
        if not isinstance(rec, str):
            failures.append(f"op {i}: {rec['error']}")
        elif not (_refines(rec, exp["statuses"]) if exp["thinned"]
                  else rec == exp["statuses"]):
            failures.append(f"op {i} ({plan['paths'][i % len(expected)]}): "
                            f"statuses {rec}, oracle {exp['statuses']}")
    return failures, {}


def _sweep_failures(payload: dict, n: int) -> list:
    out = []
    if payload["n"] != n:
        out.append(f"n = {payload['n']}, expected {n}")
    rates = [v for entry in payload["per_condition"].values() for v in entry.values()]
    rates += [v for entry in payload["per_set"].values() for v in entry.values()]
    if not all(0.0 <= r <= 1.0 for r in rates):
        out.append("a rate lies outside [0, 1]")
    if payload["config"]["aggregation"] == "conjunction":
        for cset, prefix in (("buyer", "B"), ("broker_web", "W"), ("seller", "S")):
            members = [e["frequency"] for label, e in payload["per_condition"].items()
                       if label.startswith(prefix)]
            if payload["per_set"][cset]["satisfied_rate"] > min(members) + 1e-12:
                out.append(f"{cset} conjunction rate exceeds a member's frequency")
    return out


def check_sweep(result: dict, plan: dict, expected) -> tuple[list, dict]:
    failures = []
    for i, rec in enumerate(result["records"]):
        if not isinstance(rec, str):
            failures.append(f"op {i}: {rec['error']}")
            continue
        problems = _sweep_failures(json.loads(rec), plan["n"])
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
    workers2 = result["final"]["workers2_op0"]
    if isinstance(workers2, dict):
        failures.append(f"call 0 with workers=2: {workers2['error']}")
    elif isinstance(result["records"][0], str) and workers2 != result["records"][0]:
        failures.append("call 0 differs between workers=1 and workers=2")
    return failures, {}


def check_broker(result: dict, plan: dict, expected: list) -> tuple[list, dict]:
    failures, grid_ok = [], 0
    for i, rec in enumerate(result["records"]):
        if not isinstance(rec, list):
            failures.append(f"op {i}: {rec['error']}")
            continue
        exp = expected[i % len(expected)]
        feasible, objective, _, decision = rec
        if not feasible or decision is None or not math.isfinite(objective):
            failures.append(f"op {i}: no feasible solution")
            continue
        b_b, b_s, b_i, _, state = decision
        if not exp["budget"][state] > max(0.0, b_b + b_s + b_i):
            failures.append(f"op {i}: commission does not strictly cover the cost")
            continue
        best = exp["grid_best"]
        grid_ok += objective >= best - GRID_REL_TOL * abs(best)
    return failures, {"grid_ok_ratio": grid_ok / len(result["records"])}


def _payload_statuses(payload: dict) -> dict:
    reports = payload["reports"].values() if "reports" in payload else [payload]
    return {v["id"]: v["status"] for report in reports for v in report["verdicts"]}


def check_cli(result: dict, plan: dict, expected: list) -> tuple[list, dict]:
    outputs = result["final"]["outputs"]
    verdicts: dict[tuple, str | None] = {}
    failures = []
    for i, rec in enumerate(result["records"]):
        if not isinstance(rec, list):
            failures.append(f"op {i}: {rec['error']}")
            continue
        k, code, digest = rec
        if code != 0:
            failures.append(f"op {i} ({plan['commands'][k][0]}): exit {code}")
            continue
        if (k, digest) not in verdicts:
            payload = json.loads(outputs[str(k)][digest])
            exp = expected[k]
            ok = (_payload_statuses(payload) == exp["statuses"] if "statuses" in exp
                  else payload == exp["payload"])
            verdicts[k, digest] = None if ok else f"{plan['commands'][k][0]} output differs from in-process"
        if verdicts[k, digest]:
            failures.append(f"op {i}: {verdicts[k, digest]}")
    return failures, {}


CHECKS = {
    "decide-corpus": check_decide,
    "sweep-wide": check_sweep,
    "broker-optimize": check_broker,
    "cli-cold": check_cli,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def scaled_op_ms(result: dict) -> list[float]:
    """Each op's ms at the nominal host speed, scaled by the host-speed loops
    timed in the four gaps around it (two before, two after). Untraced runs
    only: there the op index is the position in ``op_ns``."""
    ref = result["ref_ns"]
    return [hostspeed.scale(ns / 1e6, [t for gap in ref[max(0, i - 1):i + 3] for t in gap])
            for i, ns in enumerate(result["op_ns"])]


def end_to_end(workload: str, result: dict, op_ms: list, setup: list) -> dict:
    rss_kb = result["peak_rss_kb"]["children" if workload == "cli-cold" else "self"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (result["units"] / (sum(op_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(result: dict, extras: dict, cli: dict, failed_ratio: float) -> dict:
    ops = len(result["traced_op_ns"])
    layers, counts = result["layers"], result["counts"]

    def ms(name: str, kind: str = "total_ns") -> tuple:
        return layers.get(name, {}).get(kind, 0) / 1e6 / ops, "ms"

    def calls(name: str) -> tuple:
        return layers.get(name, {}).get("calls", 0) / ops, "count/op"

    def count(name: str) -> tuple:
        return counts.get(name, 0) / ops, "count/op"

    attempted = counts.get("simulate.draws_attempted", 0)
    untraced = statistics.median(result["op_ns"])
    traced = statistics.median(result["traced_op_ns"])
    return {
        "io.load_scenario_ms": ms("io.load_scenario"),
        "io.load_scenario_calls": calls("io.load_scenario"),
        "model.validate_ms": ms("model.validate"),
        "model.validate_calls": calls("model.validate"),
        "model.with_values_ms": ms("model.with_values"),
        "model.with_values_calls": calls("model.with_values"),
        "model.eval_response_calls": count("model.eval_response"),
        "conditions.build_form_ms": ms("conditions.build_form"),
        "conditions.build_form_calls": calls("conditions.build_form"),
        "conditions.eval_condition_self_ms": ms("conditions.eval_condition", "self_ns"),
        "conditions.eval_condition_calls": calls("conditions.eval_condition"),
        "conditions.decide_self_ms": ms("conditions.decide", "self_ns"),
        "conditions.satisfied": count("status.Satisfied"),
        "conditions.violated": count("status.Violated"),
        "conditions.vacuous": count("status.VacuouslySatisfied"),
        "conditions.indeterminate": count("status.Indeterminate"),
        "calculus.evaluate_expression_self_ms": ms("calculus.evaluate_expression", "self_ns"),
        "calculus.evaluate_expression_calls": calls("calculus.evaluate_expression"),
        "calculus.finite_difference_ms": ms("calculus.finite_difference"),
        "calculus.finite_difference_calls": calls("calculus.finite_difference"),
        "calculus.integrate_horizon_ms": ms("calculus.integrate_horizon"),
        "calculus.integrate_horizon_calls": calls("calculus.integrate_horizon"),
        "simulate.draw_self_ms": ms("simulate.draw", "self_ns"),
        "simulate.draws_attempted": count("simulate.draws_attempted"),
        "simulate.draws_accepted": count("simulate.draws_accepted"),
        "simulate.accept_ratio": (counts.get("simulate.draws_accepted", 0) / attempted
                                  if attempted else 0.0, "ratio"),
        "simulate.run_sweep_self_ms": ms("simulate.run_sweep", "self_ns"),
        "optimizer.evaluate_capital_ms": ms("optimizer.evaluate_capital"),
        "optimizer.evaluate_capital_calls": calls("optimizer.evaluate_capital"),
        "optimizer.is_feasible_calls": count("optimizer.is_feasible"),
        "optimizer.iterations": count("optimizer.iterations"),
        "optimizer.optimize_self_ms": ms("optimizer.optimize", "self_ns"),
        "optimizer.grid_ok_ratio": (extras.get("grid_ok_ratio", 0.0), "ratio"),
        "cli.render_ms": ms("cli.render"),
        "cli.render_bytes": (counts.get("cli.render_bytes", 0) / ops, "bytes/op"),
        "cli.interpreter_ms": (cli.get("cli.interpreter_ms", 0.0), "ms"),
        "cli.import_ms": (cli.get("cli.import_ms", 0.0), "ms"),
        "cli.command_ms": (cli.get("cli.command_ms", 0.0), "ms"),
        "trace.overhead_ratio": (traced / untraced - 1.0, "ratio"),
        "failed_ratio": (failed_ratio, "ratio"),
    }


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def details(workload: str, args, facts: dict, digest: str, result: dict, op_ms: list,
            setup_raw: list, ready_s: float, failures: list) -> dict:
    out = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": digest, "machine": facts,
        "loop": "closed, one caller, workers=1",
        "failures": failures[:5],
        "measured_process_ready_s": ready_s,
        "ref_loop_ms_quartiles": _quartiles([t / 1e6 for gap in result["ref_ns"] for t in gap]),
    }
    if args.trace:
        out["traced_op_samples"] = len(result["traced_op_ns"])
        out["spans"] = str((WORK / workload / "trace").relative_to(ROOT))
        return out
    raw_ms = [ns / 1e6 for ns in result["op_ns"]]
    out.update({
        "op_samples": len(op_ms),
        "op_quartiles_ms": _quartiles(op_ms),
        "op_p99_ms": (statistics.quantiles(op_ms, n=100)[98]
                      if len(op_ms) >= P99_MIN_SAMPLES else None),
        "peak_rss_after_ops": result["rss_after_ops"],
        "raw": {
            "setup_samples_s": setup_raw,
            "op_quartiles_ms": _quartiles(raw_ms),
            "throughput_per_s": result["units"] / (sum(raw_ms) / 1e3),
        },
    })
    return out


def run(args) -> int:
    for required in (ROOT / "src" / "dismed" / "__init__.py", ROOT / "tests" / "scen_gen.py"):
        if not required.is_file():
            raise BenchError(f"{required.relative_to(ROOT)} is missing: "
                             "run from a full dismed checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import dismed.cli  # compiles its bytecode before any timed child starts
    import inputs
    from dismed.errors import DismedError
    from worker import source_problem

    problem = source_problem(ROOT)
    if problem:
        raise BenchError(problem)
    facts = machine_facts()
    # This process and every child run on one CPU, so that the host-speed
    # loop is timed on the core that runs the work it scales.
    facts["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, expected = inputs.GENERATORS[args.workload](args.seed, work, ROOT)
    except DismedError as exc:
        raise BenchError(f"the engine failed while computing expected outputs: {exc}") from exc
    digest = inputs.digest(work, plan, expected)
    plan.update(workload=args.workload, root=str(ROOT), seconds=args.seconds,
                trace=bool(args.trace))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    env = worker_env()
    samples = []
    probes = (0, 0) if args.trace else (SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER)
    samples += [setup_sample(plan_path, env) for _ in range(probes[0])]
    proc, ready_s = start_worker(plan_path, env, probe=False)
    finish_worker(proc, args.seconds + WORKER_GRACE_S)
    samples += [setup_sample(plan_path, env) for _ in range(probes[1])]
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    records = result["records"]
    failures, extras = CHECKS[args.workload](result, plan, expected)
    attempted = len(records) + 1  # the untimed first op
    warm = result["warm"]
    if isinstance(warm, dict):
        failures.append(f"untimed first op: {warm['error']}")
    elif not isinstance(records[0], dict) and warm != records[0]:
        failures.append("the untimed first op and timed op 0 differ")
    if args.workload == "sweep-wide":
        attempted += 1  # the workers=2 call
    failed = len(failures)

    op_ms = []
    if args.trace:
        cli = cli_probes(env, CLI_PROBE_ARGS) if args.workload == "cli-cold" else {}
        metrics = per_layer(result, extras, cli, failed / attempted)
    else:
        op_ms = scaled_op_ms(result)
        metrics = end_to_end(args.workload, result, op_ms, [scaled for _, scaled in samples])
    print(json.dumps(details(args.workload, args, facts, digest, result, op_ms,
                             [raw for raw, _ in samples], ready_s, failures)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
