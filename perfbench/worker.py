"""One workload in a fresh process: set up, run one untimed op, then time ops.

Usage: python3 perfbench/worker.py PLAN_JSON [--probe]

The process prints ``ready`` on stdout once the first, untimed op is done;
the benchmark times set-up from process start to that line. With
``--probe`` it exits there. Otherwise it runs a closed loop with one caller
until the plan's deadline and writes ``result.json`` next to the plan. With
tracing on, blocks of untraced and traced ops alternate, so both halves see
the same host conditions and their ratio is the tracing overhead. Between
ops, untimed, it times the host-speed reference loop (see hostspeed.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

TRACE_BLOCK_NS = 500_000_000
CLI_TIMEOUT_S = 60
STATUS_CODE = {"Satisfied": "S", "Violated": "V",
               "VacuouslySatisfied": "A", "Indeterminate": "I"}


def status_string(statuses: dict) -> str:
    """One letter per condition label, in registry order (B1..B19, W1..W7, S1..S18)."""
    from dismed import ALL_CONDITION_IDS
    return "".join(STATUS_CODE[statuses[cid.label]] for cid in ALL_CONDITION_IDS)


def source_problem(root: Path) -> str | None:
    """Why the imported dismed is not this checkout's ``src/``, or None."""
    import dismed
    src = (root / "src").resolve()
    if src not in Path(dismed.__file__).resolve().parents:
        return f"dismed was imported from {dismed.__file__}, not from {src}"
    return None


class DecideCorpus:
    """``dismed decide`` without interpreter start-up: parse, decide, render."""

    units_per_op = 1
    rss_ops = 500
    ref_per_gap = 1

    def __init__(self, plan: dict):
        import dismed.cli
        import dismed.conditions
        import dismed.io
        self.cli, self.conditions, self.io = dismed.cli, dismed.conditions, dismed.io
        self.paths = plan["paths"]

    def op(self, i: int):
        # Module attributes are looked up per call so the tracer's bindings apply.
        summary = self.conditions.decide(self.io.load_scenario(self.paths[i % len(self.paths)]))
        self.cli.render_report(summary, "json", os.devnull)
        return summary

    def record(self, summary) -> str:
        return status_string({v.id.label: v.status.value
                              for report in summary.reports.values()
                              for v in report.verdicts})


class SweepWide:
    """One run_sweep call per op; the unit of work is a draw."""

    def __init__(self, plan: dict):
        import dismed.io
        import dismed.simulate
        self.simulate = dismed.simulate
        self.base = dismed.io.load_scenario(plan["base"])
        self.dist = dismed.simulate.DistributionSpec.from_dict(
            json.loads(Path(plan["dist"]).read_text(encoding="utf-8")))
        self.n, self.seed = plan["n"], plan["seed"]
        self.units_per_op = self.n
        self.rss_ops = 5
        self.ref_per_gap = 16

    def op(self, i: int, workers: int = 1):
        # Seeds of different runs never overlap while a run makes < 10000 calls.
        return self.simulate.run_sweep(self.base, self.dist, self.n, self.seed * 10_000 + i,
                                       workers=workers)

    def record(self, stats) -> str:
        return json.dumps(stats.to_dict())

    def final_checks(self) -> dict:
        """Untimed: call 0 again with two worker processes."""
        out, err = _run_op(lambda i: self.op(i, workers=2), 0)
        return {"workers2_op0": self.record(out) if err is None else {"error": err}}


class BrokerOptimize:
    """One optimize_broker solve per op; op i solves instance i of the plan.

    Each instance file is loaded just before its op, untimed, so that set-up
    does not grow with the size of the plan.
    """

    units_per_op = 1
    rss_ops = 300
    ref_per_gap = 1

    def __init__(self, plan: dict):
        import dismed.io
        import dismed.optimizer
        self.io, self.optimizer = dismed.io, dismed.optimizer
        self.instances = plan["instances"]
        self.restarts = plan["restarts"]
        self.loaded: tuple[int, object, object] | None = None

    def prepare(self, i: int) -> None:
        k = i % len(self.instances)
        inst = self.instances[k]
        self.loaded = (k, self.io.load_scenario(inst["scenario"]),
                       self.optimizer.Bounds.from_dict(inst["bounds"]))

    def op(self, i: int):
        k, scenario, bounds = self.loaded
        cfg = self.optimizer.OptimizerConfig(restarts=self.restarts, seed=k)
        return self.optimizer.optimize_broker(scenario, bounds, cfg)

    def record(self, res) -> list:
        d = res.decision
        return [res.feasible, res.objective, res.iterations,
                None if d is None else [d.B_b, d.B_s, d.B_i, d.B_n, d.state]]


class CliCold:
    """One ``python -m dismed.cli`` child per op, one child at a time."""

    units_per_op = 1
    rss_ops = 10
    ref_per_gap = 8

    def __init__(self, plan: dict):
        self.commands = plan["commands"]
        self.outputs: dict[int, dict[str, str]] = {}

    def op(self, i: int):
        k = i % len(self.commands)
        proc = subprocess.run([sys.executable, "-m", "dismed.cli", *self.commands[k]],
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        return k, proc

    def record(self, result) -> list:
        k, proc = result
        digest = hashlib.sha256(proc.stdout).hexdigest()
        seen = self.outputs.setdefault(k, {})
        if digest not in seen:
            seen[digest] = proc.stdout.decode("utf-8", "replace")
        return [k, proc.returncode, digest]

    def final_checks(self) -> dict:
        return {"outputs": {str(k): v for k, v in self.outputs.items()}}


WORKLOADS = {
    "decide-corpus": DecideCorpus,
    "sweep-wide": SweepWide,
    "broker-optimize": BrokerOptimize,
    "cli-cold": CliCold,
}


def _run_op(fn, i: int):
    """(result or None, error text or None) for one call of ``fn(i)``."""
    try:
        out = fn(i)
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        return None, f"{type(exc).__name__}: {exc}"
    return out, None


def _peak_rss_kb() -> dict:
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def run_loop(workload, seconds: float, tracer) -> dict:
    """Closed loop until the deadline; with a tracer, blocks alternate
    untraced / traced.

    Before op i, untimed, the host-speed loop runs ``workload.ref_per_gap``
    times; its times are ``ref_ns[i]``, and ``ref_ns[-1]`` follows the last op.
    Peak RSS is read once ``workload.rss_ops`` ops are done (or at the end,
    if fewer ran), so that it compares equal work whatever the speed: the
    engine's response-index cache grows with every scenario it sees.
    """
    import hostspeed  # after set-up: cli-cold needs no numpy before its first op
    clock = time.perf_counter_ns
    prepare = getattr(workload, "prepare", None)
    untraced_ns, traced_ns, records, ref_ns = [], [], [], []
    units = 0
    i = 0
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    traced = False
    end = begin
    peak_rss = None
    # With a tracer, run until both halves have at least one op.
    while end < deadline or (tracer is not None and not traced_ns):
        block_end = min(end + TRACE_BLOCK_NS, deadline) if tracer else deadline
        run = workload
        if traced:
            tracer.install()
            run = _Traced(workload, tracer)
        while True:
            ref_ns.append(hostspeed.sample(workload.ref_per_gap))
            err = None
            if prepare is not None:
                if traced:
                    tracer.uninstall()  # the untimed load is no part of the op
                _, err = _run_op(prepare, i)
                if traced:
                    tracer.install()
            t0 = clock()
            out, err = _run_op(run.op, i) if err is None else (None, err)
            end = clock()
            (traced_ns if traced else untraced_ns).append(end - t0)
            if err is None:
                records.append(workload.record(out))
                units += workload.units_per_op
            else:
                records.append({"error": err})
            i += 1
            if i == workload.rss_ops:
                peak_rss = _peak_rss_kb()
            if end >= block_end:
                break
        if traced:
            tracer.uninstall()
        traced = tracer is not None and not traced
    ref_ns.append(hostspeed.sample(workload.ref_per_gap))
    return {"op_ns": untraced_ns, "traced_op_ns": traced_ns, "records": records,
            "ref_ns": ref_ns, "units": units, "elapsed_ns": end - begin,
            "peak_rss_kb": peak_rss or _peak_rss_kb(), "rss_after_ops": min(i, workload.rss_ops)}


class _Traced:
    """Runs each op inside a root span tagged with its op id."""

    def __init__(self, workload, tracer):
        self._op = tracer.span("op", workload.op)
        self._tracer = tracer

    def op(self, i: int):
        self._tracer.op_id = i
        return self._op(i)


def main(argv: list[str]) -> int:
    plan_path = Path(argv[0])
    probe = "--probe" in argv[1:]
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    root = Path(plan["root"])
    if plan["workload"] != "cli-cold":
        problem = source_problem(root)
        if problem:
            raise SystemExit(problem)
    workload = WORKLOADS[plan["workload"]](plan)
    err = None
    if hasattr(workload, "prepare"):
        _, err = _run_op(workload.prepare, 0)
    out, err = _run_op(workload.op, 0) if err is None else (None, err)
    warm = workload.record(out) if err is None else {"error": err}
    print("ready", flush=True)
    if probe:
        return 0

    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    result = run_loop(workload, plan["seconds"], tracer)
    result["warm"] = warm
    if hasattr(workload, "final_checks"):
        result["final"] = workload.final_checks()
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["counts"] = dict(tracer.counts)
        tracer.write(plan_path.parent / "trace")
    (plan_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
