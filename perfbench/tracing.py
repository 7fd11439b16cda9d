"""Span recorder that times dismed's layers from outside the program.

A ``Tracer`` replaces public functions at the module binding their caller
uses (for example ``dismed.conditions.evaluate_expression``, which is what
``conditions`` calls, not ``dismed.calculus.evaluate_expression``, which is
what the evaluator's own recursion calls). Recursion inside a layer is
therefore never spanned, and each span measures one call across a layer
boundary.

Spans live in memory as a flat ``array('q')`` of
``(name id, start ns, end ns, parent index, op id)`` records and are written
once, when the run ends. Self time is a span's duration minus the durations
of its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

FIELDS = 5  # name id, start ns, end ns, parent index, op id

# (module, attribute, span name). Several bindings may share one span name.
SPANNED = (
    ("dismed.io", "load_scenario", "io.load_scenario"),
    ("dismed.io", "validate_scenario", "model.validate"),
    ("dismed.simulate", "validate_scenario", "model.validate"),
    ("dismed.simulate", "with_values", "model.with_values"),
    ("dismed.conditions", "decide", "conditions.decide"),
    ("dismed.simulate", "decide", "conditions.decide"),
    ("dismed.conditions", "eval_condition", "conditions.eval_condition"),
    ("dismed.conditions", "build_form", "conditions.build_form"),
    ("dismed.conditions", "evaluate_expression", "calculus.evaluate_expression"),
    ("dismed.calculus", "finite_difference", "calculus.finite_difference"),
    ("dismed.calculus", "integrate_horizon", "calculus.integrate_horizon"),
    ("dismed.simulate", "draw_scenario", "simulate.draw"),
    ("dismed.simulate", "run_sweep", "simulate.run_sweep"),
    ("dismed.optimizer", "optimize_broker", "optimizer.optimize"),
    ("dismed.optimizer", "evaluate_capital", "optimizer.evaluate_capital"),
    ("dismed.cli", "render_report", "cli.render"),
)

# (module, attribute, counter name): calls too frequent and too short to span.
COUNTED = (
    ("dismed.calculus", "eval_response", "model.eval_response"),
    ("dismed.optimizer", "eval_response", "model.eval_response"),
    ("dismed.model", "eval_response", "model.eval_response"),
    ("dismed.optimizer", "is_feasible", "optimizer.is_feasible"),
)


def _tally_statuses(counts: Counter, summary) -> None:
    for report in summary.reports.values():
        for verdict in report.verdicts:
            counts["status." + verdict.status.value] += 1


def _tally_draw(counts: Counter, result) -> None:
    _, rejections = result
    counts["simulate.draws_accepted"] += 1
    counts["simulate.draws_attempted"] += 1 + rejections


def _tally_optimize(counts: Counter, result) -> None:
    counts["optimizer.iterations"] += result.iterations


def _tally_render(counts: Counter, text: str) -> None:
    counts["cli.render_bytes"] += len(text.encode("utf-8"))


# Facts read from a span's return value, after its end time is taken.
POST = {
    "conditions.decide": _tally_statuses,
    "simulate.draw": _tally_draw,
    "optimizer.optimize": _tally_optimize,
    "cli.render": _tally_render,
}


class Tracer:
    """Records spans and counts while installed; restores every binding on
    ``uninstall``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        nid = self._name_id(name)
        records, stack, counts = self.records, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(records) // FIELDS
            records.extend((nid, 0, 0, stack[-1], self.op_id))
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx * FIELDS + 1] = start
                records[idx * FIELDS + 2] = end
            if post is not None:
                post(counts, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self.span(name, getattr(module, attr), POST.get(name)))
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(module_name)
            self._replace(module, attr, self.counter(name, getattr(module, attr)))

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def aggregate(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns."""
        recs = self.records
        n = len(recs) // FIELDS
        child_ns = [0] * n
        for i in range(n):
            parent = recs[i * FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += recs[i * FIELDS + 2] - recs[i * FIELDS + 1]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[recs[i * FIELDS]]]
            dur = recs[i * FIELDS + 2] - recs[i * FIELDS + 1]
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += dur - child_ns[i]
        return out

    def write(self, directory: Path) -> None:
        """Spans as raw native-endian int64 records plus a JSON name table."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as fh:
            self.records.tofile(fh)
        (directory / "spans.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": self.names,
            "spans": len(self.records) // FIELDS,
        }), encoding="utf-8")
