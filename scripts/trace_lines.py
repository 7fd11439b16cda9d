"""A pytest plugin that records which lines of ``src/dismed`` a test run executes.

Load it with ``-p`` and name the output file::

    PYTHONPATH=src:scripts python -m pytest -q -p trace_lines \\
        --trace-lines lines.json tests/

It traces with ``sys.settrace`` (and ``threading.settrace``) only, so it needs
no coverage package. The JSON it writes maps each module file of the package,
relative to the package directory, to its executed lines and to the
executable lines that no test reached, and to the node ids of the tests that
ran each executed line (``"tests"``: line -> node ids, in run order). A test
is credited with the lines its setup, call and teardown run, so a fixture
shared by several tests counts for the first that sets it up; lines run
outside any test (collection, imports) are executed but credited to none.
The terminal summary gives the counts. Code that runs in child processes
(the CLI subprocess tests, sweep workers) is not seen. The tier-1 command
does not load the plugin.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest


def _executable(path: Path) -> set[int]:
    """The lines that carry bytecode in ``path``, nested code objects included."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    def __init__(self, root: Path):
        self.root = str(root) + "/"
        self.pending: defaultdict[str, set[int]] = defaultdict(set)  # since the last credit
        self.hits: dict[str, set[int]] = {}
        self.tests: dict[str, dict[int, list[str]]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.pending[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.root):
            return None
        self.pending[name].add(frame.f_lineno)
        return self._local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def credit(self, nodeid) -> None:
        """Record the lines run since the last credit, as run by the test
        ``nodeid`` (None: by no test)."""
        pending, self.pending = self.pending, defaultdict(set)
        for name, lines in pending.items():
            self.hits.setdefault(name, set()).update(lines)
            if nodeid is not None:
                by_line = self.tests.setdefault(name, {})
                for line in lines:
                    by_line.setdefault(line, []).append(nodeid)

    def report(self) -> dict:
        self.credit(None)
        out = {}
        for path in sorted(Path(self.root).glob("*.py")):
            hit = self.hits.get(str(path), set())
            by_line = self.tests.get(str(path), {})
            out[path.name] = {"executed": sorted(hit),
                              "unreached": sorted(_executable(path) - hit),
                              "tests": {str(line): by_line[line] for line in sorted(by_line)}}
        return out


def pytest_addoption(parser):
    parser.addoption("--trace-lines", metavar="PATH",
                     help="write the executed and unreached src/dismed lines here as JSON")


def pytest_configure(config):
    out = config.getoption("--trace-lines")
    if not out:
        return
    spec = importlib.util.find_spec("dismed")
    config._line_tracer = tracer = LineTracer(Path(spec.origin).parent)
    config._line_tracer_out = out
    tracer.start()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    tracer = getattr(item.config, "_line_tracer", None)
    if tracer is not None:
        tracer.credit(None)
    yield
    if tracer is not None:
        tracer.credit(item.nodeid)


def pytest_unconfigure(config):
    tracer = getattr(config, "_line_tracer", None)
    if tracer is None:
        return
    tracer.stop()
    report = tracer.report()
    Path(config._line_tracer_out).write_text(json.dumps(report, indent=1) + "\n",
                                             encoding="utf-8")
    for name, lines in report.items():
        run, missed = len(lines["executed"]), len(lines["unreached"])
        print(f"trace_lines: {name}: {missed} of {run + missed} lines unreached",
              file=sys.stderr)
