"""Run the numpy-free CLI calls under other Python interpreters and compare.

Usage: python scripts/xversion.py PYTHON [PYTHON ...]

Each call in ``CALLS`` runs ``PYTHON -m dismed.cli ...`` from the repository
root on the files under ``tests/fixtures``, with ``PYTHONPATH=src``, first
under the interpreter that runs this script and then under each one named.
A call passes when its stdout bytes and exit code equal the running
interpreter's, and its stdout equals its golden file under ``tests/golden``
where it names one. The script prints one line per call and interpreter and
exits 1 on any mismatch. It uses the standard library only, so it runs where
numpy and pytest are not installed; it is a tool, not a tier-1 test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
F = "tests/fixtures/"
THREE, OPT = F + "all_three_satisfied.json", F + "broker_opt.json"
SENSITIVITY = ("sensitivity", THREE, "--condition", "B5", "--param", "psi_b")

#: Each call: its name, its CLI arguments and the golden file (relative to
#: ``tests/golden``) that its stdout must equal, or None.
CALLS = (
    ("decide", ("decide", THREE), "decide/all_three_satisfied.default.json"),
    ("decide csv", ("decide", THREE, "--format", "csv"), None),
    ("decide quorum", ("decide", THREE, "--config", F + "config_quorum.json"), None),
    ("conditions", ("conditions", THREE, "--set", "buyer"), "render/conditions-buyer.json"),
    ("validate (exit 2)", ("validate", F + "bad_c.json"), "render/validate-violations.json"),
    ("optimize", ("optimize", OPT, "--bounds", F + "bounds_bi.json"), "render/optimize.json"),
    ("optimize infeasible (exit 3)", ("optimize", OPT, "--bounds", F + "bounds_infeasible.json"),
     "render/optimize-infeasible.json"),
    ("pareto", ("pareto", OPT, "--bounds", F + "bounds_bi.json", "--points", "4"),
     "render/pareto.json"),
    ("pareto csv", ("pareto", OPT, "--bounds", F + "bounds_bi.json", "--points", "4",
                    "--format", "csv"), "render/pareto.csv"),
    ("sensitivity", SENSITIVITY, "render/sensitivity.json"),
    ("sensitivity csv", (*SENSITIVITY, "--format", "csv"), "render/sensitivity.csv"),
)


def run(python: str, args) -> tuple[bytes, int]:
    """Stdout and exit code of one CLI call under ``python``."""
    env = {k: v for k, v in os.environ.items() if k != "DISMED_CONFIG"}
    env["PYTHONPATH"] = "src"
    done = subprocess.run([python, "-m", "dismed.cli", *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return done.stdout, done.returncode


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {k + 1}: {x[:60]!r} != {y[:60]!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def main(pythons) -> int:
    if not pythons:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = 0
    for name, args, golden in CALLS:
        out, code = run(sys.executable, args)
        expected = (GOLDEN / golden).read_bytes() if golden else None
        for python in (sys.executable, *pythons):
            got, got_code = (out, code) if python == sys.executable else run(python, args)
            if got_code != code:
                why = f"exit {got_code} != {code}"
            elif got != out:
                why = first_difference(got, out)
            elif expected is not None and got != expected:
                why = f"golden {golden}: {first_difference(got, expected)}"
            else:
                why = None
            failed += why is not None
            ok = f"ok (exit {code}{', golden' if golden else ''})"
            print(f"{name:30} {python}: {f'MISMATCH {why}' if why else ok}")
    print(f"{len(CALLS)} calls x {1 + len(pythons)} interpreters: {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
