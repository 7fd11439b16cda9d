"""Host-speed probe: a fixed loop timed beside the workload.

On a host whose cores are shared with other machines, the same code runs at
several speeds that last from seconds to minutes: on the 2-vCPU host this
benchmark was sized on, a fixed loop took 0.35 ms in one stretch and 0.55 or
0.65 ms in the next, and the engine's ops slowed with it. Raw times of runs
taken minutes apart therefore differ by up to 1.85x on unchanged code.

The benchmark times this loop between ops and around every set-up sample,
and reports each time scaled to one nominal host speed:
``measured * NOMINAL_NS / loop time measured beside it``. The loop is the
benchmark's own code, so no change to dismed can move it. Raw times are
printed in the details line.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The loop's time on the sizing host in its fastest stretches (5th percentile
# of 15000 loops), so that scaled times read as milliseconds on that host
# when nothing else loads it.
NOMINAL_NS = 950_000


_DOC = {f"k{i}": [i, i * 0.5, {"x": str(i)}] for i in range(60)}


def reference() -> float:
    """Integer and dict work in the interpreter, then JSON round trips and
    small-array numpy calls. Of the mixes tried, this one slowed under
    contention by the factor closest to the engine's: within 2 % for a
    ``decide`` and 5 % for an ``optimize_broker`` solve, where the integer
    loop alone was 6 % off for ``decide``."""
    acc = 0
    table = {}
    for i in range(3000):
        acc += i * i % 7
        table[i % 97] = acc
    for _ in range(6):
        acc += len(json.loads(json.dumps(_DOC)))
    v = np.arange(16.0)
    for _ in range(60):
        v = np.sqrt(v * v + 1.0)
    return acc + float(v.sum())


def sample(count: int) -> list[int]:
    """Wall ns of ``count`` consecutive reference loops."""
    clock = time.perf_counter_ns
    out = []
    for _ in range(count):
        t0 = clock()
        reference()
        out.append(clock() - t0)
    return out


def scale(measured: float, samples: list[int]) -> float:
    """``measured`` at the nominal host speed, given loop times beside it."""
    return measured * NOMINAL_NS / statistics.median(samples)
