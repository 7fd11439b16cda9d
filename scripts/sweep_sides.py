"""Which condition sides a sweep settles once per base, and what each costs a block.

For every guard and part side of the 44 conditions, prints how a sweep of
SCENARIO under DIST treats it, with the default RunConfig:

* ``by name``: the symbols it names (``reads``) miss the swept ones, so it
  is settled once per base;
* ``by base``: it names a swept symbol, but what it reads on this base
  (``calculus.on_base``, which the base's links and overlays narrow) misses
  them, so it is settled once per base too;
* ``per block``: it runs on every block.

Each row also gives the side's median microseconds to run once on a block of
N draws, over K blocks drawn from seeds S, S+1, ...: for a settled side, the
time settling saves a block. Two lines then sum the counts and times per
state, and the next gives the median microseconds, over K freshly loaded
bases, to build a base's plan (``batch._conditions``: ``batch._settle`` for
each of the 44 conditions, the settled sides' evaluation on the base
included, and each condition whose every side is settled evaluated there
once). The last gives the number of those conditions settled whole and the
microseconds a block no longer takes for them (the sum of their median
times to run once on a block with their sides settled). It is a measuring
tool, not a gate.

Usage: python scripts/sweep_sides.py SCENARIO DIST [--n 200] [--seed 31] [--blocks 20]
"""

import argparse
import statistics
import sys
import time

import numpy as np

from dismed import DistributionSpec, RunConfig, batch, load_scenario
from dismed.calculus import on_base
from dismed.io import read_json

STATES = ("by name", "by base", "per block")


def sides(cfg: RunConfig):
    """(label, compiled side) for every guard and part side, in registry order."""
    for cid, (_, run, _) in cfg.compiled.items():
        guard, parts = run.sides
        named = ([("guard", guard)] if guard else []) + [
            (f"part {k}", part) for k, part in enumerate(parts, 1)]
        for where, part in named:
            for name, side in zip(("lhs", "rhs"), part[:2]):
                if side is not None:
                    yield f"{cid.label} {where} {name}", side


def classify(base, swept, cfg: RunConfig):
    """(label, state, the side as a sweep of ``base`` runs it) per side."""
    rows = []
    for label, side in sides(cfg):
        run, reads = on_base(side, base)
        state = ("by name" if swept.isdisjoint(side.reads)
                 else "by base" if swept.isdisjoint(reads) else "per block")
        rows.append((label, state, run))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("scenario")
    parser.add_argument("dist")
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--blocks", type=int, default=20)
    args = parser.parse_args(argv)

    base, cfg = load_scenario(args.scenario), RunConfig()
    dist = DistributionSpec.from_dict(read_json(args.dist, "distribution"), "distribution")
    with np.errstate(all="ignore"):
        blocks = []
        for k in range(args.blocks):
            X, swept, _ = batch.draw(base, dist, args.seed + k, 0, args.n)
            blocks.append(batch.block(base, X, swept))
        rows = classify(base, swept, cfg)
        times = {label: [] for label, _, _ in rows}
        for draws in blocks:
            for label, _, run in rows:
                start = time.perf_counter()
                run(draws, None)
                times[label].append(time.perf_counter() - start)

    print(f"{args.scenario}: {args.blocks} blocks of {args.n} draws, swept "
          + ", ".join(sorted(swept)))
    print(f"{'side':<24} {'state':<10} {'us/block':>9}")
    totals = dict.fromkeys(STATES, 0.0)
    for label, state, _ in rows:
        us = 1e6 * statistics.median(times[label])
        totals[state] += us
        print(f"{label:<24} {state:<10} {us:9.1f}")
    counts = {state: sum(row[1] == state for row in rows) for state in STATES}
    print("sides: " + ", ".join(f"{state} {counts[state]}" for state in STATES)
          + f" of {len(rows)}")
    print("us/block: " + ", ".join(f"{state} {totals[state]:.1f}" for state in STATES))
    builds = []
    with np.errstate(all="ignore"):
        for _ in range(args.blocks):
            fresh = load_scenario(args.scenario)
            start = time.perf_counter()
            batch._conditions(cfg, swept, fresh)
            builds.append(time.perf_counter() - start)
        print(f"plan on a fresh base: {1e6 * statistics.median(builds):.1f} us "
              f"(median of {args.blocks})")
        runs = list(cfg.compiled.values())
        whole = [(runs[j][1], batch._settle(runs[j][1].sides, swept, base))
                 for j in batch._conditions(cfg, swept, base)[0].tolist()]
        saved = 0.0
        for run, settled in whole:
            once = []
            for draws in blocks:
                start = time.perf_counter()
                run(draws, None, settled)
                once.append(time.perf_counter() - start)
            saved += 1e6 * statistics.median(once)
    print(f"conditions settled whole: {len(whole)} of {len(runs)}, "
          f"{saved:.1f} us/block no longer run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
