"""Evaluate all three condition sets for a scenario and print the verdicts.

Usage: python scripts/demo_decide.py [scenario.json]
"""

import argparse
import sys
from pathlib import Path

from dismed import RunConfig, decide, load_scenario

DEFAULT = Path(__file__).parent.parent / "tests" / "fixtures" / "all_three_satisfied.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?", default=str(DEFAULT))
    parser.add_argument("--quorum", type=float, default=None,
                        help="aggregate by quorum fraction instead of conjunction")
    args = parser.parse_args()

    cfg = RunConfig()
    if args.quorum is not None:
        cfg = cfg.replace(aggregation="quorum", quorum=args.quorum)

    summary = decide(load_scenario(args.scenario), cfg)
    print(f"scenario: {summary.scenario_label}")
    print(f"  buyer disintermediates   : {summary.buyer_disintermediates.value}")
    print(f"  broker provides web info : {summary.broker_provides_web_info.value}")
    print(f"  seller disintermediates  : {summary.seller_disintermediates.value}")
    marks = {"Satisfied": "S", "Violated": "X",
             "VacuouslySatisfied": "v", "Indeterminate": "?"}
    for name, report in summary.reports.items():
        rows = [f"{v.id.label}={marks[v.status.value]}" for v in report.verdicts]
        print(f"  {name:<11} [{report.aggregate.value}] " + " ".join(rows))
    print("  (S satisfied, X violated, v vacuously satisfied, ? indeterminate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
