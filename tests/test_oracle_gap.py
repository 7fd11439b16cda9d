"""The engine against the oracle where margins may be knife-edge.

``random_scenario`` keeps, for acceptance 1, only scenarios whose oracle
margins are all at least ``SEPARATION``. At separation 0 the engine's central
difference decides some verdicts by its rounding: a derivative that is
exactly 0 (of a link whose degree is below the order) comes out as noise of
either sign, and a strict comparison against 0 takes that sign. The oracle
takes every derivative analytically. The gap is pinned here, on full and on
thinned scenarios under each digest config, so that a change in either
direction shows. The engine's statuses come from each condition's compiled
evaluator, the one ``decide`` wraps, without building its verdicts.
"""

from collections import Counter

import pytest

from dismed import RunConfig
from dismed.conditions import STATUSES

from oracle import IND, SAT, VIO, oracle_statuses
from scen_gen import drop_responses, random_scenario
from test_golden import DIGEST_CONFIGS

#: Per digest config, the verdicts of 300 scenarios that the oracle calls
#: Violated and the engine Satisfied, per condition.
GAP = {
    "default": {"S16": 30, "S18": 27, "B7": 24, "B17": 21, "B19": 16, "B6": 9, "B10": 1},
    "min_skip_joint": {"S18": 38, "S16": 30, "B7": 24, "B17": 21, "B19": 21, "B6": 9, "B10": 1},
    "usa_wbs": {"S16": 30, "S18": 27, "B7": 24, "B17": 21, "B19": 16, "B6": 9, "B10": 1},
    "steps": {"S16": 29, "S18": 25, "B7": 24, "B19": 17, "B17": 17, "B6": 13, "B10": 1},
}

#: The same 300 scenarios with about half their links dropped: per condition,
#: and per (oracle, engine) pair. Against a bound of 0 whose other operand a
#: missing link leaves unknown on one side, an exact 0 is decided by the
#: oracle (0 > max(0, unknown) fails) and left undecided by the engine where
#: its noise is positive, or the other way round (0 > min(0, unknown)).
THINNED_GAP = {
    "default": {"S16": 20, "S18": 20, "B17": 15, "B7": 12, "B19": 11, "B6": 2},
    "min_skip_joint": {"S16": 20, "S18": 20, "B17": 15, "B19": 14, "B7": 12, "B6": 2},
    "usa_wbs": {"S16": 20, "S18": 20, "B17": 15, "B7": 12, "B19": 11, "B6": 2},
    "steps": {"S16": 16, "S18": 16, "B7": 11, "B17": 11, "B19": 11, "B6": 4},
}
THINNED_KINDS = {
    "default": {(VIO, IND): 54, (VIO, SAT): 21, (IND, SAT): 5},
    "min_skip_joint": {(VIO, IND): 54, (VIO, SAT): 24, (IND, SAT): 5},
    "usa_wbs": {(VIO, IND): 54, (VIO, SAT): 21, (IND, SAT): 5},
    "steps": {(VIO, IND): 44, (VIO, SAT): 22, (IND, SAT): 3},
}


@pytest.fixture(scope="module")
def full():
    return [random_scenario([11, i], separation=0.0) for i in range(300)]


@pytest.fixture(scope="module")
def thinned(full):
    return [drop_responses(scenario, [11, 10_000 + i]) for i, scenario in enumerate(full)]


def _gap(scenarios, cfg: RunConfig) -> tuple[Counter, Counter]:
    """Disagreements with the oracle, per condition and per (oracle, engine) pair."""
    gap, kinds = Counter(), Counter()
    for scenario in scenarios:
        expected = oracle_statuses(scenario, cfg)
        for cid, (_, run, _) in cfg.compiled.items():
            status = STATUSES[run(scenario, None)[0]].value
            if status != expected[cid.label]:
                gap[cid.label] += 1
                kinds[expected[cid.label], status] += 1
    return gap, kinds


@pytest.mark.parametrize("name", DIGEST_CONFIGS)
def test_the_engine_and_the_oracle_disagree_only_on_stencil_rounding(full, name):
    gap, kinds = _gap(full, RunConfig(**DIGEST_CONFIGS[name]))
    assert kinds == {(VIO, SAT): sum(GAP[name].values())}
    assert gap == GAP[name]


@pytest.mark.parametrize("name", DIGEST_CONFIGS)
def test_on_thinned_scenarios_they_disagree_only_on_stencil_rounding(thinned, name):
    gap, kinds = _gap(thinned, RunConfig(**DIGEST_CONFIGS[name]))
    assert kinds == THINNED_KINDS[name]
    assert gap == THINNED_GAP[name]
