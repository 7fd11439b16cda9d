import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

FIXTURES_DIR = TESTS_DIR / "fixtures"

# The slowest tier-1 tests, marked here so that the files that pin the
# acceptance gate stay as they are: `pytest -m "not slow"` runs the rest.
SLOW = frozenset((
    "test_acceptance.py::test_acceptance_1_oracle_equivalence_1000",
    "test_acceptance.py::test_acceptance_1b_oracle_equivalence_min_intersection",
    "test_optimizer.py::test_compiled_objective_equals_the_per_call_oracle",
    "test_streams.py::test_split_block_check_equals_row_check",
    "test_simulate.py::test_batch_path_equals_scalar_decide_draw_by_draw",
    "test_simulate.py::test_block_check_equals_row_check",
    "test_io.py::test_mutated_scenarios_fail_only_with_typed_errors",
    "test_golden.py::test_decide_digests_match_golden",
    "test_sweep_plan.py::test_settled_sides_equal_scalar_decide_draw_by_draw",
    "test_fuzz.py::test_every_call_exits_0_2_or_3_within_2_s",
))


def expr_symbols(node) -> set[str]:
    """Every symbol an expression tree reads (a tuple of trees, or None),
    derivative axes and integrands included."""
    from dismed.calculus import Axis, Joint, Sym
    from dismed.record import Record

    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, Joint):
        return {node.a, node.b}
    if isinstance(node, Axis):
        return set(node.names)
    if isinstance(node, tuple):
        return set().union(*map(expr_symbols, node))
    if isinstance(node, Record):
        return expr_symbols(tuple(getattr(node, name) for name in node._fields))
    return set()  # a constant's value or a derivative's order


def pytest_collection_modifyitems(items):
    for item in items:
        if f"{item.path.name}::{item.originalname}" in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture
def base_scenario():
    from dismed.io import load_scenario

    return load_scenario(FIXTURES_DIR / "all_three_satisfied.json")
