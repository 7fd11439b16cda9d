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
))


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
