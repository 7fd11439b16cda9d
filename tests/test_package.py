"""The package's public names: eager ones and those loaded on first access."""

import re

import pytest

import dismed

from conftest import TESTS_DIR


@pytest.mark.parametrize("name", dismed.__all__)
def test_every_public_name_resolves_and_is_listed(name):
    assert getattr(dismed, name) is not None
    assert name in dir(dismed)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from dismed import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dismed.__all__)


def test_readme_quick_start_import_line_works():
    readme = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Library quick start", 1)[1]
    line = re.search(r"^from dismed import \(.*?\)$", quick_start, re.M | re.S).group(0)
    namespace = {}
    exec(line, namespace)
    assert namespace["run_sweep"] is dismed.simulate.run_sweep
    assert namespace["optimize_broker"] is dismed.optimizer.optimize_broker


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dismed.no_such_name
    assert not hasattr(dismed, "no_such_name")
