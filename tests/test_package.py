"""The package's public names: eager ones and those loaded on first access."""

import ast
import re

import pytest

import dismed

from conftest import TESTS_DIR
from test_bench_bindings import tracing

ROOT = TESTS_DIR.parent


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


def _reads(tree: ast.AST, package: bool = False) -> set[str]:
    """The names ``tree`` loads, the attributes it reads and the names it
    imports. For a module of the package (``package``), its imports do not
    count, since ``__init__`` imports every public name, and neither does a
    top-level definition's use of its own name."""
    out = set()
    for top in tree.body:
        own = getattr(top, "name", None) if package else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                if isinstance(node, ast.ImportFrom) and not package:
                    out.update(alias.name for alias in node.names)
                continue
            if name != own:
                out.add(name)
    return out


def test_every_public_name_has_a_caller():
    # a caller: the package itself (the CLI included) outside the name's own
    # definition, the README's library quick start, an acceptance test,
    # perfbench (its tracer wraps bindings by name) or scripts; unit tests
    # of the name do not count
    read = {attr for _, attr, _ in tracing.SPANNED + tracing.COUNTED}
    for path in (ROOT / "src" / "dismed").glob("*.py"):
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")), package=True)
    for path in (*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                 TESTS_DIR / "test_acceptance.py"):
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S)
    read |= _reads(ast.parse(quick_start.group(1)))
    assert [name for name in dismed.__all__ if name not in read] == []
