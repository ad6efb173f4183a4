"""Checks on the package source itself, read as syntax trees.

An `assert` statement is no check: `python -O` strips it, so an invariant
must raise on its own.  And no module evaluates text as code: nothing
named `eval`, `exec` or `compile` is called anywhere in the package, as a
builtin or as an attribute (`re.compile` included).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "flipwidth"
MODULES = sorted(SRC.glob("*.py"))
BANNED_CALLS = {"eval", "exec", "compile"}


def _name(func):
    """The name a call goes by: f for f(...) and for x.f(...)."""
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_code_from_text(path):
    tree = ast.parse(path.read_text(), str(path))
    calls = [(node.lineno, _name(node.func)) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) in BANNED_CALLS]
    assert calls == [], f"{path.name}: calls {calls}"
