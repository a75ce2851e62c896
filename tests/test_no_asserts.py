"""Checks must survive python -O, which strips every assert statement."""

import ast
from pathlib import Path

import pytest

import chipfire

PACKAGE = Path(chipfire.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_every_module_is_checked():
    # the glob sees the whole package, not an empty or wrong directory
    assert {"cli", "duality", "fixtures", "frackets", "lattices", "linalg", "mmatrix",
            "pairs", "refdata", "rows", "sgraph", "verification"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements on lines {lines}"
