"""Checks must survive python -O, which strips every assert statement."""

import ast
from pathlib import Path

import pytest

import chipfire

PACKAGE = Path(chipfire.__file__).parent


@pytest.mark.parametrize("module", ["sgraph", "mmatrix", "duality", "verification", "cli"])
def test_module_has_no_assert(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements on lines {lines}"
