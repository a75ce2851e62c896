"""Fraction lives only where rationals are parsed or shown.

The arithmetic is integer: a rational is an integer numerator over a
denominator.  The name Fraction may appear only in refdata's frozen
tables and, in linalg, in the functions that build a rational (_norm,
over, parse_rational), each importing it itself: linalg has no
module-level import of it, so a process that parses and prints only
integers never loads fractions.  The rational helpers that the integer
core replaced, and the Fraction views and JSON helpers that over_json
replaced, must not come back.
"""

import ast
from pathlib import Path

import pytest

import chipfire

PACKAGE = Path(chipfire.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
ALLOWED = {
    "refdata": None,
    "linalg": {(kind, scope) for kind in ("import", "use") for scope in ("_norm", "over", "parse_rational")},
}
DELETED = {"floor_frac_split", "frac_part", "is_integer_entry", "mat_inverse", "_cofactor_adjugate",
           "mat_over", "rational_str", "vec_to_json", "mat_to_json", "lm_inv", "ml_inv"}


def identifiers(tree):
    """(kind, name, top-level scope) for every name, attribute, import and
    definition in the module; kind is "import" for an import, else "use"."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield "use", node.id, scope
            elif isinstance(node, ast.Attribute):
                yield "use", node.attr, scope
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield "use", node.name, scope
            elif isinstance(node, ast.alias):
                yield "import", node.name, scope
                if node.asname:
                    yield "import", node.asname, scope


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_linalg_and_verification_are_checked():
    assert {"linalg", "verification", "pairs", "refdata"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_fraction_only_at_the_boundary(module):
    allowed = ALLOWED.get(module, set())
    if allowed is None:
        return
    found = {(kind, scope) for kind, name, scope in identifiers(parse(module)) if name == "Fraction"}
    assert found <= allowed, f"{module}.py uses Fraction in {sorted(found - allowed)}"


@pytest.mark.parametrize("module", MODULES)
def test_deleted_rational_helpers_stay_gone(module):
    back = {name for _, name, _ in identifiers(parse(module)) if name in DELETED}
    assert not back, f"{module}.py names {sorted(back)}"
