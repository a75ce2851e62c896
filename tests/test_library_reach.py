"""Library code must reach behaviour: every function, class and method
of the package is read somewhere other than its own definition.

A name counts as read where it appears as an ast.Name or ast.Attribute
in the package or in the benchmark scripts (bench/*.py), outside the
definition itself.  Imports, strings, docstrings and the tests do not
count, so a name that only the tests call is reported: move it into the
tests or delete it.  The package's __init__ only re-exports, so its own
definitions are not checked.

Every field of a namedtuple value class of the package must be read as
an attribute somewhere in the package, the benchmark scripts or the
tests; a field that nothing reads is carried for nobody.
"""

import ast
from pathlib import Path

import chipfire

PACKAGE = Path(chipfire.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"
TESTS = Path(__file__).parent


def _definitions(tree):
    """(qualified name, bare name, node) for each top-level function and
    class and each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _reads(node):
    """The names read as ast.Name or ast.Attribute under node, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreached(package, extra=()):
    """Sorted "module.name" entries for the definitions in package/*.py
    (all but __init__) that nothing in package/*.py or the extra files
    reads outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    trees.update((path, ast.parse(path.read_text())) for path in extra)
    reads = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    missing = []
    for path, tree in trees.items():
        if path.parent != package or path.stem == "__init__":
            continue
        for qualname, name, node in _definitions(tree):
            inside = sum(1 for read in _reads(node) if read == name)
            if reads.get(name, 0) == inside:
                missing.append(f"{path.stem}.{qualname}")
    return sorted(missing)


def _namedtuple_fields(tree):
    """(class name, field) for each namedtuple("Name", "fields") call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple"
                and len(node.args) == 2 and all(isinstance(a, ast.Constant) for a in node.args)):
            for field in node.args[1].value.replace(",", " ").split():
                yield node.args[0].value, field


def unread_fields(package, extra=()):
    """Sorted "module.Class.field" entries for the namedtuple fields
    defined in package/*.py that no attribute load in package/*.py or
    the extra files reads."""
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(package.glob("*.py")), *extra]}
    loads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return sorted(f"{path.stem}.{name}.{field}" for path, tree in trees.items()
                  if path.parent == package
                  for name, field in _namedtuple_fields(tree) if field not in loads)


def test_every_definition_reaches_behaviour():
    bench = sorted(BENCH.glob("*.py"))
    assert bench, "the benchmark scripts are found"
    assert unreached(PACKAGE, bench) == []


def test_an_unused_function_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import used, unused\n")
    (package / "core.py").write_text(
        '"""used and unused."""\n\n'
        "def used(x):\n    return helper(x)\n\n\n"
        "def helper(x):\n    return x\n\n\n"
        "def unused(x):\n    return unused(x - 1) if x else 0\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.value = used(1)\n\n"
        "    def read(self):\n        return self.value\n\n"
        "    def spare(self):\n        return 'spare'\n")
    (tmp_path / "bench.py").write_text("import pkg\n\nprint(pkg.core.Box().read())\n")
    assert unreached(package, [tmp_path / "bench.py"]) == ["core.Box.spare", "core.unused"]
    assert unreached(package) == ["core.Box", "core.Box.read", "core.Box.spare", "core.unused"]


def test_every_namedtuple_field_is_read():
    extra = sorted(BENCH.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert unread_fields(PACKAGE, extra) == []


def test_an_unread_field_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "core.py").write_text(
        "from collections import namedtuple\n\n"
        'Box = namedtuple("Box", "used, spare")\n\n\n'
        "def make():\n    box = Box(used=1, spare=2)\n    box.spare = 3\n    return box.used\n")
    assert unread_fields(package) == ["core.Box.spare"]
