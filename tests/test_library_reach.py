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

Every default parameter of a function or method of the package must be
passed by some call in the package or the benchmark scripts and left out
by another: a default that no call passes is a constant, and one that
every call passes is a required parameter.
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


def _defaults(node, method):
    """(name, position in a call or None) for each parameter of the
    function node that has a default; a method's positions skip self."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in node.decorator_list) else 0
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def idle_defaults(package, extra=()):
    """Sorted "module.name(parameter)" entries for the default parameters
    of the functions and methods in package/*.py that no call in
    package/*.py or the extra files passes, or that every such call
    passes.  A call matches a definition by its bare name, and a call
    with *args or **kwargs counts as passing and as leaving out."""
    trees = {path: ast.parse(path.read_text()) for path in [*sorted(package.glob("*.py")), *extra]}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, name, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            for param, index in _defaults(node, "." in qualname):
                passed = omitted = False
                for call in calls.get(name, ()):
                    if (any(isinstance(a, ast.Starred) for a in call.args)
                            or any(k.arg is None for k in call.keywords)):
                        passed = omitted = True
                    elif (any(k.arg == param for k in call.keywords)
                            or index is not None and index < len(call.args)):
                        passed = True
                    else:
                        omitted = True
                if not (passed and omitted):
                    found.append(f"{path.stem}.{qualname}({param})")
    return sorted(found)


def test_every_default_parameter_is_both_passed_and_left_out():
    assert idle_defaults(PACKAGE, sorted(BENCH.glob("*.py"))) == []


def test_an_idle_default_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "core.py").write_text(
        "def varied(x, y=1, *, z=2):\n    return x + y + z\n\n\n"
        "def never(x, y=1):\n    return x + y\n\n\n"
        "def always(x, y=1):\n    return x + y\n\n\n"
        "def spread(x, y=1):\n    return x + y\n\n\n"
        "class Box:\n"
        "    def put(self, x, y=1):\n        return x + y\n\n\n"
        "def use(box, args):\n"
        "    varied(1) + varied(1, 2, z=3) + varied(1, y=2)\n"
        "    never(1) + always(1, 2) + always(1, y=3) + spread(*args)\n"
        "    return box.put(1) + box.put(1, 2)\n")
    assert idle_defaults(package) == ["core.always(y)", "core.never(y)"]
