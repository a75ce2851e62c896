"""What a CLI process loads, and the value classes it loads instead of
dataclasses.

A command imports only what it runs: `import chipfire.cli` leaves out the
acceptance suite (`verification`, `refdata`), the duality and fracket
modules, and `dataclasses`, which pulls in `inspect` and its parsers.
The package still names the entry points of those modules and loads
them on first use.  `fractions`, and the `decimal` module it imports,
load only when a rational is parsed or built: every command but
`paper-check` renders its rationals from integer numerators, in every
format, so none loads them on integer input.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chipfire
from chipfire.cli import Report, main
from chipfire.fixtures import diamond_graph, diamond_pair
from chipfire.frackets import fracket_checks, fracket_partition
from chipfire.lattices import AbelianGroup
from chipfire.verification import CriterionResult

SRC = str(Path(chipfire.__file__).resolve().parent.parent)

COLD_START = """
import sys
import chipfire.cli
print(sorted(m for m in ("dataclasses", "inspect", "chipfire.verification", "chipfire.refdata")
             if m in sys.modules))
from chipfire import CriterionResult, run_all, run_criterion
print(callable(run_all) and callable(run_criterion), CriterionResult.__module__)
"""


LAZY_MODULES = """
import sys
import chipfire
import chipfire.cli

print(sorted(m for m in ("chipfire.duality", "chipfire.frackets") if m in sys.modules))
from chipfire.duality import duality_rows
from chipfire import duality, duality_table, fracket_partition
print(duality.__module__, duality.__name__, duality_table.__module__, fracket_partition.__module__)
"""


def test_cli_import_leaves_duality_and_frackets_out():
    # the submodule chipfire.duality loads first here, and the package name
    # chipfire.duality still resolves to the function
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", LAZY_MODULES], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\nchipfire.duality duality chipfire.duality chipfire.frackets\n"


def test_every_exported_name_resolves():
    assert all(getattr(chipfire, name) is not None for name in chipfire.__all__)
    assert callable(chipfire.duality) and chipfire.duality.__name__ == "duality"


def test_cli_import_leaves_the_suite_and_dataclasses_out():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\nTrue chipfire.verification\n"


RATIONAL_FREE = """
import contextlib, io, sys
import chipfire.cli

def loaded():
    return sorted(m for m in ("fractions", "decimal", "chipfire.verification") if m in sys.modules)

print(loaded())
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [chipfire.cli.main(["enumerate", "--kind", "superstable", "--preimages",
                                "--fixture", "diamond"]),
             chipfire.cli.main(["duality", "--fixture", "diamond"]),
             chipfire.cli.main(["duality", "--inverse", "--fixture", "diamond"])]
    codes += [chipfire.cli.main(["frackets", "--side", side, "--format", fmt,
                                 "--fixture", "diamond"])
              for side in "LM" for fmt in ("table", "csv", "json")]
    codes += [chipfire.cli.main([*argv, "--format", fmt, "--fixture", "diamond"])
              for argv in (["show-pair"], ["check-mmatrix"], ["group"], ["fixed-points"],
                           ["fixed-points", "--predict"], ["frackets", "--verify"])
              for fmt in ("table", "csv", "json")]
    codes.append(chipfire.cli.main(["family-scan", "--kind", "complete", "--n", "4"]))
print(codes, "/" in out.getvalue(), loaded())
"""


def test_enumerate_and_duality_load_no_fractions():
    # the diamond rows, keys and transfers have denominators 6 and 4, so
    # the row, fracket and show-pair commands print rationals; frackets
    # --verify leaves the acceptance suite out too
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", RATIONAL_FREE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n" + str([0] * 28) + " True []\n"


ROW_COMMANDS_ONLY = """
import contextlib, io, sys
import chipfire.cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [chipfire.cli.main(["duality", "--show-mu-cases", "--fixture", "diamond"]),
             chipfire.cli.main(["enumerate", "--kind", "critical", "--fixture", "diamond"])]
print(codes, sorted(m for m in ("chipfire.duality", "chipfire.frackets") if m in sys.modules))
"""


def test_duality_leaves_the_fracket_module_out():
    # duality imports frackets only inside the fixed-point predictions
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", ROW_COMMANDS_ONLY], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[0, 0] ['chipfire.duality']\n"


def test_a_lazy_name_is_imported_on_its_first_read_only(monkeypatch):
    # the first read stores the name on the package, so the second one
    # reaches neither __getattr__ nor import_module
    monkeypatch.delattr(chipfire, "fixed_points", raising=False)
    real = importlib.import_module
    calls = []
    monkeypatch.setattr(importlib, "import_module",
                        lambda name, *args: calls.append(name) or real(name, *args))
    first = chipfire.fixed_points
    assert calls == ["chipfire.duality"]
    assert chipfire.fixed_points is first
    assert calls == ["chipfire.duality"]
    assert callable(chipfire.duality) and vars(chipfire)["duality"] is chipfire.duality


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        chipfire.missing


def test_paper_check_loads_the_suite_when_it_runs(monkeypatch, capsys, paper_results):
    # the command resolves chipfire.verification at call time, whatever
    # module sys.modules holds then
    suite = types.ModuleType("chipfire.verification")
    suite.run_all = lambda: paper_results
    monkeypatch.delattr(chipfire, "verification")
    monkeypatch.setitem(sys.modules, "chipfire.verification", suite)
    assert main(["paper-check"]) == 0
    assert capsys.readouterr().out.endswith("10 passed, 0 failed\n")


VALUES = [
    AbelianGroup((2, 4)),
    diamond_graph(),
    fracket_partition(diamond_pair(), "L"),
    fracket_checks(diamond_pair()),
    CriterionResult(1, "unsigned-baseline", True, "ok", 0.5),
    Report({}, ("field",), [], None),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_classes_are_immutable(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_value_reprs():
    assert repr(VALUES[4]) == (
        "CriterionResult(number=1, name='unsigned-baseline', passed=True, detail='ok', seconds=0.5)")
    assert repr(VALUES[5]) == "Report(payload={}, headers=('field',), rows=[], lines=None, code=0)"
    assert repr(diamond_graph()).startswith("SignedGraph(n=4, edges=((1, 2, ")
    assert Report({}, (), []).code == 0
