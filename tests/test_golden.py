"""CLI output checked byte for byte against frozen golden files.

Each case runs `chipfire.cli.main` in-process.  Its stdout must equal
tests/golden/<case>.out and its exit code the entry for <case> in
tests/golden/exit_codes.json.  The files hold what the CLI printed when
they were frozen; a change in them is a change in the CLI's behaviour.

paper-check renders the session's shared `verification.run_all()` result
(tests/conftest.py) in all three formats, so the K6 sweep inside it runs
once for the whole test session.
"""

import json
from pathlib import Path

import pytest

from chipfire import verification
from chipfire.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "json", "csv")

PAIR_COMMANDS = {
    "check-mmatrix": ["check-mmatrix"],
    "show-pair": ["show-pair"],
    "group": ["group"],
    "enumerate-superstable": ["enumerate", "--kind", "superstable"],
    "enumerate-critical-preimages": ["enumerate", "--kind", "critical", "--preimages"],
    "duality": ["duality"],
    "duality-mu-cases": ["duality", "--show-mu-cases"],
    "duality-inverse": ["duality", "--inverse"],
    "fixed-points": ["fixed-points"],
    "fixed-points-predict": ["fixed-points", "--predict"],
    "frackets-L": ["frackets", "--side", "L"],
    "frackets-M": ["frackets", "--side", "M"],
    "frackets-verify": ["frackets", "--verify"],
}
FAMILIES = (("cycle", 4), ("cycle", 6), ("complete", 4), ("complete", 5))
VERIFY = (None, "critical-groups", "half-n", "z2-subgroup")


def golden_cases():
    """(case name, argv) for every frozen invocation."""
    cases = []
    for fixture in ("diamond", "c6-negative"):
        for name, argv in PAIR_COMMANDS.items():
            for fmt in FORMATS:
                cases.append((f"{name}.{fixture}.{fmt}", [*argv, "--fixture", fixture, "--format", fmt]))
    for kind, n in FAMILIES:
        for verify in VERIFY:
            extra = ["--verify", verify] if verify else []
            for fmt in FORMATS:
                argv = ["family-scan", "--kind", kind, "--n", str(n), *extra, "--format", fmt]
                cases.append((f"family-scan.{kind}-{n}.{verify or 'plain'}.{fmt}", argv))
    for fmt in FORMATS:
        cases.append((f"paper-check.{fmt}", ["paper-check", "--format", fmt]))
    return cases


CASES = golden_cases()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_files_match_cases(exit_codes):
    names = [name for name, _ in CASES]
    assert sorted(exit_codes) == sorted(names)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(names)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(request, monkeypatch, capsys, exit_codes, name, argv):
    if argv[0] == "paper-check":
        results = request.getfixturevalue("paper_results")
        monkeypatch.setattr(verification, "run_all", lambda: results)
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert code == exit_codes[name]
