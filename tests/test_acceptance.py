"""Acceptance matrix, one test per criterion.

Each test runs the matching verification check and reports one pass or
fail line under pytest -v.  Runtime bounds are part of the contract for
the criteria that carry one.  Criteria 3 and 10 check the reference's
printed errata as expected discrepancies: they pass when the computed
values hold and the printed ones are wrong in exactly the known way.
"""

from chipfire.linalg import verdict
from chipfire.verification import run_criterion


def _run(number, bound=None):
    result = run_criterion(number)
    if bound is not None:
        assert result.seconds < bound, (
            f"criterion {number} took {result.seconds:.2f}s, bound is {bound}s"
        )
    assert result.passed, f"criterion {number} ({result.name}) failed:\n{result.detail}"


def test_criterion_01_unsigned_baseline():
    _run(1, bound=1.0)


def test_criterion_02_pair_enumeration():
    _run(2, bound=1.0)


def test_criterion_03_duality_map():
    _run(3)


def test_criterion_04_involution():
    _run(4)


def test_criterion_05_frackets():
    _run(5, bound=1.0)


def test_criterion_06_fixed_points():
    _run(6, bound=10.0)


def test_criterion_07_no_cmax_cycle():
    _run(7, bound=5.0)


def test_criterion_08_k6_theorems():
    _run(8, bound=120.0)


def test_criterion_09_property_suites():
    _run(9, bound=60.0)


def test_criterion_10_scaled_transfer_erratum():
    _run(10)


def test_verdict_rule():
    facts = [(True, "first"), (False, "second\n       kept as it is")]
    assert verdict(facts, "summary") == (False, "ok   first\nFAIL second\n       kept as it is")
    assert verdict(facts[:1], "summary") == (True, "summary")
    assert verdict(facts[:1]) == (True, "ok   first")
