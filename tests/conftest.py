import functools

import pytest

from chipfire import fixtures, verification
from chipfire.sgraph import family, reduced_laplacians, switching_representatives


@pytest.fixture(scope="session")
def diamond():
    return fixtures.diamond_pair()


@pytest.fixture(scope="session")
def c6_negative():
    return fixtures.negative_c6_pair()


@pytest.fixture(scope="session")
def paper_results():
    """One `verification.run_all()` result, shared by every test that renders
    `paper-check`, so the K6 sweep inside it runs once per session."""
    return verification.run_all()


@functools.cache
def _class_sweep(kind, n):
    m = reduced_laplacians(family(kind, n)).m
    return [(weight, reduced_laplacians(family(kind, n, pattern), shared_m=m))
            for pattern, weight in switching_representatives(kind, n)]


@pytest.fixture(scope="session")
def class_sweep():
    """The oracle for the orbit scan: class_sweep(kind, n) gives one
    (weight, pair) row per switching class of the family, weighted by its
    2^(n-2) patterns, each pair built from its tree-positive pattern.
    Cached for the session."""
    return _class_sweep
