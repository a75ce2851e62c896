import functools

import pytest

from chipfire import fixtures, verification
from chipfire.sgraph import _pattern_of, _switching_tree, family, reduced_laplacians


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


def _format_edge_list(g):
    """The edge-list text of a signed graph, as parse_edge_list reads it."""
    out = [f"n {g.n} sink {g.sink}"]
    out.extend(f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in g.edges)
    return "\n".join(out) + "\n"


@pytest.fixture(scope="session")
def format_edge_list():
    return _format_edge_list


def _switching_representatives(kind, n):
    """One sign pattern per switching class of the family, ascending, as
    (pattern, weight): the patterns that are + on the spanning tree the
    breadth-first search from vertex 1 takes through the non-sink edges,
    each weighted by its class size 2^(n-2).  The weights sum to
    pattern_count(kind, n); the chipfire.sgraph docstring has the
    argument."""
    _, _, free = _switching_tree(kind, n)
    for index in range(1 << len(free)):
        yield _pattern_of(free, index), 1 << n - 2


@pytest.fixture(scope="session")
def switching_representatives():
    """The oracle behind class_sweep, for the tests that check it."""
    return _switching_representatives


@functools.cache
def _class_sweep(kind, n):
    m = reduced_laplacians(family(kind, n)).m
    return [(weight, reduced_laplacians(family(kind, n, pattern), shared_m=m))
            for pattern, weight in _switching_representatives(kind, n)]


@pytest.fixture(scope="session")
def class_sweep():
    """The oracle for the orbit scan: class_sweep(kind, n) gives one
    (weight, pair) row per switching class of the family, weighted by its
    2^(n-2) patterns, each pair built from its tree-positive pattern.
    Cached for the session."""
    return _class_sweep
