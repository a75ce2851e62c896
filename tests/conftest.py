import pytest

from chipfire import fixtures, verification


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
