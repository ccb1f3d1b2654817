import pytest

from locyc.cli import construct
from locyc.prime_search import SearchConfig
from locyc.target_builder import build_targets
from locyc.tate_series import build_bundle


@pytest.fixture(scope="session")
def bundle5():
    return build_bundle(5)


@pytest.fixture(scope="session")
def target5(bundle5):
    return build_targets(bundle5)


@pytest.fixture(scope="session")
def cert5():
    """One verified p = 5 certificate shared by the whole suite."""
    cert, report = construct(5, SearchConfig(seed=1))
    assert report.all_passed, report.lines()
    return cert


@pytest.fixture(scope="session")
def cert7():
    cert, _ = construct(7, SearchConfig(seed=1))
    return cert
