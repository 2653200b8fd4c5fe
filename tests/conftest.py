import pytest

from counterpoint import Dichotomy, build_world


@pytest.fixture(scope="session")
def fux_world():
    return build_world(Dichotomy.fux())


@pytest.fixture(scope="session")
def mystic_world():
    return build_world(Dichotomy.mystic())
