import pytest

from aisemiring.algebra import registry


@pytest.fixture(scope="session")
def S2():
    return registry("S2")


@pytest.fixture(scope="session")
def S7():
    return registry("S7")


@pytest.fixture(scope="session")
def S53():
    return registry("S53")


@pytest.fixture(scope="session")
def S4_124():
    return registry("S4_124")


@pytest.fixture(scope="session")
def S4_359():
    return registry("S4_359")


@pytest.fixture(scope="session")
def R6():
    return registry("R6")
