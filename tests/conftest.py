import gc
from contextlib import contextmanager

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


@contextmanager
def _no_reference_cycles():
    # a cycle keeps what it holds alive until a full collection, which
    # raises peak memory; with gc off, the calls in the block leave none
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def no_reference_cycles():
    """A context manager asserting that its block leaves no cyclic garbage;
    build its inputs before entering it."""
    return _no_reference_cycles
