import faulthandler
import gc
import os
from contextlib import contextmanager

import pytest

from aisemiring.algebra import registry

#: a test that runs longer than this is taken to hang: every thread's
#: traceback is written to stderr and the run exits nonzero (the slowest
#: test takes a few seconds)
PER_TEST_SECONDS = 120
#: a copy of the terminal's stderr, made while output capture is suspended;
#: what a test writes to its own stderr is lost when the run exits
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _hang_limit(request):
    faulthandler.dump_traceback_later(
        PER_TEST_SECONDS, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


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
