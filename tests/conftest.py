import contextlib
import signal

import pytest


@contextlib.contextmanager
def _deadline(seconds=60):
    """Turn a hang (a child never joined, a pipe never read) into a failure."""

    def expire(*_):  # not TimeoutError: multiprocessing swallows OSErrors while joining
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(seconds=60):`` fails a block that runs longer."""
    return _deadline
