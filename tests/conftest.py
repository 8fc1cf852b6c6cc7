"""The skip rule of the tests marked forks, and a time limit for calls that may hang."""

import multiprocessing
import os
import signal

import pytest


def pytest_runtest_setup(item):
    if item.get_closest_marker("forks") and (
        not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods()
    ):
        pytest.skip("the library forks workers only where the fork start method and os.sched_getaffinity exist")


@pytest.fixture
def deadline():
    """Turn a call that hangs into a failure after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("the call did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
