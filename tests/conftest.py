"""The skip rule of the tests marked forks, a time limit for calls that may
hang and a memory cap for calls that must build nothing large."""

import multiprocessing
import os
import resource
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


@pytest.fixture
def memory_cap():
    """Cap this process's address space at 256 MiB above its size for the
    test, so that a graph built by mistake raises MemoryError instead of
    taking the host's memory. The size is read from /proc/self/statm."""
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the memory cap reads the process size from /proc/self/statm")
    with open("/proc/self/statm", encoding="ascii") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (256 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
