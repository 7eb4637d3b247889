"""Suite-wide fixtures."""

import threading

import pytest

from condmc import sde
from condmc.streams import PATHS_PER_STREAM


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that ends with threads alive that it did not start with:
    the block loop's helpers must all be joined before an estimator returns
    or raises."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def force_workers(monkeypatch):
    """force(n) runs sde.per_path on up to n workers, whatever the machine's
    CPUs, and lets blocks of one stream group have a worker each."""

    def force(workers):
        monkeypatch.setattr(sde, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(sde, "MIN_WORKER_ROWS", PATHS_PER_STREAM)

    return force
