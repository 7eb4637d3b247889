"""Suite-wide fixtures, the fixed_block_rows seam and the Hypothesis profile."""

import contextlib
import threading
from unittest import mock

import pytest
from hypothesis import settings

from condmc import sde
from condmc.streams import PATHS_PER_STREAM

# every property test draws the same examples on every run, so a CI failure
# reproduces; examples share the suite's wall time, not a per-example deadline.
# A test's own settings(...) set only its max_examples
settings.register_profile("condmc", deadline=None, derandomize=True)
settings.load_profile("condmc")


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


@contextlib.contextmanager
def fixed_block_rows(rows):
    """Within the with block, sde.per_path plans its blocks from `rows` rows
    in place of the byte budget's block_rows; None keeps the budget.  Below
    MIN_WORKER_ROWS that is one worker on blocks of `rows` rows; under
    force_workers, up to rows // PATHS_PER_STREAM workers split the rows in
    whole stream groups.  A context manager, not a fixture, so that
    Hypothesis tests can use it."""
    if rows is None:
        yield
        return
    with mock.patch.object(sde, "block_rows", lambda model, grid: rows):
        yield
