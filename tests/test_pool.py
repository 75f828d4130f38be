"""The fork pool: results in job order, the first exception raised here, the in-process path."""

import errno
import os
import threading
import time

import numpy as np
import pytest

from polarflow import _pool
from polarflow._pool import run_jobs, usable_workers
from polarflow.errors import PolarflowError


@pytest.fixture
def cores(monkeypatch):
    """Set the cores this process may use, as ``os.sched_getaffinity`` reports them."""

    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cores


@pytest.fixture
def pooled(cores):
    if not hasattr(os, "fork"):
        pytest.skip("the pool needs the fork start method")
    cores(2)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(i, delay=0.0):
    """A job that sleeps, then returns its index and the pid of the process it ran in."""

    def job():
        time.sleep(delay)
        return i, os.getpid()

    return job


class Unsendable(Exception):
    """An exception that holds a lock, so it does not pickle."""

    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class NeedsTwo(Exception):
    """An exception that pickles, but cannot be rebuilt from the one message it keeps."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestRunJobs:
    def test_results_in_job_order(self, pooled):
        # the first jobs sleep longest, so they finish last
        results = run_jobs([tagged(i, 0.02 * (5 - i)) for i in range(6)])
        assert [i for i, _ in results] == list(range(6))
        assert os.getpid() not in {pid for _, pid in results}
        assert_no_children()

    def test_jobs_travel_by_index(self, pooled):
        lock = threading.Lock()  # unpicklable: a child inherits its job, which is never pickled
        assert run_jobs([lambda: lock.locked()] * 3) == [False] * 3

    def test_first_exception_is_raised_here(self, pooled):
        def full():
            raise OSError(errno.ENOSPC, "No space left on device", "frames/frame_00003.svg")

        with pytest.raises(OSError) as info:
            run_jobs([tagged(0, 0.05), full, tagged(2)])
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, "frames/frame_00003.svg")
        assert_no_children()

    def test_dead_worker_is_a_polarflow_error(self, pooled):
        with pytest.raises(PolarflowError, match="a worker process died"):
            run_jobs([lambda: os._exit(1), tagged(1)])
        assert_no_children()

    def test_large_result_comes_back_intact(self, pooled):
        # far more than a pipe holds: the pool must read while the child writes
        big = np.random.default_rng(5).random(1 << 18)  # 2 MB
        results = run_jobs([lambda: big * 2.0, tagged(1, 0.05), lambda: big.tobytes()])
        assert results[0].tobytes() == (big * 2.0).tobytes()
        assert results[1][0] == 1 and results[2] == big.tobytes()
        assert_no_children()

    def test_unpicklable_exception_is_one_error(self, pooled):
        def raises():
            raise Unsendable()

        with pytest.raises(PolarflowError, match="Unsendable exception cannot be sent back"):
            run_jobs([raises, tagged(1, 0.05)])
        assert_no_children()

    def test_unreadable_exception_is_one_error(self, pooled):
        def raises():
            raise NeedsTwo(1, 2)

        with pytest.raises(PolarflowError, match="outcome cannot be read back"):
            run_jobs([tagged(0), raises])
        assert_no_children()

    @pytest.mark.parametrize("n_cores, fork", [(1, True), (2, False)], ids=["one_core", "no_fork"])
    def test_in_process_without_a_pool(self, monkeypatch, cores, n_cores, fork):
        cores(n_cores)
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        assert usable_workers() == 0
        assert run_jobs([tagged(i) for i in range(3)]) == [(i, os.getpid()) for i in range(3)]

    def test_one_job_runs_in_process(self, pooled):
        assert run_jobs([tagged(0)]) == [(0, os.getpid())]

    @pytest.mark.parametrize("n_cores, want", [(2, 2), (6, 6), (64, _pool.MAX_WORKERS)])
    def test_worker_count(self, cores, n_cores, want):
        if not hasattr(os, "fork"):
            pytest.skip("the pool needs the fork start method")
        cores(n_cores)
        assert usable_workers() == want
