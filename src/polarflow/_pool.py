"""One fork pool for independent jobs: the ``verify all`` suites and the ``evolve`` writers.

:func:`run_jobs` runs zero-argument callables in forked worker processes and
returns their results in job order.  A job reaches its worker as an index
into :data:`_JOBS`, which is set before the pool forks, so only the index
and the job's result (or exception) are pickled; a job may close over
anything, arrays and lambdas included.  Workers fork rather than spawn: a
spawned worker would import the package again and need its inputs pickled.
"""

from __future__ import annotations

import os
import sys
from itertools import islice

from .errors import PolarflowError

__all__ = ["run_jobs", "usable_workers"]

# the files one run writes share a directory, where file creation is serial
# in the kernel; more workers only add forks
MAX_WORKERS = 8

_JOBS: tuple = ()


def usable_workers() -> int:
    """Workers a pool may start: one per core this process may use, up to :data:`MAX_WORKERS`.

    0 on one core, where a pool only adds cost, or where ``fork`` is unavailable.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cores, MAX_WORKERS) if cores >= 2 and hasattr(os, "fork") else 0


def _run(index: int):
    return _JOBS[index]()


def run_jobs(jobs) -> list:
    """Run every job, listed longest first; return their results in job order.

    With two or more usable workers the jobs run in forked processes, each
    started only when a worker is free: the executor hands submitted calls
    to its workers ahead of time, out of reach of ``cancel``, so a job that
    raises would otherwise wait for every later job.  The first exception a
    job raises is raised here, once the running jobs end; a worker that dies
    is a :class:`PolarflowError`.  Otherwise the jobs run in turn in this
    process.
    """
    global _JOBS
    jobs = tuple(jobs)
    workers = min(usable_workers(), len(jobs))
    if workers < 2:
        return [job() for job in jobs]

    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # a forked worker flushes the buffers it inherited when it exits: empty them first
    sys.stdout.flush()
    sys.stderr.flush()
    _JOBS = jobs
    queued = iter(range(len(jobs)))
    results: dict[int, object] = {}
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        running = {pool.submit(_run, i): i for i in islice(queued, workers)}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()
                index = next(queued, None)
                if index is not None:
                    running[pool.submit(_run, index)] = index
    except BrokenProcessPool as exc:
        raise PolarflowError(f"a worker process died ({exc})") from None
    finally:
        pool.shutdown()
        _JOBS = ()
    return [results[i] for i in range(len(jobs))]
