"""One fork pool for independent jobs: the ``verify all`` suites.

:func:`run_jobs` forks one child per zero-argument callable, at most
:func:`usable_workers` at a time, and returns their results in job order.
A child inherits its job with the rest of the parent's memory, so a job may
close over anything, arrays and lambdas included; only its result, or the
exception it raised, is pickled, and comes back over a pipe.  The child then
ends with ``os._exit``, running none of the parent's exit handlers.  Forking
directly costs a few milliseconds where a ``ProcessPoolExecutor`` costs tens,
and loads neither ``multiprocessing`` nor ``concurrent.futures``.
"""

from __future__ import annotations

import os
import pickle
import select
import sys

from .errors import PolarflowError

__all__ = ["run_jobs", "usable_workers"]


def usable_workers() -> int:
    """Workers a pool may start: one per core this process may use.

    0 on one core, where a pool only adds cost, or where ``fork`` is unavailable.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cores if cores >= 2 and hasattr(os, "fork") else 0


def _child(job, write_fd: int) -> None:
    """Run ``job`` in a forked child, send ``(ok, result or exception)`` to ``write_fd``, and end."""
    try:
        try:
            payload = (True, job())
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "result" if payload[0] else f"{type(payload[1]).__name__} exception"
            data = pickle.dumps((False, PolarflowError(f"a worker's {what} cannot be sent back ({exc})")))
        sys.stdout.flush()
        sys.stderr.flush()
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _outcome(data: bytes, status: int) -> tuple[bool, object]:
    """``(ok, result or exception)`` of a child that sent ``data`` and ended with wait ``status``."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        return False, PolarflowError(f"a worker process died (exit code {code})")
    try:
        return pickle.loads(data)
    except Exception as exc:
        return False, PolarflowError(f"a worker's outcome cannot be read back ({exc})")


def run_jobs(jobs) -> list:
    """Run every job, listed longest first; return their results in job order.

    With two or more usable workers each job runs in a forked child, started
    only when fewer than that many run.  The pipes are read with ``select``
    while the children run, so a child never blocks on a full pipe.  The
    first exception a job raises is raised here once the running jobs end,
    and no later job starts; a child that dies is a :class:`PolarflowError`.
    Every child is reaped before this returns.  Otherwise the jobs run in
    turn in this process.
    """
    jobs = tuple(jobs)
    workers = min(usable_workers(), len(jobs))
    if workers < 2:
        return [job() for job in jobs]

    # a child flushes its stdio buffers before it ends: empty the inherited ones first
    sys.stdout.flush()
    sys.stderr.flush()
    queued = iter(enumerate(jobs))
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # read end: (job index, pid, bytes read)
    results: dict[int, object] = {}
    error = None

    def start() -> None:
        while len(running) < workers and (item := next(queued, None)) is not None:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(item[1], write_fd)
            os.close(write_fd)
            running[read_fd] = (item[0], pid, [])

    try:
        start()
        while running:
            for fd in select.select(list(running), [], [])[0]:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    running[fd][2].append(chunk)
                    continue
                index, pid, chunks = running.pop(fd)
                os.close(fd)
                ok, value = _outcome(b"".join(chunks), os.waitpid(pid, 0)[1])
                if ok:
                    results[index] = value
                elif error is None:
                    error = value
            if error is None:
                start()
    finally:
        for fd, (_, pid, _) in running.items():  # left only if this process was interrupted
            os.close(fd)
            os.waitpid(pid, 0)
    if error is not None:
        raise error
    return [results[i] for i in range(len(jobs))]

