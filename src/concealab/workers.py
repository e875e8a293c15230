"""A command's independent models, trained at once in forked children.

Each job builds one run-directory stage through the same `ensure` path the
command takes later, which then loads it. A child reports
only its exit status and prints no error: a job that failed or was killed
leaves its artifact missing, so the command builds it in line and raises
exactly what it raises without workers.
"""
from __future__ import annotations

import os
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on. Where the platform cannot say
    (no affinity call, as on macOS and Windows) it counts one, so nothing
    forks there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _interrupt(signum, frame):
    raise SystemExit(1)


def _run_child(job) -> None:
    # signal is imported where it is used: a process that never forks does
    # not pay for building its enums (measured: +0.25 MB peak RSS on `train`)
    import signal

    # a terminated child unwinds, so an atomic write removes its temporary file
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        job()
    except BaseException:
        os._exit(1)
    os._exit(0)


class WorkerPool:
    """Runs zero-argument jobs in forked children: at most usable CPUs - 1
    at once while the parent does its own work, all of them once it waits
    in join(). With one usable CPU nothing forks and join() does nothing.
    Used as a context manager, it joins when the block ends; on any
    exception it terminates and reaps every child still running before the
    exception propagates."""

    def __init__(self, jobs=()):
        self._cpus = usable_cpus()
        self._pending = list(jobs) if self._cpus > 1 else []
        self._running: list[int] = []
        self._fill(self._cpus - 1)

    def _fill(self, slots: int) -> None:
        while self._pending and len(self._running) < slots:
            job = self._pending.pop(0)
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _run_child(job)
            self._running.append(pid)

    def join(self) -> None:
        """Run every job still pending and wait until all have ended."""
        self._fill(self._cpus)
        while self._running:
            self._reap()
            self._fill(self._cpus)

    def _reap(self) -> None:
        # a pid leaves the list only once reaped: an interrupted wait keeps it
        os.waitpid(self._running[0], 0)
        self._running.pop(0)

    def close(self) -> None:
        """Drop the pending jobs; terminate and reap every child still running."""
        import signal

        self._pending.clear()
        for pid in self._running:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        while self._running:
            self._reap()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.join()
        else:
            self.close()
