"""A clean process that forks one worker process per job.

``run.py`` starts the zygote right after its imports, before it generates
inputs or computes the oracle, so the zygote holds no warm cache of any
kind: it has imported every module and computed nothing. Each job runs
in a fresh fork of it, which starts in the state a new interpreter
reaches after its imports, without paying ~1 s of imports per pass. The
zygote runs no threads, so forking it is safe.

Jobs and results travel over ``multiprocessing`` pipes. The forkserver
start method would do the same job, but it binds its listening socket in
a temporary directory (outside the repository, or inside it, where a
socket path may not exceed 108 bytes) and its queues create named
semaphores under ``/dev/shm``; pipes need neither.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import traceback
from collections.abc import Callable
from typing import Any

__all__ = ["Zygote"]

_FORK = multiprocessing.get_context("fork")


def _work(results: Any, function: Callable[[Any], Any], argument: Any, timeout: int) -> None:
    # Stray prints must not reach the benchmark's result lines.
    os.dup2(2, 1)
    signal.alarm(timeout)
    try:
        outcome = (True, function(argument))
    except Exception:
        outcome = (False, traceback.format_exc())
    results.send(outcome)


def _run_batch(jobs: list[tuple[Callable[[Any], Any], Any]], timeout: int) -> list[tuple]:
    workers = []
    for function, argument in jobs:
        receive, send = _FORK.Pipe(duplex=False)
        worker = _FORK.Process(target=_work, args=(send, function, argument, timeout))
        worker.start()
        send.close()
        workers.append((worker, receive))
    outcomes = []
    for worker, receive in workers:
        try:
            outcomes.append(receive.recv())
        except EOFError:
            outcomes.append((False, "the worker ended without a result"))
        receive.close()
        worker.join()
        if worker.exitcode:
            outcomes[-1] = (False, f"the worker exited with status {worker.exitcode}")
    return outcomes


def _serve(jobs: Any, parent_end: Any, timeout: int) -> None:
    # The fork copied the parent's end too; closed here, so the zygote
    # sees the end of the stream once the parent closes its own.
    parent_end.close()
    while True:
        try:
            batch = jobs.recv()
        except EOFError:
            return
        jobs.send(_run_batch(batch, timeout))


class Zygote:
    """Start the zygote now; :meth:`run` batches of jobs in it later."""

    def __init__(self, timeout: int) -> None:
        self._jobs, theirs = _FORK.Pipe()
        self._process = _FORK.Process(target=_serve, args=(theirs, self._jobs, timeout))
        self._process.start()
        theirs.close()
        self.pid = self._process.pid

    def run(self, jobs: list[tuple[Callable[[Any], Any], Any]]) -> list[Any]:
        """Run every ``function(argument)`` in its own fresh worker,
        concurrently; returns their results in order."""
        self._jobs.send(jobs)
        outcomes = self._jobs.recv()
        failures = [detail for ok, detail in outcomes if not ok]
        if failures:
            raise RuntimeError("worker failed:\n" + "\n".join(failures))
        return [result for _, result in outcomes]

    def close(self) -> None:
        """Stop the zygote and wait until it has ended."""
        self._jobs.close()
        self._process.join()
