"""How fast the CPUs the passes run on are, measured while they run.

The virtual machines the benchmark runs on change speed often and by a
lot: each CPU flips between a fast and a slow state (a reference
workload takes ~40 or ~70 ms) within seconds, and the CPUs flip
independently of each other. So the benchmark runs on at most two CPUs,
:func:`bench_cpus`, and a :class:`Probe` process pinned to each of them
times a short fixed workload every :data:`GAP_S` seconds for the whole
run. A pass's *slowdown* (:func:`slowdown`) is the geometric mean over
the CPUs of the median sample time inside the pass's window, divided by
:data:`NOMINAL_S`; ``measure.py`` reports the pass's figures as they
would read at the nominal speed. The passes are not pinned: a pass with
a dispatcher thread runs slower and less steadily when its two threads
share one CPU, and a single-threaded pass moves between the CPUs.

The workload mixes what the system does: Python-level dictionary,
tuple and string work, and small numpy matrix-vector products. It uses
only the standard library and numpy, never the system under test, so a
change to the system never moves it. A sample takes ~1 ms every 50 ms,
~2% of each CPU, the same share on every commit.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import statistics
import time

import numpy

__all__ = ["NOMINAL_S", "Probe", "bench_cpus", "slowdown"]

ROUNDS = 250
#: Seconds one sample of the workload takes on the 2-CPU Xeon virtual
#: machine the benchmark was calibrated on, in its fast state. Only the
#: scale of the reported figures depends on it, not their ratios.
NOMINAL_S = 0.00104
GAP_S = 0.05

_FORK = multiprocessing.get_context("fork")


def bench_cpus() -> set[int]:
    """The CPUs the benchmark runs on: the last two this process may
    use, which serve fewer interrupts than CPU 0 on a larger machine."""
    return set(sorted(os.sched_getaffinity(0))[-2:])


def _work(rounds: int) -> float:
    matrix = numpy.arange(64 * 64, dtype=float).reshape(64, 64) % 97.0 / 97.0
    table: dict[tuple[str, int], float] = {}
    total = 0.0
    for i in range(rounds):
        scores = matrix @ matrix[i % 64]
        best = int(scores.argmax())
        key = (f"term-{i % 509}", best)
        table[key] = table.get(key, 0.0) + float(scores[best])
        if i % 64 == 63:
            ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))[:8]
            total += sum(value for _, value in ranked)
            table = {name: value / 2.0 for name, value in ranked}
    return total


def _sample(requests, parent_end, cpu: int) -> None:
    # The fork copied the parent's end too; closed here, so the probe
    # sees the end of the stream once the parent closes its own.
    parent_end.close()
    os.sched_setaffinity(0, {cpu})
    gc.disable()
    samples = []
    clock = time.perf_counter
    while True:
        if requests.poll(GAP_S):
            try:
                requests.recv()
            except EOFError:
                return
            requests.send(samples)
            continue
        started = clock()
        _work(ROUNDS)
        samples.append((started, clock() - started))


class Probe:
    """Start one sampling process per CPU of :func:`bench_cpus` now;
    :meth:`samples` returns every ``(start, seconds)`` sample so far, per
    CPU. ``time.perf_counter`` is the system-wide monotonic clock, so the
    samples line up with the passes' windows."""

    def __init__(self) -> None:
        self._probes = []
        for cpu in sorted(bench_cpus()):
            conn, theirs = _FORK.Pipe()
            process = _FORK.Process(target=_sample, args=(theirs, conn, cpu))
            process.start()
            theirs.close()
            self._probes.append((cpu, conn, process))

    def samples(self) -> dict[int, list[tuple[float, float]]]:
        for _, conn, _ in self._probes:
            conn.send(None)
        return {cpu: conn.recv() for cpu, conn, _ in self._probes}

    def close(self) -> None:
        """Stop the probes and wait until they have ended. Call it before
        ``Zygote.close``: the probes hold a copy of the zygote's pipe."""
        # A probe sees the end of its stream only once every later probe,
        # which the fork gave a copy of its pipe, has ended too.
        for _, conn, _ in self._probes:
            conn.close()
        for _, _, process in self._probes:
            process.join()


def slowdown(samples: dict[int, list[tuple[float, float]]], window: tuple[float, float]) -> float:
    """Geometric mean over the CPUs of the median sample time inside
    ``window``, over :data:`NOMINAL_S`."""
    start, end = window
    logs = []
    for cpu, timed in samples.items():
        inside = [seconds for began, seconds in timed if start <= began and began + seconds <= end]
        if not inside:
            raise RuntimeError(f"no probe sample of CPU {cpu} inside the pass window {window}")
        logs.append(math.log(statistics.median(inside) / NOMINAL_S))
    return math.exp(statistics.mean(logs))
