"""CPU speed of the host, measured while the audits run.

On a shared host the same pure-Python work can take 1.5 times as long from
one minute to the next (on a 2-vCPU VM, a fixed loop took between 72 and
119 ms of its own CPU time within five minutes), and that drift, not the
program, set most of the spread of raw audit times between runs.
`SpeedProbe` measures the drift and `scaled_seconds` takes it out of a
measured time.

A daemon thread of the benchmark process runs a fixed burst of pure-Python
work every `INTERVAL_S`, pinned in turn to each CPU the benchmark may use,
and records the CPU time the burst took. CPU time, not wall time, so a burst
that waits behind the audit for its CPU still reads that CPU's speed. The
thread uses about 4% of one CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

INTERVAL_S = 0.05
#: Median burst CPU time on the host the benchmark was written on (2-vCPU
#: Intel Xeon VM at 2.1 GHz): scaled times are seconds at that speed.
REFERENCE_BURST_S = 0.00175


def burst() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the CPU speed until `close`; `factor` reads it for an interval."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[tuple[float, float]] = []  # (perf_counter, burst s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(INTERVAL_S):
            # pid 0 is the calling thread: children keep the main thread's CPUs
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            turn += 1
            start = time.thread_time()
            burst()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def factor(self, start: float, end: float) -> float:
        """Speed between `start` and `end` (perf_counter values) relative to
        the reference: the reference burst time over the median burst time,
        so above 1 when the host was fast."""
        bursts = [seconds for at, seconds in self.samples if start <= at <= end]
        if not bursts:
            return 1.0
        return REFERENCE_BURST_S / statistics.median(bursts)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def scaled_seconds(wall_s: float, cpu_s: float, factor: float) -> float:
    """`wall_s` with its computing part rescaled to the reference speed.

    The computing part is the process's CPU time, capped at `wall_s` (a
    process on several CPUs computes for at most its whole wall time); the
    rest is waiting (on a backend, on the disk) and is kept as measured.
    """
    computing = min(cpu_s, wall_s)
    return wall_s - computing + computing * factor
