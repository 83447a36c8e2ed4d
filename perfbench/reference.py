"""Reads the host's speed while a pass runs, to express times at a reference
speed.

On a shared host the same code runs up to 1.7x slower while a neighbour
loads the other hyperthread of a core.  Such slow spells last from
milliseconds to minutes, and each CPU has its own.  While a pass process
runs, ``Sampler`` times a fixed loop every ``PERIOD_S`` on a CPU that one of
the process's runnable threads is on, so the samples follow the CPUs doing
the measured work.  An interval of that process is then scaled by
``REF_S`` over the mean loop time sampled during it: that is the interval's
length at the reference speed.  The loop mixes interpreted Python with a
numpy ufunc, as utilsens does, and calls nothing from utilsens, so a change
to the program leaves it alone.  Each sample takes its CPU for about 0.25 ms.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time

import numpy as np
from scipy.special import ndtri

# thread CPU seconds the loop takes at the reference speed: its 5th
# percentile on a 2-CPU Intel Xeon VM (Python 3.11, numpy 2.4, scipy 1.17)
REF_S = 0.000225
PERIOD_S = 0.01
# an interval is scaled by the samples taken within PAD_S of it, and by at
# least the MIN_SAMPLES nearest ones
PAD_S = 0.02
MIN_SAMPLES = 4
_U = np.linspace(0.001, 0.999, 1024)


def loop_s() -> float:
    """Thread CPU seconds the reference loop takes now."""
    t0 = time.thread_time()
    s = 0.0
    for i in range(3000):
        s += math.sqrt(i)
    ndtri(_U)
    ndtri(_U)
    return time.thread_time() - t0


def runnable_cpus(pid: int) -> list[int]:
    """CPUs that the runnable threads of process ``pid`` were last on."""
    cpus = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return cpus
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] == "R":  # fields[0] is stat field 3, fields[36] field 39
            cpus.append(int(fields[36]))
    return cpus


class Sampler:
    """Samples the reference loop on the CPUs where process ``pid`` runs,
    from a thread of this process, until ``stop``."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.times: list[float] = []
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            cpus = runnable_cpus(self.pid)
            if not cpus:
                continue
            turn += 1
            try:
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            except OSError:
                continue
            loop = loop_s()
            self.times.append(time.perf_counter())
            self.loops.append(loop)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that converts the interval [t0, t1] to the reference speed."""
        n = len(self.times)
        if n == 0:
            raise RuntimeError("no speed samples were taken")
        i = bisect.bisect_left(self.times, t0 - PAD_S)
        j = bisect.bisect_right(self.times, t1 + PAD_S)
        while j - i < min(MIN_SAMPLES, n):
            if i > 0 and (j == n or t0 - self.times[i - 1] <= self.times[j] - t1):
                i -= 1
            else:
                j += 1
        return REF_S * (j - i) / math.fsum(self.loops[i:j])
