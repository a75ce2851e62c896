"""Host speed, measured with the benchmark's own reference loop.

The shared host the benchmark was built on changes speed by up to 2x
over seconds to minutes, for CPU time as much as for wall time.  Every
measured interval is therefore scaled to a reference speed:

    scaled seconds = measured seconds * REFERENCE_S / mean loop time

where the loop times are read only while no chipfire code runs, so a
slowdown the program causes for its own process (garbage collection,
threads, memory) cannot slow them and be divided out:

- the process running a command or a small-pairs batch is stopped
  (SIGSTOP) every SAMPLE_INTERVAL_S, the loop runs in the benchmark's
  own process pinned to the vCPU the stopped one last ran on, and the
  stopped time is taken out of every interval measured in it.  The host
  speed flips between two states within seconds, so readings only
  around a command of several seconds, or on the other vCPU, track it
  poorly.  The readings are evenly spaced in time, so their mean is the
  mean speed over the run, and every job of the process takes that one
  scale: in trials this tracked the jobs better than the median, than
  the few readings nearest each job, or than readings taken between
  jobs in the process that runs them;
- just before and after one interpreter start.

The loop runs with the garbage collector off, so the heap of the
process it runs in does not change it.  It is the benchmark's own code,
so a change to chipfire cannot change it.  The readings, and the
unscaled times, stay in the report.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import gen

REFERENCE_S = 0.001         # reference speed: one loop takes 1 ms
CALIBRATION_SAMPLES = 15    # loops per reading around an import or input generation
SAMPLE_INTERVAL_S = 0.1     # a running command or batch is stopped and read this often
SAMPLE_LOOPS = 3            # loops per reading while it is stopped


def reference_loop():
    # a mix like the program's own: Fraction elimination, integer
    # elimination, tuples and dict lookups
    m = [[(i * 7 + j * 3) % 11 - 5 + (6 if i == j else 0) for j in range(5)] for i in range(5)]
    gen.inverse(m)
    gen.det(m)
    counts = {}
    for k in range(300):
        key = tuple(x % 7 for x in range(k % 9 + 1))
        counts[key] = counts.get(key, 0) + 1


def loop_s():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_s(samples):
    """Median of `samples` loop times: how fast the host runs Python now."""
    return statistics.median(loop_s() for _ in range(samples))


def reading_on(cpu):
    """A reading of SAMPLE_LOOPS loops, taken pinned to vCPU `cpu` when
    this process may run there."""
    allowed = os.sched_getaffinity(0)
    if cpu not in allowed:
        return calibration_s(SAMPLE_LOOPS)
    os.sched_setaffinity(0, {cpu})
    try:
        return calibration_s(SAMPLE_LOOPS)
    finally:
        os.sched_setaffinity(0, allowed)


def scale_for(loop_times):
    """Factor taking seconds measured while the loop took `loop_times`
    to seconds at the reference speed."""
    return REFERENCE_S / statistics.mean(loop_times)
