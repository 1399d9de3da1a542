"""Machine-speed calibration for the benchmark's timings.

The speed of a shared virtual machine drifts by 10-30 % over minutes: a plain
Python loop timed in 20-second windows on a 2-vCPU VM spread by 0.12
(interquartile range over median), and runs of this benchmark moved together
on every timing metric.  So each timing is taken next to a fixed loop of
pure-Python work and scaled by NOMINAL / (the loop's time there): it reads as
the time the op takes on a machine where the loop takes NOMINAL seconds.  The
loop is independent of artinkit, so a change to the library moves the scaled
times exactly as it moves the raw ones; run.py prints both.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL = 1e-3  # seconds of loop time that define the reference machine
REPEATS = 3


def _loop() -> str:
    # interpreter work of the library's shape: tuple building, free reduction
    # on a stack, dict counting, string joining; nothing outlives the call
    stack: list[tuple[str, int]] = []
    counts: dict[tuple[str, int], int] = {}
    for i in range(1500):
        x = ("s" if i % 3 else "t", 1 if i % 5 else -1)
        if stack and stack[-1] == (x[0], -x[1]):
            stack.pop()
        else:
            stack.append(x)
        counts[x] = counts.get(x, 0) + 1
    return "".join(name for name, _ in stack[:200])


def loop_seconds() -> float:
    """Median time of REPEATS loops, with the cyclic collector paused so the
    size of the program's heap does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, *loops: float) -> float:
    """A raw time as on the reference machine, given loop times taken next to it."""
    return seconds * NOMINAL / statistics.fmean(loops)
