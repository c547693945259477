"""Host-speed calibration: reported times are scaled to a reference speed.

On a shared host the same op takes 15-30% more or less time from one minute
to the next (up to 1.6x), because the host's other tenants change how fast
this process's CPU runs; process CPU time drifts exactly as wall time does.
A fixed kernel of plain-mpmath arithmetic at 60 and 1000 digits and pure
interpreter work, which never touches cotesroot, is timed every
``INTERVAL_S`` seconds between ops.  Each op's time is multiplied by
``REFERENCE_S`` over the mean of the kernel times just before and just after
it, so a reported time is what the op would take on a host where the kernel
takes ``REFERENCE_S``: about as fast as a 2-vCPU VM on a shared host at its
median speed.  A change to cotesroot moves the op times and not the kernel,
so it shows in full; a change of host speed moves both and cancels.

The raw, unscaled times are kept in the run record beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import mpmath as mp

REFERENCE_S = 0.004  # seconds the kernel takes at the reference speed
INTERVAL_S = 0.25  # time the kernel at least this often during a measurement
REPEAT = 3  # one calibration is the median of this many kernel runs


def _kernel() -> int:
    with mp.workdps(60):
        x = mp.mpf(1) / 3
        for _ in range(40):
            x = mp.exp(-x) + mp.sqrt(x) / (x + 2)
    with mp.workdps(1000):
        y = mp.mpf(1) / 3
        for _ in range(4):
            y = mp.exp(-y) + mp.sqrt(y) / (y + 2)
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return acc + int(x * 1000) + int(y * 1000)


def kernel_seconds() -> float:
    """Median seconds of ``REPEAT`` kernel runs, with the garbage collector off.

    The collector is off so that the objects the package under test keeps
    alive cannot make the kernel slower and its own ops look faster.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def warm_up() -> None:
    """Fill mpmath's constant caches at the kernel's precisions."""
    _kernel()


def scaled(times: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """``times`` at the reference speed.

    ``marks`` holds (number of ops done before it, kernel seconds), in order,
    with one mark before the first op and one after the last.  Op ``i`` is
    scaled by the marks on either side of it.  (Medians over wider windows of
    marks, which would drop a kernel run caught in a short burst of load,
    followed the host's drift less well in trials.)
    """
    out = []
    k = 0
    for i, t in enumerate(times):
        while k + 1 < len(marks) - 1 and marks[k + 1][0] <= i:
            k += 1
        before, after = marks[k][1], marks[k + 1][1]
        out.append(t * REFERENCE_S / ((before + after) / 2))
    return out
