"""Time one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Covers ``import cotesroot``, parsing every workload expression, building the
first pass's inputs and one warm-up evaluation per (function, precision),
which fills mpmath's constant caches.  Prints the seconds taken and then the
calibration kernel's seconds, timed in this interpreter after set-up, so that
the caller can scale the set-up time to the reference host speed.
"""

import sys
import time

START = time.perf_counter()

import workloads  # noqa: E402  (imports cotesroot: part of what is timed)

w = workloads.make(sys.argv[1], int(sys.argv[2]))
w.setup()
seconds = time.perf_counter() - START

import calibration  # noqa: E402

calibration.warm_up()
print(repr(seconds), repr(calibration.kernel_seconds()))
