"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared, and the host slows the
whole virtual CPU by varying amounts: the same frame can take 30% longer
from one ten-second stretch to the next. Two fixed kernels, run next to
the measured work, slow down with it. Every timing the benchmark gates
is reported at the reference host speed: measured seconds divided by
the factor that calibrate() returns around it. The kernels are
benchmark code, so a change to signpipe cannot move them.

One kernel is interpreter work (integer arithmetic, dict stores, list
sorting), the other numpy work on a 2 MB array. signpipe spends its time
in both kinds of code and each kind tracks the host a little
differently, so the factor is the geometric mean of the two. Over ten
runs per workload this pair steadied the timings more than an object-
and dict-heavy interpreter kernel did.

Start-up time is mostly module loading, which the host slows
differently again; import_factor() calibrates it with a fresh process
that only imports numpy.
"""

import math
import statistics
import subprocess
import sys
import time

# median times on the reference host (2-vCPU Xeon VM at 2.1 GHz)
REFERENCE_S = {"python": 0.0095, "numpy": 0.0141}
IMPORT_REFERENCE_S = 0.080
REPEATS = 3
TIME_NUMPY_IMPORT = ("import time; t0 = time.perf_counter(); import numpy; "
                     "print(time.perf_counter() - t0)")


def _python_kernel():
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc + i * i) % 65521
        table[i & 1023] = acc
    words = [(i * 7919) % 10007 for i in range(15000)]
    words.sort()
    return acc + words[0]


def _numpy_kernel():
    import numpy as np
    a = np.arange(250_000, dtype=np.int64)
    for _ in range(3):
        a = (a * 7 + 3) % 1_000_003
        a.sort()
    return int(a[0])


def calibrate():
    """How much slower than the reference the host runs now: 1.0 at the
    reference speed, 1.3 when the kernels take 30% longer. Each kernel's
    time is the median of REPEATS runs."""
    slowdown = []
    for name, kernel in (("python", _python_kernel), ("numpy", _numpy_kernel)):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        slowdown.append(statistics.median(times) / REFERENCE_S[name])
    return math.sqrt(math.prod(slowdown))


def import_factor():
    """How much slower than the reference a fresh process imports numpy now."""
    out = subprocess.run([sys.executable, "-c", TIME_NUMPY_IMPORT], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout) / IMPORT_REFERENCE_S
