"""Reference kernel that tracks how fast the machine runs at the moment.

On a shared virtual machine the speed of the whole machine drifts by 20 to
40 per cent over tens of seconds while the work stays the same (the same
``generic_route`` rounds took 7.1 to 8.8 s back to back, every model slowing
together).  Durations are therefore divided by the slowdown of a fixed kernel
timed next to them.  The kernel does not touch ``confbel``, so the correction
is the same for every version of the program; ``NOMINAL_S`` (the kernel's
time on an idle machine) only fixes the scale, so that corrected figures read
close to raw ones on a quiet machine.

On a shared 2-CPU virtual machine this brought the spread of
``replicate_sweep`` throughput over 10-second windows of identical work from
20 to 4 per cent, and of ``generic_route`` from 12 to 7 per cent.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

NOMINAL_S = 0.010

_U = np.random.default_rng(20171).random(40_000)


def kernel_s() -> float:
    """Seconds taken by the kernel: interpreted float arithmetic and calls,
    then special functions and a sort over mid-size arrays, in about equal
    parts."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 30_000):
        acc += math.sqrt(i) * 0.5 + (i % 7)
    z = special.ndtri(_U)
    z.sort()
    acc += float(special.stdtr(4, z[::4]).sum())
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than nominal the machine runs now (best of two kernel
    runs); divide a duration measured now by it to correct the duration."""
    return min(kernel_s(), kernel_s()) / NOMINAL_S
