"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark's host slows down by up to about 2x for seconds to minutes
at a time. Thread CPU time slows exactly as wall time does, so the cause is
outside the process, and every timing slows with it.
A fixed kernel of the same kind of work as the library (Python complex
arithmetic, tuples, dicts, small numpy calls) slows by the same factor, so

    normalized = measured * REFERENCE_S / kernel time

is the time the measurement would have taken on a host where the kernel
takes REFERENCE_S: its fastest time on the 2-vCPU Xeon VM the benchmark was
written on. The kernel lives here, outside the library, so no change to the
library moves it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 8.3e-4


def _kernel() -> complex:
    acc = 0j
    table = {}
    z = np.linspace(0.0, 1.0, 8) + 0.5j
    for k in range(1200):
        c = complex(k % 7, k % 5)
        acc = acc * 0.999 + c / (1.0 + abs(acc))
        table[(k % 64, k % 3)] = acc
        if k % 20 == 0:
            z = z * 0.5 + np.sum(z) * 1e-3
    return acc + complex(z[0])


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
