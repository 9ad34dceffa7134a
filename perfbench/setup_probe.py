"""Time one workload's set-up in a fresh interpreter.

Set-up is importing the library and building the workload's hypersurface
and families. Prints the set-up time and the median of five timings of the
calibration kernel taken right after it, both in seconds. Run from the
repository root:

    python3 perfbench/setup_probe.py catalog-periods
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]]()
    setup = time.perf_counter() - t0
    import calibration

    kernel = statistics.median(calibration.kernel_seconds() for _ in range(5))
    print(f"{setup!r} {kernel!r}")
