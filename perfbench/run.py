"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``. Load is
closed-loop: one caller on one thread sends the next operation when the
previous one returns, for ``--seconds`` seconds. Times are normalized to
host speed (see calibration.py); the raw medians are in the ``detail`` line.

An operation fails if it raises or if its oracle rejects the output; both are
counted in ``failed`` and broken down by exception class or check in the
``detail`` line. ``correct`` is false when the failed share exceeds the
workload's ``max_failed_share``: zero on the workloads of BENCHMARK.json.
The two workloads that stress the root finder's known multiplicity defect
fail some inputs at every seed, so they are left out of BENCHMARK.json and
run by report.py, which counts their failures.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` every traced library call records a span, the spans are
written to ``perfbench/out``, and the metrics are the per-layer ones. The
90th percentile of latency needs ten samples beyond it, so it is printed but
is not a metric. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9


def import_library():
    src = ROOT / "src"
    if not (src / "quintic_periods" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {src / 'quintic_periods'}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import quintic_periods

    if Path(quintic_periods.__file__).resolve().parent != src / "quintic_periods":
        sys.exit(f"error: imported quintic_periods from {quintic_periods.__file__}")


def setup_seconds(workload: str) -> tuple[float, float]:
    """Set-up time of the workload in a fresh interpreter: (normalized, raw)."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload]
    out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60).stdout
    raw, kernel = map(float, out.split())
    return raw * calibration.REFERENCE_S / kernel, raw


def measure(workload, seed: int, seconds: float, tracer, setup_times: list | None):
    """Run fresh inputs for ``seconds``. Every op sits between two timings of
    the calibration kernel; its scale is REFERENCE_S over their mean. Returns
    each op's scale, the normalized and raw latencies (ms) of the ops that
    passed, and the failures. Set-up probes, when asked for, are spread over
    the run."""
    failures: Counter = Counter()
    examples: dict[str, str] = {}
    scales: list[float] = []
    ok_ms: list[float] = []
    raw_ms: list[float] = []
    fresh = workload.inputs(seed)
    before = calibration.kernel_seconds()
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if setup_times is not None and elapsed >= len(setup_times) * seconds / SETUP_PROBES:
            setup_times.append(setup_seconds(workload.name))
            before = calibration.kernel_seconds()
        op = next(fresh)
        scope = tracer.op(len(scales)) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = workload.run(op)
        except Exception as exc:  # a failed op is counted, never fatal
            what, example = type(exc).__name__, str(exc)
        else:
            dt = time.perf_counter() - t0
            what, example = None, repr(op)
        after = calibration.kernel_seconds()
        scales.append(calibration.REFERENCE_S / (0.5 * (before + after)))
        if what is None:
            breach = workload.check(op, out)
            what = breach and f"oracle:{breach}"
        if what:
            failures[what] += 1
            examples.setdefault(what, example[:200])
        else:
            raw_ms.append(dt * 1e3)
            ok_ms.append(dt * 1e3 * scales[-1])
        before = after
    return scales, ok_ms, raw_ms, failures, examples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    setup_times = None if args.trace else []
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        scales, ok_ms, raw_ms, failures, examples = measure(
            workload, args.seed, args.seconds, tracer, setup_times
        )
    finally:
        if tracer:
            tracer.uninstall()

    attempted = len(scales)
    ok_ms.sort()
    n = len(ok_ms)
    if not n:
        sys.exit(f"error: none of {attempted} inputs passed: {dict(failures)}")
    p50 = statistics.median(ok_ms)
    failed = attempted - n
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": n,
        # the p90 needs ten samples beyond it: n >= 100
        "latency_p90_ms": ok_ms[math.ceil(0.9 * n) - 1] if n >= 100 else None,
        "raw_latency_p50_ms": statistics.median(raw_ms),
        "failed_share": failed / attempted,
        "failures": dict(sorted(failures.items())),
        "failure_examples": examples,
    }
    if tracer:
        metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics(scales).items()}
        metrics["trace.latency_p50_ms"] = (p50, "ms")
        out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(out)
        detail["spans_file"] = str(out.relative_to(ROOT))
    else:
        detail["raw_setup_s"] = statistics.median(raw for _, raw in setup_times)
        metrics = {
            "latency_p50_ms": (p50, "ms"),
            "periods_per_s": (workload.periods_per_op * 1e3 / statistics.mean(ok_ms), "1/s"),
            "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(f"latency_p90_ms {detail['latency_p90_ms']} ({n} samples)")
    print(f"failed_share {detail['failed_share']:.4f} ({failed} of {attempted}): {detail['failures']}")
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed <= workload.max_failed_share * attempted,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_share") or metric.endswith("disagreement"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
