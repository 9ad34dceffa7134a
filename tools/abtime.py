"""Time two checkouts on the same inputs of one workload, interleaved.

    python3 tools/abtime.py --root A --root B --workload NAME --seed N
                            [--ops 1200]

Two long-lived worker processes, one per checkout, each import their own
``src`` and ``perfbench`` and draw the first ``--ops`` inputs of the seed
from their own ``perfbench/workloads.py``.  The inputs are run in chunks of
``CHUNK`` (50), A's chunk and B's chunk of the same inputs back to back, the
side that goes first alternating from chunk to chunk, so a slow spell of
the host falls on both sides alike.  Each op is timed as
``perfbench/run.py`` times it: between two runs of the calibration kernel
of ``perfbench/calibration.py``, scaled by ``REFERENCE_S`` over their mean.
Each worker first runs its first chunk once untimed, so caches are warm.

Prints per side the median normalized latency and the failures, then the
latency ratio B / A: per chunk, the median of B's ops over the median of
A's; the median of those chunk ratios, their quartiles, and the spread
(q3 - q1) / median.  The last line is one JSON object of the same.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# ops per chunk: each side runs this many of the same inputs in a turn
CHUNK = 50


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of values (``statistics.quantiles``' exclusive
    method; the median alone, three times, for fewer than two values)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(a_ms: list[float | None], b_ms: list[float | None], chunk: int) -> dict:
    """The comparison of two sides' normalized latencies of the same ops, in
    op order; None marks an op that failed, which no median counts.

    ``ratio`` holds the median, quartiles and spread of the per-chunk ratios
    (median of B over median of A, chunks where both sides passed an op)."""
    if len(a_ms) != len(b_ms):
        raise ValueError("both sides must time the same ops")
    ratios = []
    for k in range(0, len(a_ms), chunk):
        a = [v for v in a_ms[k : k + chunk] if v is not None]
        b = [v for v in b_ms[k : k + chunk] if v is not None]
        if a and b:
            ratios.append(statistics.median(b) / statistics.median(a))
    if not ratios:
        raise ValueError("no chunk where both sides passed an op")
    q1, median, q3 = quartiles(ratios)
    sides = {}
    for name, ms in (("a", a_ms), ("b", b_ms)):
        passed = [v for v in ms if v is not None]
        sides[name] = {
            "latency_p50_ms": statistics.median(passed) if passed else None,
            "failed": len(ms) - len(passed),
            "attempted": len(ms),
        }
    return {
        **sides,
        "ratio": {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "chunks": len(ratios),
        },
    }


def import_checkout(root: Path):
    """The checkout's ``quintic_periods``, imported from its own ``src``
    (put first on ``sys.path``, then its ``perfbench``).  A checkout without
    library sources, or an import that resolves elsewhere, ends the process
    with one ``error:`` line on stderr."""
    src = root / "src"
    if not (src / "quintic_periods" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {src / 'quintic_periods'}")
    sys.path[:0] = [str(src), str(root / "perfbench")]
    import quintic_periods

    if Path(quintic_periods.__file__).resolve().parent != (src / "quintic_periods").resolve():
        sys.exit(f"error: imported quintic_periods from {quintic_periods.__file__}")
    return quintic_periods


def load_workload(root: Path, name: str):
    """The checkout's workload ``name``, built from its own ``src`` and
    ``perfbench``, as ``import_checkout`` imports them.  An unknown name
    ends the process with one line on stderr that names the known ones,
    exit 2."""
    import_checkout(root)
    import workloads

    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    return workloads.WORKLOADS[name]()


def load_inputs(root: Path, workload: str, seed: int, ops: int):
    """The checkout's workload, as ``load_workload`` loads it, and the
    first ``ops`` inputs of the seed."""
    w = load_workload(root, workload)
    return w, list(itertools.islice(w.inputs(seed), ops))


def worker(root: Path, workload: str, seed: int, ops: int) -> None:
    """Serve ``start end`` lines on stdin: time ops[start:end] and write
    their normalized latencies (ms, None for a failure) as one JSON line."""
    w, inputs = load_inputs(root, workload, seed, ops)
    import calibration

    for op in inputs[:CHUNK]:
        try:
            w.run(op)
        except Exception:  # a failing op is counted when it is timed
            pass
    print("ready", flush=True)
    for line in sys.stdin:
        start, end = map(int, line.split())
        out = []
        before = calibration.kernel_seconds()
        for op in inputs[start:end]:
            t0 = time.perf_counter()
            try:
                result = w.run(op)
            except Exception:  # a failed op is counted, never fatal
                dt = None
            else:
                dt = time.perf_counter() - t0
            after = calibration.kernel_seconds()
            if dt is not None and w.check(op, result):
                dt = None
            scale = calibration.REFERENCE_S / (0.5 * (before + after))
            out.append(None if dt is None else dt * 1e3 * scale)
            before = after
        print(json.dumps(out), flush=True)


def interleave(script: str, roots: list[Path], workload: str, seed: int, ops: int) -> list[list]:
    """Start one worker of ``script`` per checkout (``--worker`` with the
    same options), one after the other, and send each the chunks of
    ``CHUNK`` of the first ``ops`` inputs, all sides' turn at a chunk back
    to back and the side that goes first alternating from chunk to chunk.
    Returns per checkout its JSON replies in chunk order.  A worker that
    cannot start (it says why on stderr) ends the process with its exit
    code, as the only one started."""
    procs = []
    try:
        for root in roots:
            procs.append(subprocess.Popen(
                [sys.executable, script, "--worker", "--root", str(root.resolve()),
                 "--workload", workload, "--seed", str(seed), "--ops", str(ops)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
            if procs[-1].stdout.readline().strip() != "ready":
                sys.exit(procs[-1].wait() or 1)
        replies: list[list] = [[] for _ in procs]
        for n, k in enumerate(range(0, ops, CHUNK)):
            sides = range(len(procs))
            for side in sides if n % 2 == 0 else reversed(sides):
                procs[side].stdin.write(f"{k} {k + CHUNK}\n")
                procs[side].stdin.flush()
                replies[side].append(json.loads(procs[side].stdout.readline()))
        return replies
    finally:
        for p in procs:
            p.stdin.close()
            p.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, action="append", required=True,
                    help="a checkout; give two, A then B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=1200)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be positive")
    if args.worker:
        worker(args.root[0].resolve(), args.workload, args.seed, args.ops)
        return 0
    if len(args.root) != 2:
        ap.error("give two --root checkouts")
    replies = interleave(__file__, args.root, args.workload, args.seed, args.ops)
    times = [[ms for chunk in side for ms in chunk] for side in replies]
    result = summary(times[0], times[1], CHUNK)
    for name, root in zip("ab", args.root):
        side = result[name]
        print(f"{name.upper()} {root}: latency_p50_ms {side['latency_p50_ms']:.4g}, "
              f"failed {side['failed']} of {side['attempted']}")
    r = result["ratio"]
    print(f"B / A latency: median {r['median']:.4f} (q1 {r['q1']:.4f}, q3 {r['q3']:.4f}, "
          f"spread {r['spread']:.2%}, {r['chunks']} chunks)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}))
    return 0


def run_main(main) -> None:
    """Exit with ``main()``'s status, or with 1 and no traceback when
    stdout closes before the output is written (a pipe into ``head -1``).
    As in the note on SIGPIPE in Python's ``signal`` documentation, stdout
    is then pointed at ``os.devnull``, so the flush at exit cannot fail
    again."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    run_main(main)
