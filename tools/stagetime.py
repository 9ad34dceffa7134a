"""Time the stages of one workload's ops in one or two checkouts, interleaved.

    python3 tools/stagetime.py --root A [--root B] --workload NAME --seed N
                               [--ops 1200]

Each checkout runs in its own worker process, which imports its own ``src``
and ``perfbench`` and draws the first ``--ops`` inputs of the seed, as
``tools/abtime.py`` loads them.  The worker wraps each stage of the period
assembly (``STAGES``: a function or method of the checkout, looked up by
name) in a wall-clock timer, runs its first chunk once untimed, so caches
are warm, then serves the inputs in chunks of ``abtime.CHUNK``; with two
checkouts, A's chunk and B's chunk of the same inputs run back to back, the
side that goes first alternating from chunk to chunk, as in abtime.

A stage's time is that of its outermost call: a call within a call of the
same stage is not counted twice.  ``pair_wedges`` and ``pair_inners`` run
within the sample context, so their time is part of its time too; ``other``
is the op's time outside the top-level stages.  Only ops that pass their
oracle are counted, and the oracle runs untimed.  A stage missing from a
checkout reads null.  Each timer adds its own call overhead (well under a
microsecond) to its stage.

Prints per stage and side the wall time per op (microseconds, raw, not
normalized to host speed) and its share of the op, and with two checkouts
the ratio B / A; then one JSON object of the same.  An unknown workload
ends with one line that names the known ones, exit 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abtime import CHUNK, interleave, load_inputs, run_main  # noqa: E402

# (stage, module, attribute path, enclosing stage or None)
STAGES = [
    ("jets", "quintic_periods.geometry", "CurveFamily.jet_at", None),
    ("sample context", "quintic_periods.period", "_SampleContext.__init__", None),
    ("pair_wedges", "quintic_periods.period", "pair_wedges", "sample context"),
    ("pair_inners", "quintic_periods.period", "pair_inners", "sample context"),
    ("site plan", "quintic_periods.period", "_SampleContext.site_plan", None),
    ("circle values", "quintic_periods.period", "_SampleContext.dens_on_circles", None),
    ("site map", "quintic_periods.numkernel.residues", "SiteLayout.apply", None),
    ("reduction", "quintic_periods.period", "_Reduction.__init__", None),
]
TOP_LEVEL = [name for name, _, _, parent in STAGES if parent is None]


class Timers:
    """Wall-clock sums per stage; ``paused`` lets calls through untimed."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.paused = False

    def wrap(self, name: str, fn):
        seconds, depth = self.seconds, [0]
        seconds[name] = 0.0

        def timed(*args, **kwargs):
            if depth[0] or self.paused:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                depth[0] = 0

        return timed

    def reset(self) -> None:
        for name in self.seconds:
            self.seconds[name] = 0.0

    def install(self) -> None:
        """Wraps every stage the loaded checkout has."""
        for name, module_name, path, _ in STAGES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is not None:
                setattr(owner, attr, self.wrap(name, fn))


def worker(root: Path, workload: str, seed: int, ops: int) -> None:
    """Serve ``start end`` lines on stdin: run ops[start:end] and write the
    passed ops' count and total time, and each stage's time, as one JSON
    line."""
    w, inputs = load_inputs(root, workload, seed, ops)
    timers = Timers()
    timers.install()
    for op in inputs[:CHUNK]:
        try:
            w.run(op)
        except Exception:  # a failing op is left out when it is timed
            pass
    timers.reset()
    print("ready", flush=True)
    for line in sys.stdin:
        start, end = map(int, line.split())
        total, passed = 0.0, 0
        for op in inputs[start:end]:
            before = dict(timers.seconds)
            t0 = time.perf_counter()
            try:
                result = w.run(op)
            except Exception:
                ok = False
            else:
                dt = time.perf_counter() - t0
                timers.paused = True
                ok = not w.check(op, result)
                timers.paused = False
            if ok:
                total += dt
                passed += 1
            else:
                timers.seconds.update(before)
        print(json.dumps({"ops": passed, "op": total, "stages": timers.seconds}), flush=True)
        timers.reset()


def side_summary(chunks: list[dict]) -> dict:
    """Per stage, microseconds per passed op and share of the op; null for
    a stage the checkout lacks."""
    ops = sum(c["ops"] for c in chunks)
    if not ops:
        raise ValueError("no op passed")
    op_s = sum(c["op"] for c in chunks)
    stages = {}
    for name, _, _, _ in STAGES:
        if name in chunks[0]["stages"]:
            s = sum(c["stages"][name] for c in chunks)
            stages[name] = {"us_per_op": s / ops * 1e6, "share": s / op_s}
        else:
            stages[name] = None
    other = op_s - sum(stages[n]["us_per_op"] * ops / 1e6 for n in TOP_LEVEL if stages[n])
    stages["other"] = {"us_per_op": other / ops * 1e6, "share": other / op_s}
    return {"ops": ops, "op_us": op_s / ops * 1e6, "stages": stages}


def table(sides: list[dict]) -> list[str]:
    """The printed table: one line per stage, the op's line last."""
    head = "".join(f" {s + ' us/op':>12s} {s + ' share':>9s}" for s in "AB"[: len(sides)])
    lines = [f"{'stage':18s}{head}" + ("     B / A" if len(sides) == 2 else "")]
    for name in [n for n, _, _, _ in STAGES] + ["other"]:
        label = ("  " if name not in TOP_LEVEL and name != "other" else "") + name
        cells, values = "", []
        for side in sides:
            st = side["stages"][name]
            values.append(st["us_per_op"] if st else None)
            if st:
                cells += f" {st['us_per_op']:12.1f} {st['share']:9.1%}"
            else:
                cells += f" {'-':>12s} {'-':>9s}"
        if len(sides) == 2 and None not in values and values[0]:
            cells += f" {values[1] / values[0]:9.3f}"
        lines.append(f"{label:18s}{cells}")
    cells = "".join(f" {side['op_us']:12.1f} {1:9.1%}" for side in sides)
    if len(sides) == 2:
        cells += f" {sides[1]['op_us'] / sides[0]['op_us']:9.3f}"
    lines.append(f"{'op':18s}{cells}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, action="append", required=True,
                    help="a checkout; give one, or two, A then B")
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
    if len(args.root) > 2:
        ap.error("give one or two --root checkouts")
    chunks = interleave(__file__, args.root, args.workload, args.seed, args.ops)
    sides = [side_summary(c) for c in chunks]
    for name, root, side in zip("AB", args.root, sides):
        print(f"{name} {root}: {side['ops']} ops passed")
    print("\n".join(table(sides)))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        **{name.lower(): side for name, side in zip("AB", sides)},
    }))
    return 0


if __name__ == "__main__":
    run_main(main)
