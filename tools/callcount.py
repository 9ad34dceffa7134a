"""Count the Python calls per op of one workload in one or more checkouts.

    python3 tools/callcount.py --root A [--root B] --workload NAME --seed N
                               [--ops 400]

Each checkout runs in its own worker process, which imports its own ``src``
and ``perfbench`` and draws the first ``--ops`` inputs of the seed, as
``tools/abtime.py`` loads them.  The worker runs the first input once
unprofiled, so caches are warm, then all ``--ops`` inputs under cProfile.
The count is the sum of the profiler's per-function call counts over
``--ops``, with the cyclic garbage collector left as it is; an op that raises
is counted as failed and its calls stay in the count.  Unlike a time, the
count repeats exactly on the same inputs.

Prints per checkout its calls per op and failures, then its 15 most-called
functions (calls per op).  The last line is one JSON object of the same.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abtime import load_inputs, run_main  # noqa: E402

TOP = 15


def _function_name(key: tuple[str, int, str]) -> str:
    """cProfile's name of a function, without the per-process address that
    some built-in methods carry (``... of type object at 0x7f1e...>``)."""
    file, line, name = key
    if file == "~":
        return re.sub(r" at 0x[0-9a-f]+", "", name)
    return f"{Path(file).name}:{line}({name})"


def tally(profile: cProfile.Profile) -> dict[str, int]:
    """Each name's calls in ``profile``, summed over all functions that share it."""
    calls: dict[str, int] = {}
    for entry in profile.getstats():
        name = _function_name(cProfile.label(entry.code))
        calls[name] = calls.get(name, 0) + entry.callcount
    return calls


def worker(root: Path, workload: str, seed: int, ops: int) -> None:
    """Profile the ops and write their count as one JSON line."""
    w, inputs = load_inputs(root, workload, seed, ops)
    try:
        w.run(inputs[0])
    except Exception:  # a failing op is counted when it is profiled
        pass
    failed = 0
    profile = cProfile.Profile()
    for op in inputs:
        profile.enable()
        try:
            w.run(op)
        except Exception:  # a failed op is counted, never fatal
            failed += 1
        finally:
            profile.disable()
    calls = tally(profile)
    top = sorted(calls.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]
    print(json.dumps({
        "root": str(root),
        "calls_per_op": sum(calls.values()) / len(inputs),
        "failed": failed,
        "top": [{"function": name, "calls_per_op": n / len(inputs)} for name, n in top],
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, action="append", required=True,
                    help="a checkout; give one or more")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=400)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be positive")
    if args.worker:
        worker(args.root[0].resolve(), args.workload, args.seed, args.ops)
        return 0
    sides = []
    for root in args.root:
        done = subprocess.run(
            [sys.executable, __file__, "--worker", "--root", str(root.resolve()),
             "--workload", args.workload, "--seed", str(args.seed), "--ops", str(args.ops)],
            stdout=subprocess.PIPE, text=True,
        )
        if done.returncode:  # the worker has said why on stderr
            return done.returncode
        sides.append(json.loads(done.stdout.splitlines()[-1]))
    for name, side in zip("ABCDEFGHIJKLMNOPQRSTUVWXYZ", sides):
        print(f"{name} {side['root']}: {side['calls_per_op']:.1f} calls per op over "
              f"{args.ops} ops, failed {side['failed']}")
        for row in side["top"]:
            print(f"  {row['calls_per_op']:9.2f}  {row['function']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": args.ops,
                      "roots": sides}))
    return 0


if __name__ == "__main__":
    run_main(main)
