"""Replay a fixed prefix of a benchmark workload's inputs and list the failures.

    python3 tools/replay.py --workload NAME --seeds 1,2 --inputs N [--root DIR]

Each of the first N inputs of every seed goes through ``perfbench/workloads.py``
as ``perfbench/run.py`` runs and checks it: an input fails if the operation
raises (its class is the exception's name) or if the workload's oracle rejects
the output (``oracle:<check>``).  Unlike a timed run, which reaches further
into the input stream on a faster tree, the same N inputs are run on every
tree, so two trees' failures can be compared input by input.

``--root`` names the checkout whose ``src`` and ``perfbench`` are used (by
default the one holding this script), so the same command replays another
commit.  Nothing is written; the output is one JSON object:

    {"workload": ..., "root": ..., "inputs": N,
     "seeds": {"1": {"failed": {"<index>": "<class>", ...},
                     "counts": {"<class>": <count>, ...}}, ...}}
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abtime import load_workload, run_main  # noqa: E402


def outcome(workload, op) -> str | None:
    """None if the input passes, else its failure class, as run.py counts it."""
    try:
        out = workload.run(op)
    except Exception as exc:  # a failed input is recorded, never fatal
        return type(exc).__name__
    breach = workload.check(op, out)
    return breach and f"oracle:{breach}"


def replay(workload, seed: int, inputs: int) -> dict[int, str]:
    failed = {}
    for index, op in enumerate(itertools.islice(workload.inputs(seed), inputs)):
        if what := outcome(workload, op):
            failed[index] = what
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,2")
    ap.add_argument("--inputs", type=int, required=True, help="inputs replayed per seed")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    try:
        seed_list = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.inputs < 1:
        ap.error("--inputs must be positive")

    workload = load_workload(args.root.resolve(), args.workload)
    seeds = {}
    for seed in seed_list:
        failed = replay(workload, seed, args.inputs)
        seeds[str(seed)] = {
            "failed": {str(i): what for i, what in failed.items()},
            "counts": dict(sorted(Counter(failed.values()).items())),
        }
    report = {
        "workload": args.workload,
        "root": str(args.root.resolve()),
        "inputs": args.inputs,
        "seeds": seeds,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    run_main(main)
