"""Run every workload on two seeds, untraced and traced, and print one report.

    python3 perfbench/report.py [--seeds 1,2]

Run from the repository root. Each run is its own process (perfbench/run.py)
lasting BENCHMARK.json's run_seconds. Besides the workloads of BENCHMARK.json
it runs the two that fail some inputs (reparam-periods, shioda-lines), so that
their failures are counted. The report is markdown: the end-to-end
metrics of every workload with their units, the failures by class, the
per-layer metrics of the traced runs, and the tracing overhead (traced minus
untraced median latency). A second seed sits next to the first so that a
claim tuned on one can be checked on the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout
    *_, detail, result = lines.strip().splitlines()
    return json.loads(result), json.loads(detail.removeprefix("detail "))


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    cells = [(name, s) for name in workloads.WORKLOADS for s in seeds]
    plain, traced = {}, {}
    for cell in cells:
        plain[cell] = run(*cell, bench["run_seconds"], 0)
        traced[cell] = run(*cell, bench["run_seconds"], 1)
        print(f"done {cell}", file=sys.stderr, flush=True)

    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    print(f"run_seconds = {bench['run_seconds']}, seeds {seeds}\n")
    print("## End to end (untraced runs)\n")
    head = ["workload", "seed", "inputs"] + [f"{n} ({u})" for n, u in e2e]
    head += ["latency_p90_ms (ms)", "failed_share"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for cell in cells:
        result, detail = plain[cell]
        row = [cell[0], str(cell[1]), str(result["attempted"])]
        row += [fmt(result["metrics"][n]["value"]) for n, _ in e2e]
        row += [fmt(detail["latency_p90_ms"])]
        row += [f"{detail['failed_share']:.3f} ({result['failed']}/{result['attempted']})"]
        print("| " + " | ".join(row) + " |")

    print("\n## Failures by class (untraced, traced)\n")
    for cell in cells:
        print(f"- {cell[0]} seed {cell[1]}: {plain[cell][1]['failures']}, {traced[cell][1]['failures']}")

    print("\n## Per layer (traced runs, per op)\n")
    print("| metric | unit | " + " | ".join(f"{w} s{s}" for w, s in cells) + " |")
    print("|" + "---|" * (len(cells) + 2))
    for m in bench["per_layer"]:
        vals = [fmt(traced[c][0]["metrics"][m["name"]]["value"]) for c in cells]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(vals) + " |")
    overhead = [
        traced[c][0]["metrics"]["trace.latency_p50_ms"]["value"]
        - plain[c][0]["metrics"]["latency_p50_ms"]["value"]
        for c in cells
    ]
    print("| tracing overhead (traced - untraced latency_p50_ms) | ms | "
          + " | ".join(fmt(v) for v in overhead) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
