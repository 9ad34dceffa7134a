"""tools/abtime.py's summary of two sides' latencies on the same ops: the
median of per-chunk ratios of medians, their quartiles and spread, with
failed ops left out of every median; and its exit on an unknown workload."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "abtime.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("abtime", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_summary_takes_chunk_ratios_of_medians():
    tool = _load_tool()
    # four chunks of three ops; B is 0.9, 0.8, 1.0 and 0.5 of A by chunk,
    # with one failed op on each side
    a = [1.0, 2.0, 3.0, 2.0, 2.0, 2.0, 4.0, None, 4.0, 1.0, 1.0, 1.0]
    b = [0.9, 1.8, 2.7, 1.6, 1.6, None, 4.0, 4.0, 4.0, 0.5, 0.5, 0.5]
    out = tool.summary(a, b, chunk=3)
    assert out["a"] == {"latency_p50_ms": 2.0, "failed": 1, "attempted": 12}
    assert out["b"] == {"latency_p50_ms": 1.6, "failed": 1, "attempted": 12}
    ratio = out["ratio"]
    assert ratio["chunks"] == 4
    assert ratio["median"] == pytest.approx(0.85)
    # statistics.quantiles' exclusive method on 0.5, 0.8, 0.9, 1.0
    assert ratio["q1"] == pytest.approx(0.575)
    assert ratio["q3"] == pytest.approx(0.975)
    assert ratio["spread"] == pytest.approx(0.4 / 0.85)


def test_summary_skips_chunks_without_a_passed_op_on_either_side():
    tool = _load_tool()
    a = [1.0, 1.0, None, None, 2.0]
    b = [2.0, 2.0, 3.0, 3.0, None]
    out = tool.summary(a, b, chunk=2)
    assert out["ratio"]["chunks"] == 1
    assert out["ratio"]["median"] == out["ratio"]["q1"] == out["ratio"]["q3"] == 2.0
    assert out["ratio"]["spread"] == 0.0
    with pytest.raises(ValueError):
        tool.summary([None, 1.0], [1.0, None], chunk=1)
    with pytest.raises(ValueError):
        tool.summary([1.0], [1.0, 1.0], chunk=1)


def test_rejects_an_unknown_workload():
    # one line that names the known workloads, exit 2, before any op runs
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(ROOT), "--root", str(ROOT),
         "--workload", "nope", "--seed", "1", "--ops", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert "'nope'" in line and "catalog-periods" in line and "monomial-scan" in line
