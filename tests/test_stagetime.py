"""tools/stagetime.py: the wall time per op of each stage of the period
assembly, per checkout, with the op's time outside the top-level stages
as ``other``; and its argument errors."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stagetime.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stagetime", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_times_every_stage_of_both_checkouts():
    tool = _load_tool()
    done = _run("--root", str(ROOT), "--root", str(ROOT), "--workload", "catalog-periods",
                "--seed", "7", "--ops", "3")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert (record["workload"], record["seed"]) == ("catalog-periods", 7)
    for side in (record["a"], record["b"]):
        assert side["ops"] == 3
        stages = side["stages"]
        # every stage is found in this checkout and took time
        assert all(stages[name]["us_per_op"] > 0 for name, *_ in tool.STAGES)
        top = sum(stages[name]["us_per_op"] for name in tool.TOP_LEVEL)
        assert top + stages["other"]["us_per_op"] == pytest.approx(side["op_us"])
        assert top < side["op_us"]
        nested = stages["pair_wedges"]["us_per_op"] + stages["pair_inners"]["us_per_op"]
        assert nested < stages["sample context"]["us_per_op"]
    assert "site map" in done.stdout and "B / A" in done.stdout


def test_summary_and_table_of_a_checkout_without_a_stage():
    tool = _load_tool()
    # two chunks of one op each, in seconds; the second checkout lacks the
    # reduction stage
    stages = {name: 1e-4 for name, *_ in tool.STAGES}
    chunks = [{"ops": 1, "op": 2e-3, "stages": stages}] * 2
    full = tool.side_summary(chunks)
    assert full["ops"] == 2 and full["op_us"] == pytest.approx(2000.0)
    # six top-level stages of 100 us each; the two nested ones are not
    # subtracted again
    assert full["stages"]["other"]["us_per_op"] == pytest.approx(1400.0)
    assert full["stages"]["jets"]["share"] == pytest.approx(0.05)
    lacking = dict(stages)
    del lacking["reduction"]
    part = tool.side_summary([{"ops": 1, "op": 2e-3, "stages": lacking}])
    assert part["stages"]["reduction"] is None
    assert part["stages"]["other"]["us_per_op"] == pytest.approx(1500.0)
    lines = tool.table([full, part])
    (row,) = [line for line in lines if line.startswith("reduction")]
    assert row.split()[1:] == ["100.0", "5.0%", "-", "-"]
    with pytest.raises(ValueError):
        tool.side_summary([{"ops": 0, "op": 0.0, "stages": stages}])


def test_rejects_an_unknown_workload():
    # one line that names the known workloads, exit 2, before any op runs
    done = _run("--root", str(ROOT), "--workload", "nope", "--seed", "1", "--ops", "1")
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert "'nope'" in line and "catalog-periods" in line and "monomial-scan" in line


def test_rejects_ops_below_one_and_three_roots():
    done = _run("--root", str(ROOT), "--workload", "catalog-periods", "--seed", "7", "--ops", "0")
    assert done.returncode == 2 and "--ops must be positive" in done.stderr
    done = _run(*["--root", str(ROOT)] * 3, "--workload", "catalog-periods", "--seed", "7")
    assert done.returncode == 2 and "one or two --root" in done.stderr
