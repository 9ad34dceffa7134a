"""tools/replay.py's record of a workload's failed inputs, on a stand-in
workload: a raised error by its class name, an oracle breach as
``oracle:<check>``, a passing input not at all; its argument errors; and its
exit when stdout closes early."""

import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class _Workload:
    """Inputs 10 * seed, 10 * seed + 1, ...: an input ending in 1 raises,
    one ending in 3 breaches the oracle's ``sign`` check."""

    def inputs(self, seed):
        return itertools.count(10 * seed)

    def run(self, op):
        if op % 10 == 1:
            raise ZeroDivisionError("stand-in")
        return -op

    def check(self, op, out):
        assert out == -op
        return "sign" if op % 10 == 3 else None


def test_outcome_names_the_failure_class():
    tool = _load_tool()
    workload = _Workload()
    assert tool.outcome(workload, 11) == "ZeroDivisionError"
    assert tool.outcome(workload, 13) == "oracle:sign"
    assert tool.outcome(workload, 12) is None


def test_replay_records_only_failed_inputs_by_index():
    tool = _load_tool()
    assert tool.replay(_Workload(), 2, 15) == {1: "ZeroDivisionError", 3: "oracle:sign",
                                               11: "ZeroDivisionError", 13: "oracle:sign"}
    assert tool.replay(_Workload(), 2, 1) == {}


@pytest.mark.parametrize(
    "args, message",
    [(["--seeds", "1,", "--inputs", "3"], "--seeds must be comma-separated integers"),
     (["--seeds", "1,x", "--inputs", "3"], "--seeds must be comma-separated integers"),
     (["--seeds", "1,2", "--inputs", "0"], "--inputs must be positive"),
     (["--seeds", "1,2", "--inputs", "-1"], "--inputs must be positive")],
    ids=["seeds-trailing-comma", "seeds-word", "inputs-zero", "inputs-negative"],
)
def test_bad_arguments_exit_with_usage(args, message, capsys):
    # rejected before any workload is imported
    tool = _load_tool()
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--workload", "catalog-periods", "--root", "/nonexistent", *args])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err


def test_a_closed_stdout_exits_1_without_a_traceback():
    # stdout is a pipe whose read end is closed before the tool starts, so
    # its one line of output cannot be written
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, str(TOOL), "--workload", "catalog-periods", "--seeds", "1",
             "--inputs", "1"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
