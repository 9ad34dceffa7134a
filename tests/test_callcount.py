"""tools/callcount.py on this checkout: the Python calls per op of a few ops
of the catalog and reparametrized workloads, counted and named the same by
two workers, its tally of functions that share a label, and its argument
errors."""

import cProfile
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "callcount.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("callcount", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_counts_the_calls_per_op_of_each_checkout():
    done = _run("--root", str(ROOT), "--root", str(ROOT), "--workload", "catalog-periods",
                "--seed", "7", "--ops", "3")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert (record["workload"], record["seed"], record["ops"]) == ("catalog-periods", 7, 3)
    first, second = record["roots"]
    assert Path(first["root"]) == ROOT and first["failed"] == 0
    assert first["calls_per_op"] > 0 and len(first["top"]) == 15
    counts = [row["calls_per_op"] for row in first["top"]]
    assert counts == sorted(counts, reverse=True)
    # a count, unlike a time, repeats exactly on the same inputs
    assert second == first
    assert f"{first['calls_per_op']:.1f} calls per op over 3 ops" in done.stdout


def test_methods_that_share_a_label_are_all_counted():
    # cProfile labels every dataclass-generated __init__ ('<string>', 2,
    # '__init__'); pstats keeps one function per label, the tally adds them
    @dataclasses.dataclass
    class Point:
        x: int

    @dataclasses.dataclass
    class Pair:
        a: int
        b: int

    profile = cProfile.Profile()
    profile.enable()
    for i in range(3):
        Point(i)
    for i in range(5):
        Pair(i, i)
    profile.disable()
    calls = _load_tool().tally(profile)
    assert calls["<string>:2(__init__)"] == 8
    assert sum(calls.values()) == sum(entry.callcount for entry in profile.getstats())


def test_rejects_ops_below_one():
    done = _run("--root", str(ROOT), "--workload", "catalog-periods", "--seed", "7", "--ops", "0")
    assert done.returncode == 2 and "--ops must be positive" in done.stderr


def test_names_carry_no_address():
    # cProfile names object.__new__ "<built-in method __new__ of type object
    # at 0x...>", an address that differs between the two workers
    done = _run("--root", str(ROOT), "--root", str(ROOT), "--workload", "reparam-periods",
                "--seed", "7", "--ops", "3")
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout.splitlines()[-1])["roots"]
    assert second == first
    assert not any(" at 0x" in row["function"] for row in first["top"])


def test_rejects_an_unknown_workload():
    done = _run("--root", str(ROOT), "--workload", "nope", "--seed", "7", "--ops", "1")
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert "'nope'" in line and "catalog-periods" in line and "monomial-scan" in line
