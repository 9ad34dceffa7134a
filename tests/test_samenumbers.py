"""tools/samenumbers.py compares two checkouts' record dumps; its report
must name every differing record, grouped by record kind, and every
differing field with its largest relative change."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "samenumbers.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("samenumbers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _lines(records):
    return [json.dumps([key, value]) for key, value in records]


def test_compare_counts_every_difference_by_kind():
    tool = _load_tool()
    a = [
        ("cli shioda period", {"exit": 0, "stdout": "1.0"}),
        ("cli shioda scan", {"exit": 0, "stdout": "x"}),
        ("period fam s[0]", {"total": [1.0, 0.0], "max_backend_disagreement": 1e-16}),
        ("period fam s[0] pair (0,1)", {"residue_sum": [float("nan"), 0.0]}),
        ("oracle fam s[0]", {"total": [1.0, 0.0]}),
        ("scan fam row x0^5", {"totals": [[2.0, 0.0]]}),
        ("jet seed 3 identity", {"total": [0.5, 0.5]}),
        ("shioda seed 1 input 0", {"total": [0.25, 0.0]}),
    ]
    b = [list(r) for r in a]
    b[0] = ("cli shioda period", {"exit": 0, "stdout": "1.1"})
    b[2] = ("period fam s[0]", {"total": [1.0, 1e-17], "max_backend_disagreement": 4e-16})
    b[6] = ("jet seed 3 identity", {"error": "NonConvergenceError: x"})
    b.append(("jet seed 4 identity", {"total": [0.0, 0.0]}))

    first, by_kind, fields = tool.compare(_lines(a), _lines(b))
    assert first.startswith("record 0: cli shioda period")
    assert by_kind == {
        "cli": (2, ["cli shioda period"]),
        "period": (2, ["period fam s[0]"]),
        "oracle": (1, []),
        "scan": (1, []),
        "jet seed": (2, ["jet seed 3 identity", "jet seed 4 identity"]),
        "shioda seed": (1, []),
    }
    # per field: records that differ and the largest relative change; a
    # field whose versions are not both numbers has None
    assert fields == {
        "stdout": (1, None),
        "total": (2, None),
        "max_backend_disagreement": (1, 0.75),
        "error": (1, None),
    }

    first, by_kind, fields = tool.compare(_lines(a), _lines(a))
    assert first is None and fields == {}
    assert all(not differing for _, differing in by_kind.values())


def test_field_changes_are_relative_and_see_nan():
    tool = _load_tool()
    nan, inf = float("nan"), float("inf")
    a = [
        ("scan fam row x0^5", {"totals": [[2.0, 0.0]], "vanish_scales": [nan], "vanishes": True}),
        ("period fam s[0]", {"vanish_scale": 4.0, "max_backend_disagreement": 5e-16}),
        ("period fam s[1]", {"vanish_scale": nan, "max_backend_disagreement": 1e-16}),
    ]
    b = [
        ("scan fam row x0^5", {"totals": [[2.5, 0.0]], "vanish_scales": [nan], "vanishes": False}),
        ("period fam s[0]", {"vanish_scale": 5.0, "max_backend_disagreement": nan}),
        ("period fam s[1]", {"vanish_scale": nan, "max_backend_disagreement": 1e-16}),
    ]
    _, _, fields = tool.compare(_lines(a), _lines(b))
    assert fields == {
        "totals": (1, 0.2),
        "vanishes": (1, None),
        "vanish_scale": (1, 0.2),
        "max_backend_disagreement": (1, inf),
    }
    assert tool.relative_change([1, 2], [1, 4]) == 0.5
    assert tool.relative_change([1.0], [1.0, 2.0]) is None


def test_verify_records_keep_numbers_and_drop_timings():
    tool = _load_tool()
    from types import SimpleNamespace

    from quintic_periods.verification import CheckResult

    results = [
        CheckResult("residues", True, "", {"worst_backend_rel": 2e-11, "worst_sum": 5e-15}),
        CheckResult(
            "scan", False, "", {"rows": 126, "elapsed": 0.4, "reference_rows": ["x0^5"]},
            runtime_seconds=0.5,
        ),
    ]
    records = tool.verify_records(SimpleNamespace(run_all=lambda: results))
    assert records == [
        ("verify residues", {"passed": True, "worst_backend_rel": 2e-11, "worst_sum": 5e-15}),
        ("verify scan", {"passed": False, "rows": 126}),
    ]
    assert {tool.record_kind(key) for key, _ in records} == {"verify"}


def test_dump_of_a_checkout_without_sources_ends_with_one_error_line(tmp_path):
    # as abtime, callcount and replay end: no traceback, one line naming
    # where the library sources should be
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tmp_path), "--dump"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: no library sources at {tmp_path / 'src' / 'quintic_periods'}\n"
