"""tools/samenumbers.py compares two checkouts' record dumps; its report
must name every differing record, grouped by record kind."""

import importlib.util
import json
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
    ]
    b = [list(r) for r in a]
    b[0] = ("cli shioda period", {"exit": 0, "stdout": "1.1"})
    b[2] = ("period fam s[0]", {"total": [1.0, 1e-17], "max_backend_disagreement": 4e-16})
    b[6] = ("jet seed 3 identity", {"error": "NonConvergenceError: x"})
    b.append(("jet seed 4 identity", {"total": [0.0, 0.0]}))

    first, by_kind, change = tool.compare(_lines(a), _lines(b))
    assert first.startswith("record 0: cli shioda period")
    assert by_kind == {
        "cli": (2, ["cli shioda period"]),
        "period": (2, ["period fam s[0]"]),
        "oracle": (1, []),
        "scan": (1, []),
        "jet seed": (2, ["jet seed 3 identity", "jet seed 4 identity"]),
    }
    assert change == 3e-16

    first, by_kind, change = tool.compare(_lines(a), _lines(a))
    assert first is None and change == 0.0
    assert all(not differing for _, differing in by_kind.values())
