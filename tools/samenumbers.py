"""Check that two checkouts compute the same numbers, to the bit.

    python3 tools/samenumbers.py --root A --root B

Each checkout runs in its own process, importing its own ``src`` as
``tools/abtime.py`` imports it (and, for the jets, its own
``tests/test_period.py`` and ``perfbench/workloads.py``), and writes one
record per line.
The corpus:

* the README example config, the same config with the README's
  coordinate-expression family (``"jets": "analytic"``, its symbolic
  ``s``-derivatives), with three other expression lines (two ``root5``
  coordinates, a ``root5`` nested in a radicand, a coordinate with a
  division), on ``"shioda-quintic"`` (whose non-monomial partials are
  rooted as they stand), and with declared tolerances (a rational string,
  a ``[re, im]`` pair and a float), through the CLI: the ``period`` and the
  ``scan --degree 5`` CSV and JSON bytes, stdout and exit code;
* ``period_at`` of ``x1^3 x2^2`` on each of the 50 catalog lines at every
  ``STANDARD_PERIOD_SAMPLES`` value, and ``monomial_scan`` of each line at
  the first three of them;
* ``period_at`` of ``x1^3 x2^2`` and ``monomial_scan`` on the five
  ``mobius-null/zeta=K/seed=0`` families at the first three
  ``STANDARD_PERIOD_SAMPLES`` values;
* ``period_of_jet`` of ``x1^3 x2^2`` on 600 jets: the tests'
  ``TestDegreeTwoJets._random_jet`` seeds 0-199, each as it stands, under
  ``t -> 1/t`` and under the tests' Moebius map;
* ``monomial_scan`` at the jet's own sample on ``_random_jet`` seeds 0-19,
  as they stand and under ``t -> 1/t``: degree-2 jets, whose pole rows have
  two or more terms;
* ``period_of_jet`` of ``x1^3 x2^2`` and of ``x0^3 x1^2``, and
  ``monomial_scan``, on the tests' ``TestLocationMaps._dropped_jet`` seeds
  11-20: degree-2 jets whose ``x_0`` and ``x_1`` drop degree, so that pairs
  of different numerator widths share ``[1:0]``;
* the ``shioda-lines`` workload's ``period_of_jet`` on its first 200 inputs
  of seed 1: degree-1 jets on ``shioda_quintic()``, whose non-monomial
  partials are rooted as they stand;
* each acceptance criterion of ``verification.run_all``: whether it passed
  and its measured numbers, without its timings.

A period record holds every total, residue, quadrature value and scale,
pole order, exact zero, VANISHES flag, residue-theorem and dual-sum check of
the report, down to each site; a scan's ``worst_backend`` is recorded as a
number per sample (``worst_backend_value``) and the pair and monomial that
attain it as text (``worst_backend_row``); an input that raises records the
error's class and message.  Floats are compared through their shortest
round-trip text, so any difference in the last bit counts.

Prints ``identical``, or the first record that differs (both values), then
for each record kind (``cli``, ``period``, ``scan``, ``jet seed``,
``dropped seed``, ``shioda seed``, ``verify``) how many of its records
differ and their keys, then each field that differs between records present
on both sides: in how many records, and its largest
relative change (``inf`` where a number turns NaN or infinite, ``-`` for a
field that is not numbers, such as a CLI output text).  Exits 0 when
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abtime import import_checkout, run_main  # noqa: E402

# the README example config, without its output paths
README_CONFIG = {
    "hypersurface": "fermat/m=3,d=5",
    "family": "fermat-line/pair=0,1/zeta=1/corrected",
    "p": "x1^3*x2^2",
    "samples": [[0.1, 0.0], [0.0, 0.12], [0.15, 0.05]],
}
# the README coordinate-expression family: the paper's line, parsed
EXPRESSION_FAMILY = {
    "coordinates": ["t", "-zeta*t", "1", "s", "root5(-1-s^5)"],
    "zeta_index": 1,
}
# other lines (t, -zeta t, a, b, c) with a^5 + b^5 + c^5 = 0 on the same
# quintic: two root5 coordinates, a root5 nested in a radicand, a division
EXPRESSION_LINES = {
    "two root5": ["t", "-zeta*t", "s", "root5(1+s^3)", "root5(-1-s^3-s^5)"],
    "nested root5": ["t", "-zeta*t", "1", "root5(s+2)", "root5(-1-root5(s+2)^5)"],
    "division": ["t", "-zeta*t", "1", "s/2", "root5(-1-(s/2)^5)"],
}
# each tolerance declared, in each way a number may be written
DECLARED_TOLERANCES = {
    "backend_agreement": "1/100000000",
    "residue_theorem": [1e-8, 0],
    "vanish_rel": 1e-6,
}
CLI_CONFIGS = {
    "catalog": README_CONFIG,
    "expression analytic": {
        **README_CONFIG,
        "family": {**EXPRESSION_FAMILY, "jets": "analytic"},
    },
    **{
        f"expression {name}": {**README_CONFIG, "family": {**EXPRESSION_FAMILY, "coordinates": c}}
        for name, c in EXPRESSION_LINES.items()
    },
    "shioda": {**README_CONFIG, "hypersurface": "shioda-quintic"},
    "declared tolerances": {**README_CONFIG, "tolerances": DECLARED_TOLERANCES},
}
JET_SEEDS = range(200)
SCAN_JET_SEEDS = range(20)
DROPPED_SEEDS = range(11, 21)
SHIODA_SEED, SHIODA_INPUTS = 1, 200
# measured values that are run times, which no two runs share
TIMINGS = ("elapsed",)
SCAN_SAMPLES = 3


def plain(value):
    """JSON-ready value: complex as [re, im], numpy scalars and arrays as
    Python numbers and lists."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def report_records(key: str, rep) -> list[tuple[str, dict]]:
    """One record for the report, one per pair and one per site."""
    out = [(key, {
        "total": plain(rep.total),
        "vanish_scale": rep.vanish_scale,
        "vanishes": rep.vanishes,
        "min_pole_separation": rep.min_pole_separation,
        "max_backend_disagreement": rep.max_backend_disagreement,
    })]
    for (j0, j1), c in sorted(rep.per_pair.items()):
        pair = f"{key} pair ({j0},{j1})"
        out.append((pair, {
            "residue_sum": plain(c.residue_sum),
            "numerator_zero": c.numerator_zero,
            "residue_theorem_check": c.residue_theorem_check,
            "residue_theorem_scale": c.residue_theorem_scale,
            "dual_sum_check": c.dual_sum_check,
        }))
        for i, s in enumerate(c.sites):
            out.append((f"{pair} site {i}", {
                "location": plain(s.location),
                "at_infinity": s.at_infinity,
                "zero_multiplicity": s.zero_multiplicity,
                "pole_order": s.pole_order,
                "residue": plain(s.residue),
                "residue_quadrature": plain(s.residue_quadrature),
                "quadrature_scale": s.quadrature_scale,
                "backend_disagreement": s.backend_disagreement,
            }))
    return out


def guarded(key: str, run, records) -> list[tuple[str, dict]]:
    """records(key, run()), or one record of the error run raises."""
    try:
        result = run()
    except Exception as exc:  # a raised error is part of the corpus
        return [(key, {"error": f"{type(exc).__name__}: {exc}"})]
    return records(key, result)


def scan_records(key: str, table) -> list[tuple[str, dict]]:
    # the worst row's disagreement as a number and its name as text, so that
    # a last-bit move shows apart from a renamed row
    out = [(f"{key} worst_backend", {
        "worst_backend_value": [value for value, _, _ in table.worst_backend],
        "worst_backend_row": [
            "" if pair is None else f"pair ({pair[0]},{pair[1]}) {monomial}"
            for _, pair, monomial in table.worst_backend
        ],
    })]
    for row in table.rows:
        out.append((f"{key} row {row.monomial}", {
            "totals": plain(row.totals),
            "vanish_scales": plain(row.vanish_scales),
            "max_backend_disagreements": plain(row.max_backend_disagreements),
            "vanishes": row.vanishes,
        }))
    return out


def verify_records(verification) -> list[tuple[str, dict]]:
    """One record per acceptance criterion: its passed flag and its measured
    numbers but the ``TIMINGS``."""
    out = []
    for result in verification.run_all():
        numbers = {
            name: value for name, value in result.measured.items()
            if isinstance(value, (int, float)) and name not in TIMINGS
        }
        out.append((f"verify {result.name}", {"passed": result.passed, **numbers}))
    return out


def cli_records(cli) -> list[tuple[str, dict]]:
    out = []
    for name, cfg in CLI_CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(cfg))
            for command, extra in (("period", []), ("scan", ["--degree", "5"])):
                csv, js = Path(tmp) / f"{command}.csv", Path(tmp) / f"{command}.json"
                argv = [command, "--config", str(config), *extra, "--out-csv", str(csv),
                        "--out-json", str(js)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                out.append((f"cli {name} {command}", {
                    "exit": code,
                    "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue(),
                    "csv": csv.read_text() if csv.exists() else None,
                    "json": js.read_text() if js.exists() else None,
                }))
    return out


def load_module(name: str, path: Path):
    """The module at path, registered as name: dataclasses look their
    module up while it runs."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(root: Path) -> None:
    """Write the corpus records of the checkout at root, one JSON line each."""
    quintic_periods = import_checkout(root)
    from quintic_periods import cli, period, verification
    from quintic_periods.catalog import STANDARD_PERIOD_SAMPLES, line_families, resolve_family
    from quintic_periods.geometry import CurveFamily, MobiusMap, transform_jet
    from quintic_periods.multipoly import MultiPoly

    tests = load_module("_tests_period", root / "tests" / "test_period.py")
    workloads = load_module("_workloads", root / "perfbench" / "workloads.py")

    X = quintic_periods.fermat_hypersurface(3, 5)
    P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
    # a class composing to a low degree on the dropped jets, where some pairs
    # then have no pole at [1:0]
    low = MultiPoly.monomial(5, 1.0, (3, 2, 0, 0, 0))

    def scan_of_jet(jet):
        return period.monomial_scan(X, CurveFamily("jet", lambda s: jet), [jet.s], 5)

    records = cli_records(cli)
    scan_samples = list(STANDARD_PERIOD_SAMPLES[:SCAN_SAMPLES])
    families = [(d.identifier, d.family(), STANDARD_PERIOD_SAMPLES) for d in line_families()]
    families += [
        (ident, resolve_family(ident), scan_samples)
        for ident in (f"mobius-null/zeta={k}/seed=0" for k in range(5))
    ]
    for ident, fam, samples in families:
        for k, s in enumerate(samples):
            key = f"period {ident} s[{k}]"
            records += guarded(key, lambda: period.period_at(X, P, fam, s), report_records)
        key = f"scan {ident}"
        records += guarded(
            key, lambda: period.monomial_scan(X, fam, scan_samples, 5), scan_records
        )
    maps = {
        "identity": None,
        "t->1/t": MobiusMap(0, 1, 1, 0),
        # the Moebius map of the tests' reparametrization checks
        "moebius": MobiusMap(1.1 + 0.3j, 0.4, -0.2 + 0.1j, 0.9 - 0.2j),
    }
    for seed in JET_SEEDS:
        for name, A in maps.items():
            def run(seed=seed, A=A):
                jet = tests.TestDegreeTwoJets._random_jet(seed)
                return period.period_of_jet(X, P, jet if A is None else transform_jet(jet, A))

            records += guarded(f"jet seed {seed} {name}", run, report_records)
    for seed in SCAN_JET_SEEDS:
        for name in ("identity", "t->1/t"):
            def run(seed=seed, A=maps[name]):
                jet = tests.TestDegreeTwoJets._random_jet(seed)
                return scan_of_jet(jet if A is None else transform_jet(jet, A))

            records += guarded(f"scan jet seed {seed} {name}", run, scan_records)
    for seed in DROPPED_SEEDS:
        jet = tests.TestLocationMaps._dropped_jet(seed)
        for Q in (P, low):
            key = f"dropped seed {seed} {Q.to_text()}"
            records += guarded(key, lambda: period.period_of_jet(X, Q, jet), report_records)
        records += guarded(f"scan dropped seed {seed}", lambda: scan_of_jet(jet), scan_records)
    shioda = workloads.ShiodaLines()
    inputs = itertools.islice(shioda.inputs(SHIODA_SEED), SHIODA_INPUTS)
    for i, op in enumerate(inputs):
        key = f"shioda seed {SHIODA_SEED} input {i}"
        records += guarded(key, lambda: shioda.run(op), report_records)
    records += verify_records(verification)
    for key, value in records:
        print(json.dumps([key, value], default=plain))


def relative_change(va, vb) -> float | None:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two versions
    of one field, 0 where both are NaN and ``inf`` where one is and the other
    is not; None when the versions differ in anything but numbers."""
    if isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb):
        changes = [relative_change(x, y) for x, y in zip(va, vb)]
        return None if None in changes else max(changes, default=0.0)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (va, vb))
    if not numbers:
        return 0.0 if va == vb else None
    if va == vb or math.isnan(va) and math.isnan(vb):
        return 0.0
    if not (math.isfinite(va) and math.isfinite(vb)):
        return math.inf
    return abs(va - vb) / max(abs(va), abs(vb))


def field_changes(a: list, b: list) -> dict[str, tuple[int, float | None]]:
    """Per field name, over the records present in both dumps: in how many
    records it differs, and its largest ``relative_change`` (None if one
    of them is not numbers)."""
    b_by_key = dict(b)
    out: dict[str, tuple[int, float | None]] = {}
    for key, va in a:
        vb = b_by_key.get(key)
        if vb is None:
            continue
        for name in {**va, **vb}:
            if json.dumps(va.get(name)) == json.dumps(vb.get(name)):
                continue
            count, worst = out.get(name, (0, 0.0))
            change = relative_change(va.get(name), vb.get(name))
            worst = None if worst is None or change is None else max(worst, change)
            out[name] = (count + 1, worst)
    return out


def record_kind(key: str) -> str:
    """The part of the corpus a record key belongs to: ``cli``, ``period``,
    ``scan``, ``jet seed``, ``dropped seed``, ``shioda seed`` or ``verify``."""
    first, _, rest = key.partition(" ")
    return f"{first} seed" if rest.startswith("seed ") else first


def compare(
    lines_a: list[str], lines_b: list[str]
) -> tuple[str | None, dict[str, tuple[int, list[str]]], dict[str, tuple[int, float | None]]]:
    """The first differing record, described; per record kind, the number of
    records and the keys of those that differ or are missing on one side;
    and the ``field_changes`` of the records present in both."""
    a = [json.loads(line) for line in lines_a]
    b = [json.loads(line) for line in lines_b]
    first = None
    for i in range(max(len(a), len(b))):
        ra = lines_a[i] if i < len(a) else None
        rb = lines_b[i] if i < len(b) else None
        if ra != rb:
            first = f"record {i}: " + _difference(a[i] if ra else None, b[i] if rb else None)
            break
    # records are compared by their text: NaN != NaN as floats
    text_a = {key: line for (key, _), line in zip(a, lines_a)}
    text_b = {key: line for (key, _), line in zip(b, lines_b)}
    by_kind: dict[str, tuple[int, list[str]]] = {}
    for key in {**text_a, **text_b}:
        count, differing = by_kind.get(record_kind(key), (0, []))
        if text_a.get(key) != text_b.get(key):
            differing.append(key)
        by_kind[record_kind(key)] = (count + 1, differing)
    return first, by_kind, field_changes(a, b)


def _difference(ra, rb) -> str:
    """Two versions of one record, by the fields in which they differ."""
    if ra is None or rb is None or ra[0] != rb[0]:
        return f"\n  A: {_clip(ra)}\n  B: {_clip(rb)}"
    (key, va), vb = ra, rb[1]
    fields = [name for name in {**va, **vb} if va.get(name, ()) != vb.get(name, ())]
    lines = [f"{key}"] + [
        f"  {name}:\n    A: {_clip(va.get(name))}\n    B: {_clip(vb.get(name))}" for name in fields
    ]
    return "\n".join(lines)


def _clip(value, width: int = 400) -> str:
    text = json.dumps(value)
    return text if len(text) <= width else text[:width] + " ..."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, action="append", required=True,
                    help="a checkout; give two, or one with --dump")
    ap.add_argument("--dump", action="store_true",
                    help="write the records of the one --root instead of comparing")
    args = ap.parse_args(argv)
    if args.dump:
        if len(args.root) != 1:
            ap.error("--dump takes one --root")
        dump(args.root[0].resolve())
        return 0
    if len(args.root) != 2:
        ap.error("give two --root checkouts")
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--dump", "--root", str(root.resolve())],
            stdout=subprocess.PIPE, text=True,
        )
        for root in args.root
    ]
    outputs = [p.communicate()[0] for p in procs]
    for root, p in zip(args.root, procs):
        if p.returncode:
            sys.exit(f"error: the run of {root} exited with {p.returncode}")
    lines_a, lines_b = (out.splitlines() for out in outputs)
    first, by_kind, fields = compare(lines_a, lines_b)
    if first is None:
        print("identical")
        print(f"{len(lines_a)} records")
        return 0
    print(f"first difference, {first}")
    print("differing records by kind:")
    for kind, (count, differing) in by_kind.items():
        print(f"  {kind}: {len(differing)} of {count}")
        for key in differing:
            print(f"    {key}")
    print("differing fields: records, largest relative change")
    for name, (count, change) in sorted(fields.items()):
        print(f"  {name}: {count}, {'-' if change is None else f'{change:.3g}'}")
    return 1


if __name__ == "__main__":
    run_main(main)
