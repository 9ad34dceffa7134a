"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion check and prints a single PASS/FAIL line with
the measured values (visible with pytest -s or in CI logs); the assertion
pins the outcome.  The same checks back `quintic-periods verify`.
"""

import json

import pytest

from quintic_periods import verification as ver
from quintic_periods.errors import GoldenFixtureError

CRITERIA = [
    ("1 contraction-sign oracle", ver.check_contraction_oracle, 1.0),
    ("2 residue engine", ver.check_residue_engine, 10.0),
    ("3 geometry fixtures", ver.check_geometry_fixtures, None),
    ("4 deformation nullity", ver.check_mobius_nullity, None),
    ("5 coordinate invariance", ver.check_coordinate_invariance, None),
    ("6 linearity", ver.check_linearity, None),
    ("7 golden regression", ver.check_paper_regression, None),
    ("8 monomial scan", ver.check_monomial_scan, None),
    ("9 catalog", ver.check_catalog, None),
]


@pytest.mark.parametrize("label,check,budget", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(label, check, budget):
    result = ver._timed(check)
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] {status} {label}: {result.summary} ({result.runtime_seconds:.2f}s)")
    assert result.passed, f"{label}: {result.summary}"
    if budget is not None:
        assert result.runtime_seconds < budget, (
            f"{label} took {result.runtime_seconds:.2f}s, budget {budget}s"
        )


def test_residue_engine_runs_the_contour_at_infinity_and_on_dense_rows(monkeypatch):
    # criterion 2 runs the engine's own trapezoid rule at [1:0] and on rows
    # of two or more terms, which the Fermat lines' one-term rows never reach
    from quintic_periods.numkernel.residues import _Contour

    init, trapezoid = _Contour.__init__, _Contour.trapezoid
    seen = {"infinity": 0, "dense": 0}

    def spied_init(self, radii, width, at_infinity):
        init(self, radii, width, at_infinity)
        self.at_infinity = at_infinity

    def spied_trapezoid(self, rows, has_pole, den):
        seen["infinity"] += int(has_pole.sum()) if self.at_infinity else 0
        seen["dense"] += int(((rows[has_pole] != 0).sum(axis=-1) >= 2).sum())
        return trapezoid(self, rows, has_pole, den)

    monkeypatch.setattr(_Contour, "__init__", spied_init)
    monkeypatch.setattr(_Contour, "trapezoid", spied_trapezoid)
    assert ver.check_residue_engine().passed
    assert seen["infinity"] > 0 and seen["dense"] > 0


@pytest.mark.parametrize("monomial", ["x1^3*x4^2", "x4^5"])
def test_scan_criterion_fails_on_one_cell_off_the_closed_form(monkeypatch, monomial):
    # criterion 8 reads every cell: the nonzero cell of x1^3 x4^2 at the
    # third sample scaled by 1 + 1e-12, or the predicted zero of x4^5 there
    # set to 1e-300j, fails it
    scan = ver.monomial_scan

    def moved(*args):
        table = scan(*args)
        (row,) = [r for r in table.rows if r.monomial == monomial]
        row.totals[2] = row.totals[2] * (1 + 1e-12) if row.totals[2] else 1e-300j
        return table

    monkeypatch.setattr(ver, "monomial_scan", moved)
    result = ver.check_monomial_scan()
    assert not result.passed
    if monomial == "x1^3*x4^2":
        assert result.measured["closed_form_zeros_exact"]
        assert result.measured["worst_closed_form_dev"] > 1e-13
    else:
        assert not result.measured["closed_form_zeros_exact"]


def test_nullity_criterion_fails_on_a_moving_line(monkeypatch):
    # the corrected slice in place of the null families: its inner factors
    # do not cancel, so criterion 4 reads them at about their term scale
    from quintic_periods import catalog as cat

    monkeypatch.setattr(
        cat, "mobius_null_family", lambda zeta_index, seed: cat.paper_line_slice(1)
    )
    result = ver.check_mobius_nullity()
    assert not result.passed
    assert result.measured["worst_numerator_ratio"] == pytest.approx(1.0002, abs=1e-4)


@pytest.mark.parametrize(
    "drop, message",
    [(None, "golden fixture missing"), ("tolerance", r"malformed \(missing tolerance\)"),
     ("literal", r"malformed \(missing mode literal\)")],
    ids=["file", "key", "mode"],
)
def test_load_golden_refuses_an_incomplete_fixture(tmp_path, monkeypatch, drop, message):
    # the shipped fixture less one key or one mode, or no file at all
    golden = ver.load_golden()
    path = tmp_path / "line_slice_regression.json"
    if drop == "literal":
        del golden["modes"]["literal"]
    elif drop is not None:
        del golden[drop]
    if drop is not None:
        path.write_text(json.dumps(golden))
    monkeypatch.setattr(ver, "GOLDEN_PATH", path)
    with pytest.raises(GoldenFixtureError, match=message):
        ver.load_golden()
