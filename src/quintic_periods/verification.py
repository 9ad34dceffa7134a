"""Acceptance suite: one check per criterion, shared by CLI and tests.

Each check returns a CheckResult with the measured quantities and the
tolerance it was tested against.  The golden regression fixture lives in
``goldens/v1/line_slice_regression.json`` next to this module; it was frozen
from the first verified dual-backend run and every later run must reproduce
it to 1e-8.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog as cat
from .errors import GoldenFixtureError
from .geometry import MobiusMap, containment_residual, mobius_reparam, tangency_residual
from .griffiths import contract_bruteforce, contraction_sign, pair_inners, pair_wedges
from .multipoly import MultiPoly, monomials_of_degree
from .numkernel.residues import SiteEntry, SiteLayout
from .numkernel.unipoly import UniPoly
from .period import compare_closed_form, monomial_scan, period_at, sweep

GOLDEN_PATH = Path(__file__).parent / "goldens" / "v1" / "line_slice_regression.json"
GOLDEN_TOL = 1e-8

RESIDUE_SEED = 20240801
RESIDUE_CASES = 500
MOBIUS_SEEDS = (0, 1, 2, 3, 4)
REPARAM_SEED = 777
LINEARITY_SEED = 99


@dataclass
class CheckResult:
    name: str
    passed: bool
    summary: str
    measured: dict = field(default_factory=dict)
    tolerance: str = ""
    runtime_seconds: float = 0.0


def _timed(fn: Callable[[], CheckResult]) -> CheckResult:
    t0 = time.perf_counter()
    result = fn()
    result.runtime_seconds = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# 1. contraction-sign oracle


def check_contraction_oracle() -> CheckResult:
    count = 0
    for m in (2, 3, 4, 5):
        # contracting more than m+1 times kills the (m+1)-form, so the
        # comparable range is 1 <= |J| <= min(4, m+1)
        for size in range(1, min(4, m + 1) + 1):
            for J in itertools.combinations(range(m + 2), size):
                closed = contraction_sign(J, m)
                brute = contract_bruteforce(J, m)
                if closed.sign != brute.sign or closed.complement != brute.complement:
                    return CheckResult(
                        "contraction",
                        False,
                        f"mismatch at J={J}, m={m}: closed {closed.sign}, brute {brute.sign}",
                    )
                count += 1
    return CheckResult(
        "contraction",
        True,
        f"{count} index tuples, closed-form sign == bruteforce interior products",
        measured={"tuples": count},
        tolerance="exact equality",
    )


# ---------------------------------------------------------------------------
# 2. residue engine on seeded rational functions


def _seeded_rational(rng: np.random.Generator) -> tuple[UniPoly, complex, list[complex]]:
    """Numerator, leading coefficient and simple poles of a seeded rational
    function."""
    n_poles = int(rng.integers(3, 9))
    poles: list[complex] = []
    while len(poles) < n_poles:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(z - p) >= 1e-2 for p in poles):
            poles.append(z)
    lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
    num_deg = int(rng.integers(0, 9))
    num = UniPoly([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(num_deg + 1)])
    if num.is_zero():
        num = UniPoly.one()
    return num, lead, poles


def check_residue_engine() -> CheckResult:
    """The engine's site layout on seeded num / (lead * prod (t - p)): at every
    pole p and at [1:0], the analytic residue, read from the declared poles,
    against the contour, which integrates the expanded denominator; and the
    residue theorem over all those sites."""
    rng = np.random.default_rng(RESIDUE_SEED)
    worst_rel = 0.0
    worst_sum = 0.0
    sites = infinity_poles = 0
    for _ in range(RESIDUE_CASES):
        num, lead, poles = _seeded_rational(rng)
        den, declared = UniPoly.from_roots(poles, lead), [(p, 1) for p in poles]
        entries = [SiteEntry(p, 1, declared, len(num.coeffs), contour=True) for p in poles]
        entries.append(SiteEntry(None, 1, declared, len(num.coeffs), contour=True))
        # every entry reads the one row, on one stack
        n, rows = len(entries), np.array([[num.coeffs]])
        mags = np.abs(rows)
        live = np.array([[True]])
        layout = SiteLayout(entries, [0] * n)
        dens = den(layout.nodes)[layout.circle_of]
        table = layout.apply([lead] * n, dens, rows, live, mags, mags.max(axis=2))
        residues, quadratures = table.residue[:, 0].tolist(), table.quadrature[:, 0].tolist()
        hit = [k for k in range(n) if table.order[k, 0]]
        sites += len(hit)
        infinity_poles += sum(entries[k].at_infinity for k in hit)
        for k in hit:
            ra, rq = residues[k], quadratures[k]
            worst_rel = max(worst_rel, abs(ra - rq) / max(abs(ra), abs(rq), 1e-30))
        worst_sum = max(worst_sum, abs(sum(residues)) / max(1.0, *map(abs, residues)))
    passed = worst_rel < 1e-8 and worst_sum < 1e-8
    return CheckResult(
        "residues",
        passed,
        f"{RESIDUE_CASES} seeded rational functions through the engine's site maps, "
        f"{sites} poles ({infinity_poles} at [1:0]): worst backend rel {worst_rel:.2e}, "
        f"worst residue-theorem sum {worst_sum:.2e}",
        measured={"worst_backend_rel": worst_rel, "worst_sum": worst_sum},
        tolerance="1e-8 relative (both)",
    )


# ---------------------------------------------------------------------------
# 3. geometry fixtures


def check_geometry_fixtures() -> CheckResult:
    X = cat.fermat_hypersurface(3, 5)
    corrected = cat.paper_line_slice(1, cat.MODE_CORRECTED)
    literal = cat.paper_line_slice(1, cat.MODE_LITERAL)
    worst_cont = 0.0
    worst_tan = 0.0
    for s in cat.STANDARD_GEOMETRY_SAMPLES:
        jet = corrected.jet_at(s)
        worst_cont = max(worst_cont, containment_residual(X, jet))
        worst_tan = max(worst_tan, tangency_residual(X, jet))
    lit_cont = min(
        containment_residual(X, literal.jet_at(s)) for s in cat.STANDARD_GEOMETRY_SAMPLES
    )
    passed = worst_cont < 1e-10 and worst_tan < 1e-10 and lit_cont > 0.1
    return CheckResult(
        "geometry",
        passed,
        f"corrected slice: containment {worst_cont:.2e}, tangency {worst_tan:.2e}; "
        f"literal slice containment {lit_cont:.2e} (must exceed 0.1)",
        measured={
            "corrected_containment": worst_cont,
            "corrected_tangency": worst_tan,
            "literal_containment": lit_cont,
        },
        tolerance="< 1e-10 corrected, > 0.1 literal",
    )


# ---------------------------------------------------------------------------
# 4. nullity of reparametrization deformations


def check_mobius_nullity() -> CheckResult:
    X = cat.fermat_hypersurface(3, 5)
    P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
    samples = cat.STANDARD_PERIOD_SAMPLES[:5]
    worst_num = 0.0
    worst_period = 0.0
    for seed in MOBIUS_SEEDS:
        fam = cat.mobius_null_family(1, seed)
        for s in samples:
            jet = fam.jet_at(s)
            inner, term_scale = pair_inners(jet, pair_wedges(jet))
            ratio = np.abs(inner).max(axis=1) / np.maximum(term_scale, 1e-300)
            worst_num = max(worst_num, float(ratio.max()))
            rep = period_at(X, P, fam, s)
            worst_period = max(worst_period, abs(rep.total))
    passed = worst_num < 1e-10 and worst_period < 1e-9
    return CheckResult(
        "nullity",
        passed,
        f"{len(MOBIUS_SEEDS)} seeded deformation families: worst numerator ratio "
        f"{worst_num:.2e}, worst |period| {worst_period:.2e}",
        measured={"worst_numerator_ratio": worst_num, "worst_period": worst_period},
        tolerance="numerators < 1e-10 * scale, |period| < 1e-9",
    )


# ---------------------------------------------------------------------------
# 5. coordinate invariance under source reparametrization


def check_coordinate_invariance() -> CheckResult:
    X = cat.fermat_hypersurface(3, 5)
    P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
    fam = cat.paper_line_slice(1, cat.MODE_CORRECTED)
    rng = np.random.default_rng(REPARAM_SEED)
    g = rng.standard_normal(8)
    A = MobiusMap(
        complex(g[0], g[1]), complex(g[2], g[3]), complex(g[4], g[5]), complex(g[6], g[7])
    )
    refam = mobius_reparam(fam, A)
    worst = 0.0
    for s in cat.STANDARD_PERIOD_SAMPLES:
        a = period_at(X, P, fam, s).total
        b = period_at(X, P, refam, s).total
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    passed = worst < 1e-8
    return CheckResult(
        "invariance",
        passed,
        f"period before/after seeded reparametrization: worst rel diff {worst:.2e} over 8 samples",
        measured={"worst_rel_diff": worst},
        tolerance="1e-8 relative",
    )


# ---------------------------------------------------------------------------
# 6. linearity in the polynomial class


def check_linearity() -> CheckResult:
    X = cat.fermat_hypersurface(3, 5)
    fam = cat.paper_line_slice(1, cat.MODE_CORRECTED)
    rng = np.random.default_rng(LINEARITY_SEED)
    monos = monomials_of_degree(5, 5)
    i, j = rng.choice(len(monos), size=2, replace=False)
    P1 = MultiPoly.monomial(5, 1.0, monos[int(i)])
    P2 = MultiPoly.monomial(5, 1.0, monos[int(j)])
    comb = P1 * 2.0 + P2 * (-3j)
    worst = 0.0
    for s in cat.STANDARD_PERIOD_SAMPLES[:4]:
        lhs = period_at(X, comb, fam, s).total
        rhs = 2.0 * period_at(X, P1, fam, s).total - 3j * period_at(X, P2, fam, s).total
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    passed = worst < 1e-9
    return CheckResult(
        "linearity",
        passed,
        f"period(2 P1 - 3i P2) vs combination: worst rel diff {worst:.2e}",
        measured={"worst_rel_diff": worst, "P1": P1.to_text(), "P2": P2.to_text()},
        tolerance="1e-9 relative",
    )


# ---------------------------------------------------------------------------
# 7. golden regression of the classical slice, both modes


def _regression_run() -> dict:
    X = cat.fermat_hypersurface(3, 5)
    P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
    zeta_index = 1
    ref = cat.ClosedFormRef(zeta=cat.zeta_value(zeta_index))
    samples = list(cat.STANDARD_PERIOD_SAMPLES)
    out: dict = {
        "version": 1,
        "tolerance": GOLDEN_TOL,
        "zeta_index": zeta_index,
        "p": "x1^3*x2^2",
        "samples": [[s.real, s.imag] for s in samples],
        "modes": {},
    }
    worst_backend = 0.0
    for mode in (cat.MODE_CORRECTED, cat.MODE_LITERAL):
        fam = cat.paper_line_slice(zeta_index, mode)
        sw = sweep(X, P, fam, samples)
        for rep in sw.samples:
            worst_backend = max(worst_backend, rep.max_backend_disagreement)
        comp = compare_closed_form(sw, ref)
        out["modes"][mode] = {
            "periods": [[r.total.real, r.total.imag] for r in sw.samples],
            "verdict": comp.verdict,
            "constant": [comp.constant.real, comp.constant.imag],
            "max_relative_deviation": comp.max_relative_deviation,
            "vanishes_identically": sw.vanishes_identically,
        }
    out["max_backend_disagreement"] = worst_backend
    return out


def load_golden() -> dict:
    path = GOLDEN_PATH
    if not path.exists():
        raise GoldenFixtureError(f"golden fixture missing: {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GoldenFixtureError(f"golden fixture unreadable: {path} ({exc})") from None
    for key in ("version", "tolerance", "samples", "modes"):
        if key not in data:
            raise GoldenFixtureError(f"golden fixture malformed (missing {key}): {path}")
    for mode in (cat.MODE_CORRECTED, cat.MODE_LITERAL):
        if mode not in data["modes"]:
            raise GoldenFixtureError(f"golden fixture malformed (missing mode {mode}): {path}")
    return data


def refreeze_golden() -> None:
    path = GOLDEN_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_regression_run(), sort_keys=True, indent=2) + "\n")


def check_paper_regression() -> CheckResult:
    try:
        golden = load_golden()
    except GoldenFixtureError as exc:
        return CheckResult("regression", False, str(exc))
    current = _regression_run()
    if current["max_backend_disagreement"] >= 1e-8:
        return CheckResult(
            "regression",
            False,
            f"backend disagreement {current['max_backend_disagreement']:.2e} >= 1e-8",
        )
    worst = 0.0
    for mode in (cat.MODE_CORRECTED, cat.MODE_LITERAL):
        got = current["modes"][mode]
        want = golden["modes"][mode]
        if got["verdict"] != want["verdict"]:
            return CheckResult(
                "regression",
                False,
                f"{mode} verdict changed: frozen {want['verdict']}, got {got['verdict']}",
            )
        for (ar, ai), (br, bi) in zip(got["periods"], want["periods"]):
            diff = abs(complex(ar, ai) - complex(br, bi))
            worst = max(worst, diff / max(1.0, abs(complex(br, bi))))
    passed = worst < GOLDEN_TOL
    verdicts = {m: golden["modes"][m]["verdict"] for m in golden["modes"]}
    return CheckResult(
        "regression",
        passed,
        f"both modes reproduce frozen periods (worst rel {worst:.2e}); "
        f"backend disagreement {current['max_backend_disagreement']:.2e}; verdicts {verdicts}",
        measured={
            "worst_rel_vs_golden": worst,
            "max_backend_disagreement": current["max_backend_disagreement"],
            "verdicts": verdicts,
        },
        tolerance=f"{GOLDEN_TOL} relative vs golden; backends < 1e-8",
    )


# ---------------------------------------------------------------------------
# 8. monomial scan scale and determinism


def check_monomial_scan() -> CheckResult:
    """Scale, byte-stable CSV, and every cell against the catalog's closed
    form ``LineFamilyDescriptor.monomial_period``: its zeros exact, the other
    cells within 1e-13 relative.  The scan assembles all classes in one
    pass; the closed form keeps the comparison independent of it."""
    from .cli import scan_csv_lines

    X = cat.fermat_hypersurface(3, 5)
    d = cat.LineFamilyDescriptor((0, 1), 1)
    fam = d.family()
    samples = list(cat.STANDARD_PERIOD_SAMPLES[:5])
    t0 = time.perf_counter()
    table = monomial_scan(X, fam, samples, 5)
    elapsed = time.perf_counter() - t0
    csv_a = "\n".join(scan_csv_lines(table))
    csv_b = "\n".join(scan_csv_lines(monomial_scan(X, fam, samples, 5)))
    nonzero = sum(not r.vanishes for r in table.rows)
    got = np.array([r.totals for r in table.rows])
    want = np.array([[d.monomial_period(r.exponents, s) for s in samples] for r in table.rows])
    zero = want == 0
    zeros_exact = bool((got[zero] == 0).all())
    # NaN propagates through max, and fails the bound
    worst = float((np.abs(got - want)[~zero] / np.abs(want[~zero])).max())
    passed = (
        len(table.rows) == 126
        and elapsed < 10.0
        and csv_a == csv_b
        and nonzero >= 1
        and zeros_exact
        and worst < 1e-13
    )
    return CheckResult(
        "scan",
        passed,
        f"126 monomials x 5 samples in {elapsed:.2f}s; byte-stable CSV: {csv_a == csv_b}; "
        f"{nonzero} non-vanishing rows; vs the closed form: {int(zero.sum())} zeros exact: "
        f"{zeros_exact}, worst {worst:.2e} relative of the others",
        measured={
            "rows": len(table.rows),
            "elapsed": elapsed,
            "nonzero_rows": nonzero,
            "closed_form_zeros_exact": zeros_exact,
            "worst_closed_form_dev": worst,
        },
        tolerance="< 10 s, byte-identical rerun, >= 1 non-vanishing, closed-form zeros exact, "
        "others < 1e-13 relative",
    )


# ---------------------------------------------------------------------------
# 9. catalog of line families


def check_catalog() -> CheckResult:
    X = cat.fermat_hypersurface(3, 5)
    descr = cat.line_families()
    ids = {d.identifier for d in descr}
    if len(descr) != 50 or len(ids) != 50:
        return CheckResult("catalog", False, f"expected 50 distinct families, got {len(ids)}")
    worst_cont = 0.0
    worst_path = 0.0
    for d in descr:
        fam = d.family(cat.MODE_CORRECTED)
        for s in (0.1 + 0j, 0.2 * np.exp(1j * np.pi / 7)):
            worst_cont = max(worst_cont, containment_residual(X, fam.jet_at(s)))
            worst_path = max(worst_path, d.abc_path_residual(s))
    passed = worst_cont < 1e-10 and worst_path < 1e-12
    return CheckResult(
        "catalog",
        passed,
        f"50 distinct line families; worst containment {worst_cont:.2e}; worst "
        f"a^5+b^5+c^5 residual {worst_path:.2e}",
        measured={"worst_containment": worst_cont, "worst_path_residual": worst_path},
        tolerance="containment < 1e-10, path < 1e-12",
    )


# ---------------------------------------------------------------------------

ALL_CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    ("contraction", check_contraction_oracle),
    ("residues", check_residue_engine),
    ("geometry", check_geometry_fixtures),
    ("nullity", check_mobius_nullity),
    ("invariance", check_coordinate_invariance),
    ("linearity", check_linearity),
    ("regression", check_paper_regression),
    ("scan", check_monomial_scan),
    ("catalog", check_catalog),
]


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    return [_timed(fn) for name, fn in ALL_CHECKS if not name_filter or name_filter in name]
