"""Acceptance suite: one check per criterion, shared by CLI and tests.

Each check returns a CheckResult with the measured quantities and the
tolerance it was tested against.  The golden regression fixture lives in
``goldens/v1/line_slice_regression.json`` next to this module; it was frozen
from the first verified dual-backend run and every later run must reproduce
it to 1e-8.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog as cat
from .errors import GoldenFixtureError
from .geometry import (
    CurveJet,
    Hypersurface,
    MobiusMap,
    containment_residual,
    mobius_reparam,
    tangency_residual,
)
from .griffiths import (
    contract_bruteforce,
    contraction_sign,
    gm_monomial_derivative,
    pair_integrand,
    pair_numerator,
    pair_wedges,
)
from .multipoly import MultiPoly, monomials_of_degree
from .numkernel.residues import (
    RationalFunction,
    quadrature_radius,
    residue_analytic,
    residue_at_infinity_analytic,
    residue_quadrature,
    residues_at_zeros,
)
from .numkernel.unipoly import UniPoly
from .period import compare_closed_form, monomial_scan, period_at, sweep

GOLDEN_PATH = Path(__file__).parent / "goldens" / "v1" / "line_slice_regression.json"
GOLDEN_TOL = 1e-8

RESIDUE_SEED = 20240801
MOBIUS_SEEDS = (0, 1, 2, 3, 4)
REPARAM_SEED = 777
LINEARITY_SEED = 99
SCAN_SEED = 126
GM_SEED = 4242


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


def reference_period(X: Hypersurface, P: MultiPoly, jet: CurveJet) -> complex:
    """Period of the class P at one jet, pair by pair through
    ``griffiths.pair_integrand`` and ``residues_at_zeros``: one class at a
    time, with its own composition of P(x(t)), its own numerator product and
    the scalar analytic residues.  It shares only the class-independent wedge
    sum with the batched assembly in ``period``, so it checks that engine
    independently."""
    total = 0j
    for j0 in range(X.nvars):
        for j1 in range(j0 + 1, X.nvars):
            integrand = pair_integrand(X, P, jet, j0, j1)
            if integrand.numerator_is_zero():
                continue
            zr = residues_at_zeros(integrand.rf, jet.x[j0], guard=jet.x[j1], quadrature=False)
            total += zr.total
    return total


# ---------------------------------------------------------------------------
# 1. contraction-sign oracle


def check_contraction_oracle() -> CheckResult:
    import itertools

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


def _seeded_rational(rng: np.random.Generator) -> tuple[RationalFunction, list]:
    n_poles = int(rng.integers(3, 9))
    poles: list[complex] = []
    while len(poles) < n_poles:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(z - p) >= 1e-2 for p in poles):
            poles.append(z)
    den = UniPoly.from_roots(poles, lead=complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)))
    num_deg = int(rng.integers(0, 9))
    num = UniPoly([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(num_deg + 1)])
    if num.is_zero():
        num = UniPoly.one()
    return RationalFunction(num, den), poles


def check_residue_engine(n_cases: int = 500) -> CheckResult:
    rng = np.random.default_rng(RESIDUE_SEED)
    worst_rel = 0.0
    worst_sum = 0.0
    for _ in range(n_cases):
        f, poles = _seeded_rational(rng)
        total = 0j
        for p in poles:
            ra = residue_analytic(f, p, 1)
            radius = quadrature_radius(p, [q for q in poles if q != p])
            rq = residue_quadrature(lambda t: f(t), p, radius)
            rel = abs(ra - rq) / max(abs(ra), abs(rq), 1e-30)
            worst_rel = max(worst_rel, rel)
            total += ra
        total += residue_at_infinity_analytic(f)
        scale = max(1.0, max(abs(residue_analytic(f, p, 1)) for p in poles))
        worst_sum = max(worst_sum, abs(total) / scale)
    passed = worst_rel < 1e-8 and worst_sum < 1e-8
    return CheckResult(
        "residues",
        passed,
        f"{n_cases} seeded rational functions: worst backend rel {worst_rel:.2e}, "
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
            wedges = pair_wedges(jet)
            p_chart = P.compose_unipoly(jet.x_chart())
            for j0 in range(5):
                for j1 in range(j0 + 1, 5):
                    num, scale = pair_numerator(P, jet, j0, j1, wedges, p_chart)
                    worst_num = max(worst_num, num.scale() / max(scale, 1e-300))
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


def load_golden(path: Path | None = None) -> dict:
    if path is None:
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


def refreeze_golden(path: Path | None = None) -> dict:
    if path is None:
        path = GOLDEN_PATH
    data = _regression_run()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return data


def check_paper_regression(refreeze: bool = False) -> CheckResult:
    if refreeze:
        refreeze_golden()
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
    """Scale, byte-stable CSV, and three seeded non-vanishing rows against
    the per-class reference path.  The scan assembles all classes in one
    pass, so its rows are linear in P by construction; the reference keeps
    the comparison independent."""
    from .cli import scan_csv_lines

    X = cat.fermat_hypersurface(3, 5)
    fam = cat.paper_line_slice(1, cat.MODE_CORRECTED)
    samples = list(cat.STANDARD_PERIOD_SAMPLES[:5])
    t0 = time.perf_counter()
    table = monomial_scan(X, fam, samples, 5)
    elapsed = time.perf_counter() - t0
    csv_a = "\n".join(scan_csv_lines(table))
    csv_b = "\n".join(scan_csv_lines(monomial_scan(X, fam, samples, 5)))
    live = [r for r in table.rows if not r.vanishes]
    nonzero = len(live)
    rng = np.random.default_rng(SCAN_SEED)
    picked = [live[int(i)] for i in rng.choice(nonzero, size=min(3, nonzero), replace=False)]
    worst_ref = 0.0
    for k, s in enumerate(samples):
        jet = fam.jet_at(s)
        for row in picked:
            ref = reference_period(X, MultiPoly.monomial(5, 1.0, row.exponents), jet)
            diff = abs(row.totals[k] - ref)
            worst_ref = max(worst_ref, diff / max(row.vanish_scales[k], 1e-300) if diff else 0.0)
    passed = (
        len(table.rows) == 126
        and elapsed < 10.0
        and csv_a == csv_b
        and nonzero >= 1
        and worst_ref < 1e-9
    )
    return CheckResult(
        "scan",
        passed,
        f"126 monomials x 5 samples in {elapsed:.2f}s; byte-stable CSV: {csv_a == csv_b}; "
        f"{nonzero} non-vanishing rows; {len(picked)} seeded of them vs per-class reference: "
        f"worst {worst_ref:.2e} of vanish scale",
        measured={
            "rows": len(table.rows),
            "elapsed": elapsed,
            "nonzero_rows": nonzero,
            "reference_rows": [r.monomial for r in picked],
            "worst_reference_dev": worst_ref,
        },
        tolerance="< 10 s, byte-identical rerun, >= 1 non-vanishing, reference < 1e-9",
    )


# ---------------------------------------------------------------------------
# 9. catalog and degree bookkeeping


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
    rng = np.random.default_rng(GM_SEED)
    monos5 = monomials_of_degree(5, 5)
    gm_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        want = 5 * k - 5
        if want == 0:
            P = MultiPoly.constant(5, complex(rng.uniform(0.5, 2.0)))
        else:
            pool = monomials_of_degree(5, want)[:: int(rng.integers(1, 7))]
            terms = {
                exps: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for exps in pool
            }
            P = MultiPoly(5, terms)
            if P.is_zero():
                P = MultiPoly.monomial(5, 1.0, monomials_of_degree(5, want)[0])
        beta = monos5[int(rng.integers(0, len(monos5)))]
        P2, k2 = gm_monomial_derivative(P, k, beta, d=5, n=1)
        if k2 != k + 1 or P2.total_degree() != k2 * 5 - 5 or not P2.is_homogeneous():
            gm_ok = False
            break
    passed = worst_cont < 1e-10 and worst_path < 1e-12 and gm_ok
    return CheckResult(
        "catalog",
        passed,
        f"50 distinct line families; worst containment {worst_cont:.2e}; worst "
        f"a^5+b^5+c^5 residual {worst_path:.2e}; degree rule on 100 seeded triples: {gm_ok}",
        measured={"worst_containment": worst_cont, "worst_path_residual": worst_path},
        tolerance="containment < 1e-10, path < 1e-12, exact degree bookkeeping",
    )


# ---------------------------------------------------------------------------

ALL_CHECKS: list[tuple[str, Callable[..., CheckResult]]] = [
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


def run_all(name_filter: str | None = None, refreeze: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        if name_filter and name_filter not in name:
            continue
        if name == "regression":
            results.append(_timed(lambda: check_paper_regression(refreeze=refreeze)))
        else:
            results.append(_timed(fn))
    return results
