"""Assembly of per-pair residues into period values, sweeps, and scans.

For each covering pair (j0 < j1) the pair integrand is summed over the
distinct zeros of the coordinate x_{j0} on the line, including the point at
infinity when the form drops degree; the total over all pairs is the reported
period value.  It is unnormalized: no 2*pi*i, no global cocycle constant --
every downstream comparison is projective.

Diagnostics carried per pair: both residue backends at every site, a
residue-theorem check (all finite residues of the integrand plus its residue
at infinity), and, where its preconditions hold, the dual sum combining the
zeros of x_{j1} with the residue at infinity.

Only the factor P(x(t)) of a pair numerator depends on the class, so one
assembly takes a matrix of class charts: ``period_of_jet`` passes one row,
``monomial_scan`` every monomial of a sample at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BaseLocusCollisionError,
    DegreeError,
    DimensionMismatchError,
    NonConvergenceError,
    PoleMismatchError,
    RadiusCollisionError,
    ReferenceZeroError,
    UnsupportedShapeError,
)
from .geometry import CurveFamily, CurveJet, Hypersurface
# pair_numerator is not called here; it stays importable from this module,
# where perfbench/tracer.py looks it up
from .griffiths import (  # noqa: F401
    NUMERATOR_ZERO_REL_TOL,
    pair_inner,
    pair_numerator,
    pair_wedges,
    required_degree,
)
from .multipoly import MultiPoly, monomial_charts, monomial_text, monomials_of_degree
from .numkernel.residues import (
    FiniteSiteMap,
    InfinitySiteMap,
    RationalFunction,
    SiteRows,
    ZeroResidueSum,
    ZeroSiteReport,
    residue_at_infinity_analytic,
    residue_sum_check,
    residues_at_zeros,
)
from .numkernel.roots import poly_roots
from .numkernel.unipoly import BinaryForm, UniPoly

VANISH_REL_TOL = 1e-9


@dataclass
class PairContribution:
    j0: int
    j1: int
    residue_sum: complex
    sites: list[ZeroSiteReport] = field(default_factory=list)
    numerator_zero: bool = False
    residue_theorem_check: float = 0.0
    dual_sum_check: float | None = None

    @property
    def max_backend_disagreement(self) -> float:
        return max((s.backend_disagreement for s in self.sites), default=0.0)


@dataclass
class PeriodReport:
    s: complex
    total: complex
    per_pair: dict[tuple[int, int], PairContribution]
    min_pole_separation: float
    max_backend_disagreement: float
    vanish_scale: float

    def pair(self, j0: int, j1: int) -> PairContribution:
        return self.per_pair[(j0, j1)]

    @property
    def vanishes(self) -> bool:
        if self.vanish_scale == 0.0:
            return self.total == 0
        return abs(self.total) < VANISH_REL_TOL * self.vanish_scale


@dataclass
class SweepResult:
    samples: list[PeriodReport]
    family_name: str
    p_text: str
    vanishes_identically: bool


@dataclass
class ComparisonReport:
    ratios: list[complex]
    constant: complex
    max_relative_deviation: float
    verdict: str  # "PROPORTIONAL" or "MISMATCH"
    tolerance: float


def _pair_order(n: int):
    for j0 in range(n):
        for j1 in range(j0 + 1, n):
            yield (j0, j1)


_PAIR_ERRORS = (
    BaseLocusCollisionError,
    NonConvergenceError,
    PoleMismatchError,
    RadiusCollisionError,
)


def _named(exc: Exception, jet: CurveJet, j0: int, j1: int) -> Exception:
    """The same error with the pair and s in front of its message."""
    return type(exc)(f"pair ({j0},{j1}) at s = {jet.s:.6g}: {exc}")


class _Pair:
    """The class-independent part of one covering pair at one sample: the
    inner factor of its numerator and, built on first use, its denominator
    and the residue maps at the zeros of x_{j0}."""

    def __init__(self, ctx: _SampleContext, j0: int, j1: int):
        self.ctx = ctx
        self.j0, self.j1 = j0, j1
        inner, self.term_scale = pair_inner(ctx.jet, j0, j1, ctx.wedges)
        self.inner = inner.coeffs

    @cached_property
    def den(self) -> UniPoly:
        ctx, j0, j1 = self.ctx, self.j0, self.j1
        d0, d1 = ctx.partial_charts[j0], ctx.partial_charts[j1]
        if d0.is_zero() or d1.is_zero():
            which = j0 if d0.is_zero() else j1
            raise BaseLocusCollisionError(
                f"covering chart {which} misses the curve "
                f"(F_{which}(x(t)) vanishes identically)"
            )
        return d0 * d1

    @cached_property
    def den_sites(self) -> list[tuple[complex, int]]:
        return _merge_sites(self.ctx.chart_roots(self.j0), self.ctx.chart_roots(self.j1))

    @cached_property
    def sites(self) -> list[FiniteSiteMap | InfinitySiteMap]:
        ctx, den = self.ctx, self.den
        width = ctx.width + len(self.inner) - 1
        z, guard = ctx.jet.x[self.j0], ctx.jet.x[self.j1]
        if z.is_zero():
            raise ValueError("zero form has no isolated zero locus")
        sites: list[FiniteSiteMap | InfinitySiteMap] = [
            FiniteSiteMap(den, loc, mult, self.den_sites, width, guard, ctx.nodes)
            for loc, mult in ctx.zeros(self.j0)
        ]
        if (inf_mult := z.infinity_order()) > 0:
            sites.append(InfinitySiteMap(den, inf_mult, self.den_sites, width, ctx.nodes))
        return sites


class _SampleContext:
    """Per-(jet, hypersurface) data shared by all classes P at one sample."""

    def __init__(self, X: Hypersurface, jet: CurveJet, quadrature: bool, nodes: int):
        self.X = X
        self.jet = jet
        self.nodes = nodes if quadrature else None
        self.wedges = pair_wedges(jet)
        self.xs = jet.x_chart()
        self.partial_charts = [Fi.compose_unipoly(self.xs) for Fi in X.partials]
        # coefficients of P(x(t)) for a class of the period degree
        self.width = required_degree(X.degree, X.m, 1) * jet.d_curve + 1
        self._roots: dict[int, list[tuple[complex, int]]] = {}
        self._zeros: dict[int, list[tuple[complex, int]]] = {}

    def chart_roots(self, j: int) -> list[tuple[complex, int]]:
        if j not in self._roots:
            pj = self.partial_charts[j]
            self._roots[j] = poly_roots(pj) if pj.degree >= 1 else []
        return self._roots[j]

    def zeros(self, j: int) -> list[tuple[complex, int]]:
        """Finite zeros of the coordinate x_j with multiplicities."""
        if j not in self._zeros:
            chart = self.jet.x[j].dehomogenized().trimmed()
            self._zeros[j] = poly_roots(chart) if chart.degree >= 1 else []
        return self._zeros[j]

    def min_pole_separation(self) -> float:
        locs: list[complex] = []
        for sites in self._roots.values():
            locs.extend(loc for loc, _ in sites)
        best = float("inf")
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                d = abs(locs[i] - locs[j])
                if 1e-12 < d < best:
                    best = d
        return best


@dataclass
class _PairRows:
    """One pair assembled for every class row: which rows have a live
    numerator, the numerator rows, and the residues at each site."""

    pair: _Pair
    live: np.ndarray
    num: np.ndarray | None = None
    sites: list[SiteRows] = field(default_factory=list)

    @property
    def residue_sum(self) -> np.ndarray:
        zero = np.zeros(len(self.live), dtype=complex)
        return sum((site.residue for site in self.sites), zero)


def _convolve_rows(rows: np.ndarray, coeffs: tuple[complex, ...]) -> np.ndarray:
    """Each row times the polynomial with the given coefficients."""
    width = rows.shape[1]
    out = np.zeros((len(rows), width + len(coeffs) - 1), dtype=complex)
    for k, c in enumerate(coeffs):
        out[:, k : k + width] += c * rows
    return out


def _assemble(ctx: _SampleContext, p_rows: np.ndarray) -> list[_PairRows]:
    """Every pair's residues for a matrix of class charts, one row of
    P(x(t)) coefficients per class.

    The class enters last: each pair's inner factor, denominator, sites and
    quadrature weights are built once, from the charts and roots ``ctx``
    shares between pairs; each row then costs matrix products.  A row's
    numerator is zero when it cancels to 1e-12 of its pre-cancellation
    scale, the rule of ``PairIntegrand.numerator_is_zero``.
    """
    p_scale = np.maximum(np.abs(p_rows).max(axis=1), 1e-300)
    out = []
    for j0, j1 in _pair_order(ctx.jet.ncoords):
        pair = _Pair(ctx, j0, j1)
        if not pair.inner:
            out.append(_PairRows(pair, np.zeros(len(p_rows), dtype=bool)))
            continue
        num = _convolve_rows(p_rows, pair.inner)
        num_scale = np.maximum(pair.term_scale * p_scale, 1e-300)
        live = np.abs(num).max(axis=1) > NUMERATOR_ZERO_REL_TOL * num_scale
        rows = _PairRows(pair, live, num)
        if live.any():
            try:
                rows.sites = [site.apply(num, live) for site in pair.sites]
            except _PAIR_ERRORS as exc:
                raise _named(exc, ctx.jet, j0, j1) from exc
        out.append(rows)
    return out


def period_of_jet(
    X: Hypersurface,
    P: MultiPoly,
    jet: CurveJet,
    quadrature: bool = True,
    nodes: int = 256,
) -> PeriodReport:
    if X.nvars != 5:
        raise UnsupportedShapeError(
            f"period assembly is implemented for 5 coordinates, got {X.nvars}"
        )
    if jet.ncoords != X.nvars:
        raise DimensionMismatchError("jet does not match the hypersurface dimensions")
    want = required_degree(X.degree, X.m, 1)
    if P.is_zero() or not P.is_homogeneous() or P.total_degree() != want:
        raise DegreeError(f"P must be homogeneous of degree {want}")
    ctx = _SampleContext(X, jet, quadrature, nodes)
    p_row = np.zeros((1, ctx.width), dtype=complex)
    chart = P.compose_unipoly(ctx.xs).coeffs
    p_row[0, : len(chart)] = chart
    per_pair: dict[tuple[int, int], PairContribution] = {}
    total = 0j
    for rows in _assemble(ctx, p_row):
        pair = rows.pair
        j0, j1 = pair.j0, pair.j1
        if not rows.live[0]:
            per_pair[(j0, j1)] = PairContribution(j0, j1, 0j, [], numerator_zero=True)
            continue
        zr = ZeroResidueSum(complex(rows.residue_sum[0]), [s.report(0) for s in rows.sites])
        contrib = PairContribution(j0, j1, zr.total, zr.sites)
        rf = RationalFunction(UniPoly(rows.num[0]), pair.den)
        try:
            contrib.residue_theorem_check = residue_sum_check(rf)
            contrib.dual_sum_check = _dual_sum(rf, zr, jet.x[j1], pair.den_sites)
        except _PAIR_ERRORS as exc:
            raise _named(exc, jet, j0, j1) from exc
        per_pair[(j0, j1)] = contrib
        total += zr.total

    return PeriodReport(
        s=jet.s,
        total=total,
        per_pair=per_pair,
        min_pole_separation=ctx.min_pole_separation(),
        max_backend_disagreement=max(
            (c.max_backend_disagreement for c in per_pair.values()), default=0.0
        ),
        vanish_scale=max((abs(c.residue_sum) for c in per_pair.values()), default=0.0),
    )


def period_at(
    X: Hypersurface,
    P: MultiPoly,
    fam: CurveFamily,
    s: complex,
    quadrature: bool = True,
    nodes: int = 256,
) -> PeriodReport:
    """Period value of the class of P at one parameter sample.

    The analytic backend supplies the reported residues; the
    contour-quadrature backend runs alongside and feeds the disagreement
    diagnostic.

    Raises
    ------
    BaseLocusCollisionError
        If a zero of x_{j0} is a genuine pole shared with the x_{j1} factor,
        or a covering chart misses the curve entirely.
    DegreeError
        If deg(P) != d(q+1) - m - 2 for q = 1.
    """
    return period_of_jet(X, P, fam.jet_at(s), quadrature=quadrature, nodes=nodes)


def _merge_sites(a, b):
    sites = list(a) + list(b)
    merged: list[tuple[complex, int]] = []
    for loc, mult in sorted(sites, key=lambda s: (s[0].real, s[0].imag)):
        if merged and abs(merged[-1][0] - loc) <= 1e-9 * (1.0 + abs(loc)):
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((loc, mult))
    return merged


def _dual_sum(rf, zr: ZeroResidueSum, other: BinaryForm, den_sites) -> float | None:
    """|residues at zeros of x_{j0} + residues at zeros of x_{j1} + residue
    of the integrand at infinity|; None when the preconditions fail (a site
    at infinity, or a pole off both zero loci)."""
    if any(site.at_infinity for site in zr.sites):
        return None
    other_chart = other.dehomogenized().trimmed()
    if other.infinity_order() > 0 or other_chart.degree < 1:
        return None
    zero_locs = [site.location for site in zr.sites]
    other_locs = [loc for loc, _ in poly_roots(other_chart)]
    for loc, mult in den_sites:
        if rf.num.vanishing_order(loc) >= mult:
            continue
        near = any(abs(loc - z) <= 1e-7 * (1 + abs(loc)) for z in zero_locs + other_locs)
        if not near:
            return None
    try:
        dual = residues_at_zeros(rf, other, guard=None, quadrature=False, den_sites=den_sites)
    except BaseLocusCollisionError:
        return None
    inf_res = residue_at_infinity_analytic(rf)
    return abs(zr.total + dual.total + inf_res)


def sweep(
    X: Hypersurface,
    P: MultiPoly,
    fam: CurveFamily,
    s_list: Sequence[complex],
    quadrature: bool = True,
    nodes: int = 256,
) -> SweepResult:
    """Period reports over an ordered sample list.

    Flags VANISHES_IDENTICALLY when every |total| < 1e-9 * scale, with scale
    the largest per-pair contribution magnitude at that sample (an all-zero
    report vanishes trivially).
    """
    if not s_list:
        raise ValueError("sample list must be nonempty")
    samples = [period_at(X, P, fam, s, quadrature=quadrature, nodes=nodes) for s in s_list]
    return SweepResult(
        samples=samples,
        family_name=fam.name,
        p_text=P.to_text(),
        vanishes_identically=all(r.vanishes for r in samples),
    )


def geometric_median(points: Sequence[complex], iters: int = 200) -> complex:
    """Weiszfeld iteration; robust central ratio estimate."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("no points")
    if len(pts) <= 2:
        return sum(pts) / len(pts)
    z = sum(pts) / len(pts)
    for _ in range(iters):
        num, den = 0j, 0.0
        hit = None
        for p in pts:
            d = abs(z - p)
            if d < 1e-300:
                hit = p
                break
            w = 1.0 / d
            num += w * p
            den += w
        if hit is not None:
            return hit
        znew = num / den
        if abs(znew - z) <= 1e-15 * (1.0 + abs(znew)):
            return znew
        z = znew
    return z


def compare_closed_form(
    sw: SweepResult,
    ref: Callable[[complex], complex],
    tolerance: float = 1e-6,
) -> ComparisonReport:
    """Constancy-of-ratio comparison of a sweep against a reference g(s).

    verdict PROPORTIONAL iff max |ratio - c| / |c| < tolerance with c the
    geometric median of the ratios and c != 0.
    """
    ratios = []
    for rep in sw.samples:
        g = complex(ref(rep.s))
        if abs(g) < 1e-300:
            raise ReferenceZeroError(f"reference vanishes at s = {rep.s}")
        ratios.append(rep.total / g)
    constant = geometric_median(ratios)
    ratio_scale = max(abs(r) for r in ratios)
    if ratio_scale == 0.0 or abs(constant) <= 1e-12 * ratio_scale:
        deviation = ratio_scale
        verdict = "MISMATCH"
    else:
        deviation = max(abs(r - constant) for r in ratios) / abs(constant)
        verdict = "PROPORTIONAL" if deviation < tolerance else "MISMATCH"
    return ComparisonReport(
        ratios=ratios,
        constant=constant,
        max_relative_deviation=deviation,
        verdict=verdict,
        tolerance=tolerance,
    )


@dataclass
class ScanRow:
    exponents: tuple[int, ...]
    monomial: str
    totals: list[complex]
    vanish_scales: list[float]
    max_backend_disagreements: list[float] = field(default_factory=list)

    @property
    def vanishes(self) -> bool:
        return all(
            t == 0 if sc == 0.0 else abs(t) < VANISH_REL_TOL * sc
            for t, sc in zip(self.totals, self.vanish_scales)
        )


@dataclass
class ScanTable:
    rows: list[ScanRow]
    s_list: list[complex]
    family_name: str
    degree: int


def monomial_scan(
    X: Hypersurface,
    fam: CurveFamily,
    s_list: Sequence[complex],
    degree: int,
    quadrature: bool = True,
    nodes: int = 256,
) -> ScanTable:
    """Period of every degree-``degree`` monomial class at every sample.

    One row per exponent vector in graded-lex (descending) order; 126 rows
    for degree 5 in five variables.  At each sample all monomial charts go
    through one assembly, so everything that does not depend on the class
    (inner factors, pole sites, denominators, quadrature circles) is built
    once per sample.
    """
    if not s_list:
        raise ValueError("sample list must be nonempty")
    want = required_degree(X.degree, X.m, 1)
    if degree != want:
        raise DegreeError(f"scan degree must be {want} for this hypersurface, got {degree}")
    monos = monomials_of_degree(X.nvars, degree)
    rows = [ScanRow(exps, monomial_text(exps), [], []) for exps in monos]
    for s in s_list:
        ctx = _SampleContext(X, fam.jet_at(s), quadrature, nodes)
        pairs = _assemble(ctx, monomial_charts(ctx.xs, degree, ctx.width))
        sums = [p.residue_sum for p in pairs]
        totals = sum(sums)
        scales = np.max(np.abs(sums), axis=0)
        disagreement = np.zeros(len(rows))
        for p in pairs:
            for site in p.sites:
                disagreement = np.maximum(disagreement, site.disagreement())
        for row, t, sc, d in zip(rows, totals.tolist(), scales.tolist(), disagreement.tolist()):
            row.totals.append(t)
            row.vanish_scales.append(sc)
            row.max_backend_disagreements.append(d)
    return ScanTable(
        rows=rows,
        s_list=[complex(s) for s in s_list],
        family_name=fam.name,
        degree=degree,
    )
