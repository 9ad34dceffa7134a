"""Assembly of per-pair residues into period values, sweeps, and scans.

For each covering pair (j0 < j1) the pair integrand is summed over the
distinct zeros of the coordinate x_{j0} on the line, including the point at
infinity when the form drops degree; the total over all pairs is the reported
period value.  It is unnormalized: no 2*pi*i, no global cocycle constant --
every downstream comparison is projective.

Diagnostics carried per pair: both residue backends at every site, a
residue-theorem check, and, where its preconditions hold, the dual sum over
the zeros of x_{j0} and x_{j1} and the point at infinity.  Both checks sum
the residues the period itself summed plus those at the pair's check sites,
the remaining poles of the integrand, taken from the same declared pole
structure by the same site maps; so they check the engine that produced the
reported number.  The quadrature backend integrates the integrand as it
stands, so it checks that structure.

Only the factor P(x(t)) of a pair numerator depends on the class, so one
assembly takes a matrix of class charts: ``period_of_jet`` passes one row,
``monomial_scan`` every monomial of a sample at once.  One ``SiteLayout``
holds every pair's sites and check sites at a sample, one ``apply`` of it
gives all their residues, and the quadrature circles of a sample are
evaluated in one pass.  What a partial reads of a line -- its chart, roots
and lead factor, and the coordinates' zeros -- is kept on the hypersurface
for the samples with the same coordinate charts, as ``LineData`` says.

What an assembly decides from structure alone is its site plan: the pairs
it plans, each site entry's location, [1:0] flag, zero multiplicity, width,
order, far-site factors and radius, the layout's blocks with their stack
and index arrays, shift matrices and contours, the nodes of the circles
the layout places, the partials and index lists their values need, and
which sites lie at a zero of the companion coordinate.  Its key holds, in
exact bits, every input the planning reads: the width of P(x(t)), whether
check sites are planned, the pairs with a nonzero inner factor with their
degrees, the live ones, and per planned pair the zeros and [1:0] orders of
x_{j0} and x_{j1} and the declared roots of F_{j0} and F_{j1}.  On a Fermat
line the plan does not depend on s or zeta.  ``LineData`` says what the
hypersurface keeps of the plans and of the line data.
Each sample still computes its own numbers on the plan, with the same
functions in the same order -- the leads, the coordinates and partials on
the layout's nodes, the layout's apply, in which each block takes its
entries' Laurent series and its contour's covectors, the collision test,
the reduction and the report -- so a kept plan changes no bit.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BaseLocusCollisionError,
    DegreeError,
    DimensionMismatchError,
    NonConvergenceError,
    PoleMismatchError,
    ReferenceZeroError,
    UnsupportedShapeError,
)
from .geometry import CurveFamily, CurveJet, Hypersurface
# pair_numerator is not called here; it stays importable from this module,
# where perfbench/tracer.py looks it up
from .griffiths import (  # noqa: F401
    NUMERATOR_ZERO_REL_TOL,
    pair_inners,
    pair_numerator,
    pair_wedges,
    required_degree,
)
from .multipoly import MultiPoly, monomial_charts, monomial_text, monomials_of_degree
# residue_sum_check, residues_at_zeros, residue_at_infinity_analytic: as pair_numerator
from .numkernel.residues import (  # noqa: F401
    SiteEntry,
    SiteLayout,
    SiteTable,
    ZeroSiteReport,
    backend_disagreement,
    coincides,
    residue_at_infinity_analytic,
    residue_sum_check,
    residues_at_zeros,
)
from .numkernel.roots import poly_roots

VANISH_REL_TOL = 1e-9


def vanishes(totals: Sequence[complex], scales: Sequence[float], rel=VANISH_REL_TOL) -> bool:
    """The VANISHES rule: each total below ``rel`` times its scale, or 0 if that is 0."""
    return all(t == 0 if sc == 0.0 else abs(t) < rel * sc for t, sc in zip(totals, scales))


@dataclass
class PairContribution:
    j0: int
    j1: int
    residue_sum: complex
    sites: list[ZeroSiteReport] = field(default_factory=list)
    numerator_zero: bool = False
    residue_theorem_check: float = 0.0
    # the largest |residue| summed into residue_theorem_check
    residue_theorem_scale: float = 0.0
    dual_sum_check: float | None = None
    max_backend_disagreement: float = 0.0


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
        return vanishes([self.total], [self.vanish_scale])


@dataclass
class SweepResult:
    samples: list[PeriodReport]
    vanishes_identically: bool


@dataclass
class ComparisonReport:
    ratios: list[complex]
    constant: complex
    max_relative_deviation: float
    verdict: str  # "PROPORTIONAL" or "MISMATCH"
    tolerance: float


_PAIR_ERRORS = (BaseLocusCollisionError, NonConvergenceError, PoleMismatchError)
# the covering pairs (j0, j1) of the five coordinates, in pair order
_PAIRS = list(combinations(range(5), 2))


def _named(exc: Exception, jet: CurveJet, j0: int, j1: int) -> Exception:
    """The same error with the pair and s in front of its message."""
    return type(exc)(f"pair ({j0},{j1}) at s = {jet.s:.6g}: {exc}")


class _Pair:
    """One covering pair as a site plan lays it out: whether a class row is
    live in it, and the lines of its sites and check sites in the plan's
    entries.  ``shared`` holds the sites at a zero of x_{j1}, the
    ``companion`` locations: a pole there is a base-locus collision.
    ``dual`` says whether neither coordinate vanishes at [1:0] and x_{j1}
    has finite zeros."""

    def __init__(self, index: int, j0: int, j1: int):
        self.index, self.j0, self.j1 = index, j0, j1
        self.live = self.dual = False
        self.sites = self.checks = range(0)
        self.companion: list[complex] = []
        self.shared: list[int] = []

    def plan(
        self, start: int, width: int, checks: bool,
        zeros, inf_mult, roots0, roots1, companion, inf_companion,
    ) -> list[SiteEntry]:
        """The pair's entries, laid out from line ``start`` of the plan on:
        the sites whose residues the period sums, with the contour backend
        -- the ``zeros`` of x_{j0}, and [1:0] when x_{j0} drops degree (by
        ``inf_mult``) -- and with ``checks`` the poles those leave out: the
        denominator's roots away from the zeros of x_{j0}, and [1:0] when
        x_{j0} does not vanish there.  With those they cover every pole of
        the pair integrand.

        Each entry reads the finite sites of the pair's declared
        denominator: the chart roots of F_{j0} and F_{j1} merged.  A pair
        whose chart roots were not read (None) has no entry.  ``companion``
        and ``inf_companion`` are the zeros and [1:0] order of x_{j1}."""
        sites, more = [], []
        if roots0 is not None:
            den_sites = _merge_sites(roots0, roots1)
            sites = [SiteEntry(loc, mult, den_sites, width, True) for loc, mult in zeros]
            if inf_mult > 0:
                sites.append(SiteEntry(None, inf_mult, den_sites, width, True))
            if checks:
                locations = [loc for loc, _ in zeros]
                more = [
                    SiteEntry(loc, 0, den_sites, width, False)
                    for loc, _ in den_sites
                    if not coincides(loc, locations)
                ]
                if inf_mult == 0:
                    more.append(SiteEntry(None, 0, den_sites, width, False))
        self.sites = range(start, start + len(sites))
        self.checks = range(self.sites.stop, self.sites.stop + len(more))
        self.companion = [loc for loc, _ in companion]
        # [1:0] never collides: the measure dt has a pole there itself
        self.shared = [
            k for k, e in zip(self.sites, sites)
            if not e.at_infinity and coincides(e.location, self.companion)
        ]
        self.dual = inf_mult == 0 and inf_companion == 0 and bool(self.companion)
        return sites + more

    def dual_sum_holds(self, entries: list[SiteEntry], order: list[int]) -> bool:
        """Whether the dual sum -- residues at the zeros of x_{j0} and of
        x_{j1}, plus the one at infinity -- adds up the same residues as the
        residue theorem: ``dual`` holds, and every pole off the zeros of
        x_{j0} lies at a zero of x_{j1}.  ``order[k]`` is the pole order of
        the one class row at entry k."""
        poles = [entries[k] for k in self.checks if order[k] and not entries[k].at_infinity]
        return self.dual and all(coincides(e.location, self.companion) for e in poles)


class _SitePlan:
    """What one assembly decides from structure alone, kept in
    ``Hypersurface.site_plans`` for the samples with the same inputs: the
    pairs with their lines, the ``layout`` of the site entries of all
    planned pairs, with its blocks and quadrature circles, each entry's
    pair (``owner``, whose lead it reads), and what the circles' den values
    need: the ``partials`` evaluated on the layout's nodes, the coordinates
    they use, and per circled entry its two partials' rows of the values.

    ``inputs`` maps each live pair whose inputs were read to them, as
    ``_Pair.plan`` takes them; a live pair without inputs is not
    planned."""

    def __init__(self, X: Hypersurface, width: int, checks: bool, inner, degrees, live, inputs):
        self.pairs = [_Pair(index, j0, j1) for index, (j0, j1) in enumerate(_PAIRS)]
        self.owner: list[int] = []
        entries: list[SiteEntry] = []
        stacks: list[int] = []
        for stack, index in enumerate(inner):
            pair = self.pairs[index]
            pair.live = live[stack]
            if index in inputs:
                planned = pair.plan(len(entries), width + degrees[index], checks, *inputs[index])
                entries += planned
                self.owner += [index] * len(planned)
                stacks += [stack] * len(planned)
        self.layout = SiteLayout(entries, stacks)
        self._plan_circles(X)

    def _plan_circles(self, X: Hypersurface) -> None:
        """The partials and index lists ``dens_on_circles`` reads, for the
        layout's circled entries in its order; none without a circle."""
        circled = self.layout.circled
        if not circled:
            return
        pairs = [self.pairs[self.owner[i]] for i in circled]
        js = {j: k for k, j in enumerate(dict.fromkeys(j for p in pairs for j in (p.j0, p.j1)))}
        self.partials = list(js)
        self.used = {i for j in js for i in X.partial_coords[j]}
        self.rows0 = np.array([js[p.j0] for p in pairs])
        self.rows1 = np.array([js[p.j1] for p in pairs])


class _PartialLine:
    """What the partial F_j reads of one line: its chart F_j(x(t)), and,
    once a sample has needed them, the chart's declared roots and lead
    factor.  Every sample that reads the record shares its roots list, and
    none changes it."""

    __slots__ = ("chart", "roots", "lead")

    def __init__(self, chart):
        self.chart = chart
        self.roots = self.lead = None


class _SampleContext:
    """Per-(jet, hypersurface) data shared by all classes P at one sample.

    What depends on one coordinate j -- its finite zeros, the declared
    roots of the partial chart F_j(x(t)) and that chart's lead factor -- is
    found once, when a pair first needs it, and every pair reads it from
    here.

    What depends only on coordinate charts -- the partial charts with their
    roots and lead factors, and the coordinates' zeros -- comes from
    ``X.line_data``, a ``LineData``, by the exact chart coefficients it
    depends on and, for a partial, its terms there."""

    def __init__(self, X: Hypersurface, jet: CurveJet):
        self.X = X
        self.jet = jet
        # inner factors of all pairs, one row each in combinations order
        self.inners, self.term_scales = pair_inners(jet, pair_wedges(jet))
        self.xs = jet.x_chart()
        # the exact bits of each coordinate chart, which key the line data
        self.keys = [marshal.dumps(x.coeffs, 2) for x in self.xs]
        # each coordinate's chart without negligible top coefficients, and
        # the multiplicity of its zero at [1:0], the degree it drops
        self.charts = [x.trimmed() for x in self.xs]
        self.infinity_orders = [x.degree - c.degree for x, c in zip(jet.x, self.charts)]
        self.lines = [self._line(j) for j in range(X.nvars)]
        # coefficients of P(x(t)) for a class of the period degree
        self.width = required_degree(X.degree, X.m) * jet.d_curve + 1
        self._roots: dict[int, list[tuple[complex, int]]] = {}
        # a coordinate's zeros once per sample: a second read is no second compute
        self._zeros: dict[int, list[tuple[complex, int]]] = {}

    def _line(self, j: int) -> _PartialLine:
        """The line record of F_j, from the line data or composed here."""
        key = (self.X.partial_terms[j], *[self.keys[i] for i in self.X.partial_coords[j]])
        return self.X.line_data.get(
            key, lambda: _PartialLine(self.X.partials[j].compose_unipoly(self.xs))
        )

    def dens_on_circles(self, plan: _SitePlan) -> np.ndarray | None:
        """F_j0(x(t)) * F_j1(x(t)) of each circled entry's pair at the nodes
        of its circle, one row per circled entry of the plan's layout, as
        its ``apply`` takes them; None without a circle.  Each coordinate a
        partial uses, and each partial, is evaluated on the layout's nodes
        once."""
        layout = plan.layout
        if layout.nodes is None:
            return None
        coords = [x(layout.nodes) if i in plan.used else None for i, x in enumerate(self.xs)]
        values = np.array([self.X.partials[j].evaluate(coords) for j in plan.partials])
        circle = layout.circle_of
        return values[plan.rows0, circle] * values[plan.rows1, circle]

    def site_plan(self, inner: list[int], degrees: list[int], live: list[bool], checks: bool):
        """The site plan of the pairs ``inner`` (one stack of numerator rows
        each, of inner factor degree ``degrees[index]``) of which those with
        ``live[stack]`` have a live row; with each planned pair's declared
        denominator lead and the error of each live pair whose inputs could
        not be read, by pair index.

        The plan comes from ``X.site_plans``, a ``LineData``, by a key that
        holds every input the planning reads, bit for bit; a pair left out
        for an error is one of them."""
        leads: dict[int, complex] = {}
        inputs: dict[int, tuple] = {}
        errors: dict[int, Exception] = {}
        for stack, index in enumerate(inner):
            if live[stack]:
                j0, j1 = _PAIRS[index]
                try:
                    inputs[index], lead = self._pair_inputs(j0, j1, checks)
                except _PAIR_ERRORS as exc:
                    errors[index] = exc
                else:
                    if lead is not None:
                        leads[index] = lead
        key = marshal.dumps((self.width, checks, inner, degrees, live, inputs), 2)
        plan = self.X.site_plans.get(
            key, lambda: _SitePlan(self.X, self.width, checks, inner, degrees, live, inputs)
        )
        return plan, leads, errors

    def _pair_inputs(self, j0: int, j1: int, checks: bool) -> tuple[tuple, complex | None]:
        """What the site plan reads of pair (j0, j1), as ``_SitePlan`` takes
        it, and the pair's declared denominator lead, the product of both
        partials' lead factors; None for a pair without an entry."""
        if self.jet.x[j0].is_zero():
            raise BaseLocusCollisionError(
                f"the curve lies in the hyperplane x_{j0} = 0, so the residue "
                "coordinate has no isolated zeros"
            )
        zeros, inf_mult = self.zeros(j0), self.infinity_orders[j0]
        lead = roots0 = roots1 = None
        # the lead factors and chart roots are read for an entry only; a
        # pair without a site has inf_mult 0, so with checks it has one at
        # [1:0]
        if zeros or inf_mult or checks:
            lead = 1.0 + 0j
            lead *= self.lead(j0)
            lead *= self.lead(j1)
            roots0, roots1 = self.chart_roots(j0), self.chart_roots(j1)
        inputs = zeros, inf_mult, roots0, roots1, self.zeros(j1), self.infinity_orders[j1]
        return inputs, lead

    def chart_roots(self, j: int) -> list[tuple[complex, int]]:
        """Finite zeros of the partial chart F_j(x(t)) with multiplicities:
        the only source of pole structure for the pairs and their checks.

        A monomial partial c * prod x_i^a_i vanishes exactly at the zeros
        of its coordinates, each with multiplicity a_i times its own, so
        those are taken from the coordinates instead of rooting the power
        (a k-fold root scatters under rooting); zeros of x_i dropped at
        [1:0] stay there.  Other partials are rooted as they stand.
        """
        if j not in self._roots:
            line = self.lines[j]
            if line.roots is None:
                pj, terms = line.chart, self.X.partials[j].terms
                if pj.degree < 1:
                    line.roots = []
                elif len(terms) == 1:
                    (exps,) = terms
                    line.roots = _merge_sites(*(
                        [(loc, a * m) for loc, m in self.zeros(i)] for i, a in enumerate(exps) if a
                    ))
                else:
                    line.roots = poly_roots(pj)
            self._roots[j] = line.roots
        return self._roots[j]

    def lead(self, j: int) -> complex:
        """The coefficient of the partial chart F_j(x(t)) at the degree its
        declared multiplicities sum to: its factor of a pair's declared
        denominator lead."""
        line = self.lines[j]
        if line.lead is None:
            chart, declared = line.chart, sum(m for _, m in self.chart_roots(j))
            if chart.is_zero():
                raise BaseLocusCollisionError(
                    f"covering chart {j} misses the curve (F_{j}(x(t)) vanishes identically)"
                )
            if declared > chart.degree:
                raise PoleMismatchError(
                    f"F_{j}(x(t)) has degree {chart.degree} but {declared} declared zeros"
                )
            line.lead = chart.coeffs[declared]
        return line.lead

    def zeros(self, j: int) -> list[tuple[complex, int]]:
        """Finite zeros of the coordinate x_j with multiplicities."""
        if j not in self._zeros:
            chart, zeros = self.charts[j], []
            # a constant has no zeros to keep
            if chart.degree >= 1:
                zeros = self.X.line_data.get(("zeros", self.keys[j]), lambda: poly_roots(chart))
            self._zeros[j] = zeros
        return self._zeros[j]

    def min_pole_separation(self) -> float:
        """The least distance between two declared roots that do not coincide."""
        locs: list[complex] = []
        for sites in self._roots.values():
            locs.extend(loc for loc, _ in sites)
        best = float("inf")
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                d = abs(locs[i] - locs[j])
                if d < best and not coincides(locs[i], [locs[j]]):
                    best = d
        return best


class _Reduction:
    """The site table of all pairs at one sample, with its ``entries``,
    reduced per class row in a few array operations per site slot: pair
    ``sums`` (in site order, as Python's ``sum`` adds), ``totals`` (in pair
    order), ``vanish_scales``, the backend ``disagreement`` of each site k
    (of pair ``owner[k]``) and its maxima per pair and sample; a maximum is
    0 without a site, NaN if an input is."""

    def __init__(self, pairs: list[_Pair], entries: list[SiteEntry], table: SiteTable):
        self.pairs, self.entries, self.table = pairs, entries, table
        # the lines of the sites the period sums, pair by pair; both
        # backends read 0 in a row without a pole or at a site without a
        # circle: disagreement 0 there
        sites = [k for p in pairs for k in p.sites]
        self.owner = [i for i, p in enumerate(pairs) for _ in p.sites]
        residue = table.residue[sites]
        self.disagreement = backend_disagreement(
            residue, table.quadrature[sites], table.quadrature_scale[sites]
        )
        # slot n of a pair holds its n-th site, 0 where it has fewer sites
        counts = [len(p.sites) for p in pairs]
        slot = [n for count in counts for n in range(count)]
        shape = (max(counts, default=0), len(pairs), table.residue.shape[1])
        by_slot = np.zeros(shape, dtype=complex)
        by_slot[slot, self.owner] = residue
        # running sums from 0: slot by slot, then pair by pair (a pair
        # without sites adds an exact 0, which leaves a sum as it is)
        self.sums = _running_sum(by_slot)
        self.totals = _running_sum(self.sums)
        self.vanish_scales = np.abs(self.sums).max(axis=0)
        worst = np.zeros(shape)
        worst[slot, self.owner] = self.disagreement
        self.pair_max = worst.max(axis=0, initial=0.0)
        self.max = self.pair_max.max(axis=0)


def _running_sum(x: np.ndarray) -> np.ndarray:
    """The sum of ``x`` along its first axis as a loop adds it to zeros:
    from +0, one element after another.  ``np.add.accumulate`` adds in that
    order and the leading +0 makes a -0 sum +0, as the loop's start does;
    ``np.add.reduce`` would sum a contiguous axis of 8 or more pairwise."""
    if not len(x):
        return np.zeros(x.shape[1:], dtype=complex)
    return 0j + np.add.accumulate(x, axis=0)[-1]


def _convolve_rows(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Each row times each polynomial: out[p, r] holds the coefficients of
    rows[r] * coeffs[p]."""
    width = rows.shape[1]
    out = np.zeros((len(coeffs), len(rows), width + coeffs.shape[1] - 1), dtype=complex)
    for k in range(coeffs.shape[1]):
        out[:, :, k : k + width] += coeffs[:, k, None, None] * rows
    return out


def _assemble(ctx: _SampleContext, p_rows: np.ndarray, checks: bool = False) -> _Reduction:
    """Every pair's residues for a matrix of class charts, one row of
    P(x(t)) coefficients per class, reduced; with ``checks`` also those at
    the check sites of each pair.

    The class enters last: each pair's inner factor, denominator, sites and
    quadrature weights are built once, from the charts and roots ``ctx``
    shares between pairs and the sample's site plan; the sites of all pairs
    then run through one apply of the plan's layout, and each row costs
    matrix products.  Numerator rows are formed, and their magnitudes taken
    once, only for the pairs whose inner factor is not zero, one stack each,
    which the layout reads whole; a pair with a zero inner factor has a zero
    numerator in every row.  A row's numerator is zero when it cancels to
    1e-12 of its pre-cancellation scale (``NUMERATOR_ZERO_REL_TOL``), as an
    inner factor is in ``pair_inner``.

    An error names its pair: the first pair, in pair order, whose sites
    cannot be planned or whose rows have a pole at a base-locus collision,
    a zero of x_{j0} that ``coincides`` with one of x_{j1}: the pole order
    there mixes both denominator factors.
    """
    p_scale = np.maximum(np.abs(p_rows).max(axis=1), 1e-300)
    # each inner factor's degree without its exact zero top coefficients, as
    # pair_inner returns it, -1 for a zero factor; it fixes the width of the
    # pair's numerator rows P(x(t)) * inner
    nonzero = ctx.inners != 0
    degrees = nonzero.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    degrees[~nonzero.any(axis=1)] = -1
    inner = np.flatnonzero(degrees >= 0)
    # numerator rows of those pairs at once; a pair's own end at its width
    nums = _convolve_rows(p_rows, ctx.inners[inner])
    mags = np.abs(nums)
    # each row's largest magnitude, over the full convolution: past a pair's
    # width the inner factor's zero padding adds only zeros, and a NaN only
    # where an inf or NaN lies within the width too, so the pole rule
    # decides on it as on the pair's own rows
    tops = mags.max(axis=2)
    num_scales = np.maximum(ctx.term_scales[inner, None] * p_scale, 1e-300)
    live = tops > NUMERATOR_ZERO_REL_TOL * num_scales
    plan, leads, errors = ctx.site_plan(
        inner.tolist(), degrees.tolist(), live.any(axis=1).tolist(), checks
    )
    dens = ctx.dens_on_circles(plan)
    table = plan.layout.apply([leads[index] for index in plan.owner], dens, nums, live, mags, tops)
    poled = table.order.any(axis=1).tolist()
    for pair in plan.pairs:
        k = next((k for k in pair.shared if poled[k]), None)
        if k is not None:
            errors[pair.index] = BaseLocusCollisionError.at_zero(plan.layout.entries[k].location)
    if errors:
        first = min(errors)
        pair = plan.pairs[first]
        raise _named(errors[first], ctx.jet, pair.j0, pair.j1) from errors[first]
    return _Reduction(plan.pairs, plan.layout.entries, table)


def _check_shape(X: Hypersurface, jet: CurveJet | None = None) -> None:
    """The shapes an assembly takes: a hypersurface in five coordinates,
    and a jet of as many coordinates as it has."""
    if X.nvars != 5:
        raise UnsupportedShapeError(
            f"period assembly is implemented for 5 coordinates, got {X.nvars}"
        )
    if jet is not None and jet.ncoords != X.nvars:
        raise DimensionMismatchError("jet does not match the hypersurface dimensions")


def period_of_jet(X: Hypersurface, P: MultiPoly, jet: CurveJet) -> PeriodReport:
    _check_shape(X, jet)
    want = required_degree(X.degree, X.m)
    if P.is_zero() or not P.is_homogeneous() or P.total_degree() != want:
        raise DegreeError(f"P must be homogeneous of degree {want}")
    ctx = _SampleContext(X, jet)
    p_row = np.zeros((1, ctx.width), dtype=complex)
    chart = P.compose_unipoly(ctx.xs).coeffs
    p_row[0, : len(chart)] = chart
    red = _assemble(ctx, p_row, checks=True)
    entries = red.entries
    # the one row's column of each table field, read once
    order, residue, quadrature, scale = (field[:, 0].tolist() for field in red.table)
    disagreement = iter(red.disagreement[:, 0].tolist())
    per_pair: dict[tuple[int, int], PairContribution] = {}
    sums, worst = red.sums[:, 0].tolist(), red.pair_max[:, 0].tolist()
    for pair, residue_sum, pair_worst in zip(red.pairs, sums, worst):
        j0, j1 = pair.j0, pair.j1
        if not pair.live:
            per_pair[(j0, j1)] = PairContribution(j0, j1, 0j, [], numerator_zero=True)
            continue
        sites = []
        for k, d in zip(pair.sites, disagreement):
            e = entries[k]
            # every site has a circle where it has a pole
            backends = (quadrature[k], scale[k], d) if order[k] else ()
            sites.append(ZeroSiteReport(
                e.location, e.at_infinity, e.zero_multiplicity, order[k], residue[k], *backends
            ))
        contrib = PairContribution(j0, j1, residue_sum, sites, max_backend_disagreement=pair_worst)
        others = [residue[k] for k in pair.checks]
        contrib.residue_theorem_check = abs(residue_sum + sum(others))
        contrib.residue_theorem_scale = max(
            [abs(site.residue) for site in sites] + list(map(abs, others)), default=0.0
        )
        if pair.dual_sum_holds(entries, order):
            contrib.dual_sum_check = contrib.residue_theorem_check
        per_pair[(j0, j1)] = contrib

    return PeriodReport(
        s=jet.s,
        total=complex(red.totals[0]),
        per_pair=per_pair,
        min_pole_separation=ctx.min_pole_separation(),
        max_backend_disagreement=float(red.max[0]),
        vanish_scale=float(red.vanish_scales[0]),
    )


def period_at(X: Hypersurface, P: MultiPoly, fam: CurveFamily, s: complex) -> PeriodReport:
    """Period value of the class of P at one parameter sample.

    The analytic backend supplies the reported residues; the
    contour-quadrature backend runs alongside and feeds the disagreement
    diagnostic.

    Raises
    ------
    BaseLocusCollisionError
        If a pole at a zero of x_{j0} coincides with a zero of x_{j1},
        a covering chart misses the curve entirely, or the curve of a live
        pair lies in the hyperplane x_{j0} = 0.
    DegreeError
        If deg(P) != d(q+1) - m - 2 for q = 1.
    """
    return period_of_jet(X, P, fam.jet_at(s))


def _merge_sites(*site_lists):
    """The sites of all lists, sorted, each merged into the first merged
    site it ``coincides`` with (not always the last), multiplicities added."""
    sites = [site for sl in site_lists for site in sl]
    merged: list[tuple[complex, int]] = []
    for loc, mult in sorted(sites, key=lambda s: (s[0].real, s[0].imag)):
        k = next((k for k, (at, _) in enumerate(merged) if coincides(loc, [at])), None)
        if k is None:
            merged.append((loc, mult))
        else:
            merged[k] = (merged[k][0], merged[k][1] + mult)
    return merged


def sweep(
    X: Hypersurface, P: MultiPoly, fam: CurveFamily, s_list: Sequence[complex]
) -> SweepResult:
    """Period reports over an ordered sample list.

    Flags VANISHES_IDENTICALLY when every |total| < 1e-9 * scale, with scale
    the largest per-pair contribution magnitude at that sample (an all-zero
    report vanishes trivially).
    """
    if not s_list:
        raise ValueError("sample list must be nonempty")
    samples = [period_at(X, P, fam, s) for s in s_list]
    return SweepResult(samples, all(r.vanishes for r in samples))


def geometric_median(points: Sequence[complex]) -> complex:
    """Weiszfeld iteration; robust central ratio estimate."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("no points")
    if len(pts) <= 2:
        return sum(pts) / len(pts)
    z = sum(pts) / len(pts)
    for _ in range(200):
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


def compare_closed_form(sw: SweepResult, ref: Callable[[complex], complex]) -> ComparisonReport:
    """Constancy-of-ratio comparison of a sweep against a reference g(s).

    verdict PROPORTIONAL iff max |ratio - c| / |c| < 1e-6 with c the
    geometric median of the ratios and c != 0.
    """
    tolerance = 1e-6
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
        return vanishes(self.totals, self.vanish_scales)


@dataclass
class ScanTable:
    rows: list[ScanRow]
    s_list: list[complex]
    family_name: str
    degree: int
    # per sample: the largest backend disagreement of any row, with its pair
    # and monomial (None and "" when no pair has a site)
    worst_backend: list[tuple[float, tuple[int, int] | None, str]] = field(default_factory=list)


@lru_cache(maxsize=None)
def _scan_labels(nvars: int, degree: int) -> tuple[tuple[tuple[int, ...], str], ...]:
    """Exponents and text of every scan row, in ``monomials_of_degree`` order."""
    return tuple((exps, monomial_text(exps)) for exps in monomials_of_degree(nvars, degree))


def monomial_scan(
    X: Hypersurface, fam: CurveFamily, s_list: Sequence[complex], degree: int
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
    _check_shape(X)
    want = required_degree(X.degree, X.m)
    if degree != want:
        raise DegreeError(f"scan degree must be {want} for this hypersurface, got {degree}")
    labels = _scan_labels(X.nvars, degree)
    worst_backend, columns = [], []
    for s in s_list:
        jet = fam.jet_at(s)
        _check_shape(X, jet)
        ctx = _SampleContext(X, jet)
        red = _assemble(ctx, monomial_charts(ctx.xs, degree, ctx.width))
        per_site = red.disagreement
        if per_site.size:
            k, r = np.unravel_index(np.argmax(per_site), per_site.shape)
            pair = red.pairs[red.owner[k]]
            worst_backend.append((float(per_site[k, r]), (pair.j0, pair.j1), labels[r][1]))
        else:
            worst_backend.append((0.0, None, ""))
        columns.append((red.totals.tolist(), red.vanish_scales.tolist(), red.max.tolist()))
    totals, scales, worst = (zip(*column) for column in zip(*columns))
    rows = [
        ScanRow(exps, text, list(t), list(sc), list(d))
        for (exps, text), t, sc, d in zip(labels, totals, scales, worst)
    ]
    return ScanTable(
        rows=rows,
        s_list=[complex(s) for s in s_list],
        family_name=fam.name,
        degree=degree,
        worst_backend=worst_backend,
    )
