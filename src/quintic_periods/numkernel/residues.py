"""Residue extraction for rational 1-forms f(t) dt on the projective line.

Two independent backends are kept side by side on purpose:

* analytic  -- the numerator in a local coordinate u at the pole, divided as
  a truncated power series by the rest of the denominator (for a simple pole
  this collapses to num(t0)/den'(t0));
* quadrature -- a uniform trapezoid rule on a circle around the pole, which
  converges exponentially for the analytic integrands handled here: the
  one rule is ``_Contour``, one value product per block of site entries.

``SiteLayout.apply`` runs both for every integrand at every one of its
sites (a ``SiteEntry`` each, laid out in blocks by the ``SiteLayout``), on
the caller's stacked arrays of numerator rows, each entry reading the stack
it names, with each denominator known by its declared roots and lead, and
returns one ``SiteTable`` of entries x rows; the period
assembly compares the backends by ``backend_disagreement`` on all sites of
a sample at once.  The scalar oracle ``residues_at_zeros``
runs the analytic backend alone on one ``RationalFunction``, reading each
pole order at its site from the expanded denominator by one site rule, at
[1:0] in the chart u = 1/t, and refuses a pole at a zero the residue
coordinate shares with its companion.  The point at infinity is handled
through u = 1/t with dt = -du/u^2.  Two finite pole locations count as one
site by the rule of ``coincides``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..errors import BaseLocusCollisionError, PoleMismatchError
from .roots import poly_roots
from .unipoly import BinaryForm, UniPoly

QUAD_NODES = 256
MAX_QUAD_RADIUS = 0.5


@dataclass(frozen=True)
class PoleSite:
    """One pole location with its order and residue.

    ``at_infinity`` marks the point [1:0]; ``location`` is then ignored.
    """

    location: complex
    order: int
    residue: complex
    at_infinity: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("pole order must be >= 1")


@dataclass(frozen=True)
class RationalFunction:
    """Quotient num/den of two UniPoly; den is never the zero polynomial."""

    num: UniPoly
    den: UniPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    def __call__(self, t):
        return self.num(t) / self.den(t)

    def at_infinity_chart(self) -> RationalFunction:
        """g(u) with g(u) du = f(1/t-substituted) dt, i.e. g(u) = -f(1/u)/u^2."""
        n, m = self.num.degree, self.den.degree
        num_rev = self.num.reversed_coeffs()
        den_rev = self.den.reversed_coeffs()
        shift = m - n - 2
        if shift >= 0:
            num_u = num_rev * UniPoly([0.0] * shift + [1.0])
            den_u = den_rev
        else:
            num_u = num_rev
            den_u = den_rev * UniPoly([0.0] * (-shift) + [1.0])
        return RationalFunction(-1.0 * num_u, den_u)

    def pole_sites(self) -> list[PoleSite]:
        """Finite poles (den roots surviving numerator cancellation)."""
        if self.num.is_zero():
            return []
        sites = []
        for loc, mult in poly_roots(self.den):
            if self.num.vanishing_order(loc) >= mult:
                continue
            sites.append(PoleSite(loc, mult, residue_analytic(self, loc, mult)))
        return sites


def residue_analytic(f: RationalFunction, location: complex, order: int) -> complex:
    """Residue of f dt at a finite pole of declared order.

    Parameters
    ----------
    f : RationalFunction
    location : complex
        Pole position t0.
    order : int
        Local multiplicity of the denominator at t0; checked, and a
        PoleMismatchError is raised on disagreement.

    Returns
    -------
    complex
        Coefficient of (t - t0)^(-1) in the local Laurent expansion.  The
        numerator may also vanish at t0; the series division absorbs that.
    """
    if order < 1:
        raise PoleMismatchError("declared pole order must be >= 1")
    den_sh = f.den.shifted(location)
    local = den_sh.vanishing_order(0j, rel_tol=1e-8)
    if local != order:
        raise PoleMismatchError(
            f"denominator has local multiplicity {local} at {location:.6g}, "
            f"declared order {order}"
        )
    num_sh = f.num.shifted(location)
    dred = list(den_sh.coeffs[order:])
    # power-series quotient num_sh / dred up to index order-1
    nc = list(num_sh.coeffs) + [0.0] * order
    qs: list[complex] = []
    for k in range(order):
        acc = nc[k]
        for i in range(1, min(k, len(dred) - 1) + 1):
            acc -= dred[i] * qs[k - i]
        qs.append(acc / dred[0])
    return qs[order - 1]


def residue_at_infinity_analytic(f: RationalFunction) -> complex:
    """Residue of f dt at [1:0] via the u = 1/t chart."""
    if f.num.is_zero():
        return 0j
    return _infinity_site(f, 0).residue


def _quadrature(f, center: complex, radius: float, nodes: int) -> tuple[complex, float]:
    """Trapezoid contour value plus the contour magnitude max |f(z)(z-c)|,
    the resolution scale of the rule (its absolute noise floor is roughly
    machine epsilon times this): the scalar reference of ``_Contour``."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    offs = radius * np.exp(1j * theta)
    vals = f(center + offs) * offs
    return complex(np.mean(vals)), float(np.max(np.abs(vals)))


def quadrature_radius(center: complex, other_points: list[complex]) -> float:
    """Half the distance to the nearest other singular point, capped at 0.5."""
    dists = [abs(p - center) for p in other_points if abs(p - center) > 0]
    if not dists:
        return MAX_QUAD_RADIUS
    return min(MAX_QUAD_RADIUS, 0.5 * min(dists))


def backend_disagreement(analytic, quadrature, quadrature_scale):
    """|analytic - quadrature| relative to the larger residue magnitude,
    floored at 1e-6 of the quadrature contour magnitude: below that the
    trapezoid rule cannot resolve a difference (its noise floor is machine
    epsilon times the contour magnitude), so a near-zero residue pair counts
    as agreement rather than as 100% error.  Takes complex arrays; a NaN
    residue gives a NaN disagreement.
    """
    floor = np.maximum(1e-6 * quadrature_scale, 1e-300)
    larger = np.maximum(abs(analytic), abs(quadrature))
    return abs(analytic - quadrature) / np.maximum(larger, floor)


@dataclass
class ZeroSiteReport:
    """Diagnostics for one zero of the residue coordinate; its
    ``backend_disagreement`` is 0 without a quadrature value."""

    location: complex
    at_infinity: bool
    zero_multiplicity: int
    pole_order: int
    residue: complex
    residue_quadrature: complex | None = None
    quadrature_scale: float = 0.0
    backend_disagreement: float = 0.0


@dataclass
class ZeroResidueSum:
    total: complex
    sites: list[ZeroSiteReport] = field(default_factory=list)
    # the oracle runs no quadrature, so its sites never disagree
    max_backend_disagreement: float = 0.0


def residues_at_zeros(
    f: RationalFunction, z: BinaryForm, guard: BinaryForm | None = None
) -> ZeroResidueSum:
    """Sum of residues of f dt over the distinct zeros of the binary form z.

    Every zero of z on the projective line contributes the residue of f dt at
    that point once (multiplicity of the zero does not repeat it); the point
    at infinity participates when the chart polynomial of z drops degree.  A
    z with no zeros at all (nonzero constant form) contributes 0.

    ``guard`` is the companion coordinate of a cocycle pair: if a finite zero
    of z ``coincides`` with a finite zero of guard *and* f genuinely has a
    pole there, the local pole order mixes both denominator factors and a
    BaseLocusCollisionError is raised instead of silently splitting it.  The
    pole order at a zero is the vanishing order of f.den there, the count
    ``residue_analytic`` checks.
    """
    if z.is_zero():
        raise ValueError("zero form has no isolated zero locus")
    if f.num.is_zero():
        return ZeroResidueSum(0j, [])

    zeros: list[tuple[complex | None, int]] = list(_finite_zeros(z))
    companion = [loc for loc, _ in _finite_zeros(guard)] if guard is not None else []
    inf_mult = z.infinity_order()
    if inf_mult > 0:
        zeros.append((None, inf_mult))

    total = 0j
    site_reports: list[ZeroSiteReport] = []
    for loc, zmult in zeros:
        if loc is None:
            report = _infinity_site(f, inf_mult)
        else:
            report = _finite_site(f, loc, zmult, companion)
        total += report.residue
        site_reports.append(report)
    return ZeroResidueSum(total, site_reports)


def _finite_zeros(form: BinaryForm) -> list[tuple[complex, int]]:
    """Finite zeros of a binary form with multiplicities, from its trimmed
    chart."""
    chart = form.dehomogenized().trimmed()
    return poly_roots(chart) if chart.degree >= 1 else []


def coincides(loc: complex, locs) -> bool:
    """Whether loc lies within 1e-7 * (1 + |loc|) of one of locs: the rule
    by which two finite pole locations count as one site."""
    tol = 1e-7 * (1.0 + abs(loc))
    for z in locs:
        if abs(loc - z) <= tol:
            return True
    return False


def _finite_site(f, loc, zmult, companion) -> ZeroSiteReport:
    order = f.den.vanishing_order(loc, rel_tol=1e-8)
    has_pole = order > 0 and f.num.vanishing_order(loc) < order
    if not has_pole:
        return ZeroSiteReport(loc, False, zmult, 0, 0j)
    if coincides(loc, companion):
        raise BaseLocusCollisionError.at_zero(loc)
    return ZeroSiteReport(loc, False, zmult, order, residue_analytic(f, loc, order))


def _infinity_site(f, zmult) -> ZeroSiteReport:
    """The finite site rule in the chart u = 1/t, at u = 0.  No collision
    here: at [1:0] the measure dt itself carries a double pole, so a pole of
    f dt does not imply a denominator-factor overlap, and the residue of a
    rational 1-form at infinity is always well defined."""
    report = _finite_site(f.at_infinity_chart(), 0j, zmult, [])
    report.at_infinity = True
    return report


def residue_sum_check(f: RationalFunction) -> float:
    """|sum of all residues, including the one at infinity|.

    The residue theorem makes this 0 for every rational 1-form; the returned
    magnitude is a global consistency diagnostic for the engine.
    """
    total = sum((s.residue for s in f.pole_sites()), 0j)
    total += residue_at_infinity_analytic(f)
    return abs(total)


# ---------------------------------------------------------------------------
# declared denominators, stacked by site
#
# An integrand num/den is known by its declared structure den = lead *
# prod (t - r)^m over its finite sites (r, m); den is never expanded.  With
# it fixed, every residue is a linear functional of the numerator: at a site
# (SiteEntry) the form reads R(u) du / (u^order g(u)) in a local coordinate
# u, the order and the first ``order`` coefficients of 1/g come from the
# declared sites, and the residues of all rows of a coefficient matrix take
# one matrix product.  Whether a row has a pole stays a per-row rule, that of
# _finite_site (which _infinity_site applies in the chart at [1:0]).
#
# A SiteLayout applies a list of entries -- every site and check site of every
# pair of a sample -- in one pass, into one table (SiteTable) of entries x
# rows, exact zeros where no block writes.  Each entry names the stack of
# numerator rows it reads, on the leading axis of the caller's arrays (one
# stack per pair in the period assembly).  Entries of equal exact location,
# width and order form a block, which gathers their stacks with one index and
# writes their lines.  numpy's stacked matmul runs the same kernel on each
# slice, so a stacked product is bit-identical to that of the entry alone;
# padding the contraction to a common width, or merging rows into one product,
# is not.  Which sites a pair sums, and when a pole is a base-locus collision,
# are the caller's rules.
#
# The entries and their blocks hold structure alone: the sites, orders,
# far-site factors and radii, the block grouping with its stack and index
# arrays, the shift matrices, each block's contour nodes and radius powers,
# and the nodes t of each distinct circle, where the caller evaluates its
# denominators.  So one layout serves every sample whose structure is the
# same; its ``apply`` takes one set of numbers, and each block builds its
# entries' Laurent series from the leads of their declared denominators,
# folds the denominators on its circles into its contour and writes its
# lines, in one call.
#
# The trapezoid rule, the library's only one, is linear in the numerator too,
# so an entry folds the rest of the integrand on its circle into a covector
# once per sample (_Contour), and the values of all rows of a block are one
# stacked product.  That rest holds the denominator as it stands, evaluated by
# the caller at the nodes: a wrong declaration shows as a backend
# disagreement.  A row's contour magnitude is closed-form when the row has at
# most one term (every row of a Fermat line): |c_k| r^k times the factor's
# largest modulus on the circle, taken as the modulus of the sum of the row's
# scaled terms, one hypot per row.  Only rows with two or more terms evaluate
# the row at the nodes, in blocks of rows over all entries of a block.  A row
# without a pole at the site, or an entry without a circle, reports 0 in both,
# and no backend disagreement.  The pole rule reads the magnitudes of the
# numerator rows that the caller took for its numerator-zero test (reversed at
# [1:0]); only a Taylor-shifted block takes its own.
#
# The Laurent data of an entry (_truncated_product, _reciprocal_series), like
# the chart arithmetic of unipoly's trimmed_* helpers, stays in Python
# complex scalars.  numpy's complex * and / are not CPython's: with numpy 2.4
# on an AVX-512 x86-64 CPU they differ in the last bit on about 44% of random
# products and 43% of quotients, while CPython's own formulas written out in
# real parts reproduce CPython exactly.  A numpy form of these short series
# (3-4 coefficients) in real-part arithmetic pays more in call overhead than
# the loops spend: about 24 against 2.2 microseconds for three coefficients
# of 1/g on a 2-core Xeon.


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _unit_circle(nodes: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return _frozen(np.exp(1j * theta))


@lru_cache(maxsize=None)
def _unit_powers(count: int, nodes: int) -> np.ndarray:
    """e^(i k theta_n), one row per exponent k < count, one column per node."""
    turns = np.outer(np.arange(count), np.arange(nodes)) % nodes
    return _frozen(_unit_circle(nodes)[turns])


# Rows per block of the contour magnitude of rows with two or more terms
# (one-term rows take a closed form).  The blocks bound the rows x nodes
# temporaries, and keep each zgemm small enough that OpenBLAS runs it on one
# thread: a single 126 x 6 @ 6 x 256 product took its threaded path and ran
# about 5x slower on a 2-core host.
_CONTOUR_BLOCK = 16


class _Contour:
    """The trapezoid rule on the circles |u| = radius_b of a block's entries,
    for integrands p(u) * factor_b(u), with p = sum_k c_k u^k of ``width``
    terms and factor_b = u / den_b(t(u)), or -1 / (u^width den_b(1/u)) at
    [1:0], from den_b given at the nodes.

    What depends on the radii alone -- the nodes u, the powers of the unit
    circle and of the radii, and u^width at [1:0] -- is built once, with
    the block.  The trapezoid value is linear in c, so each factor folds
    into a covector q_k = r^k mean_n(e^(i k theta_n) factor_n); a row's
    value is then c @ q, one product for every row of every entry.  Its
    magnitude max_n |p(u_n)| |factor_n| is |c_k| r^k max_n |factor_n| for a
    row of one term c_k u^k, with the factor's maximum folded once per
    entry; only a row of two or more terms needs p on the circle: one matrix
    product per block of such rows, over all entries."""

    def __init__(self, radii: list[float], width: int, at_infinity: bool):
        radii = np.array(radii)[:, None]
        self.u = radii * _unit_circle(QUAD_NODES)
        self.u_width = self.u**width if at_infinity else None
        self.powers = _unit_powers(width, QUAD_NODES)
        self.radius_powers = radii ** np.arange(width)

    def trapezoid(self, rows, has_pole, den) -> tuple[np.ndarray, np.ndarray]:
        """Per entry b and row r of ``rows[b, r]``, the trapezoid value and the
        contour magnitude of p(u) * factor_b(u), with den_b at the nodes
        ``den[b]``, as _quadrature returns them; 0 where ``has_pole`` is
        False.

        The values of all entries are one stacked product, masked.  A row of
        at most one term has a constant modulus on the circle, so its
        magnitude is that modulus, the modulus of the sum of its terms (one
        hypot per row), times the factor's maximum; only rows of two or more
        terms are evaluated at the nodes, in blocks, and their magnitudes
        replace the closed form."""
        factor = self.u / den if self.u_width is None else -1.0 / (self.u_width * den)
        covector = self.radius_powers * (self.powers @ factor[:, :, None])[..., 0] / QUAD_NODES
        factor_abs = np.abs(factor)
        value = np.where(has_pole, (rows @ covector[:, :, None])[..., 0], 0j)
        entry, row = np.nonzero(has_pole)
        scaled = rows[entry, row] * self.radius_powers[entry]
        scale = np.zeros(has_pole.shape)
        one = (scaled != 0).sum(axis=1) <= 1
        if one.any():
            scale[entry, row] = np.abs(scaled.sum(axis=1)) * factor_abs.max(axis=1)[entry]
            entry, row, scaled = entry[~one], row[~one], scaled[~one]
        for k in range(0, len(entry), _CONTOUR_BLOCK):
            part = slice(k, k + _CONTOUR_BLOCK)
            mag = np.abs(scaled[part] @ self.powers)
            mag *= factor_abs[entry[part]]
            scale[entry[part], row[part]] = mag.max(axis=1)
        return value, scale


@lru_cache(maxsize=None)
def _binomials(width: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(width)
    table = np.array([[math.comb(a, b) for b in range(width)] for a in range(width)], float)
    return _frozen(table), _frozen(np.maximum(idx[:, None] - idx[None, :], 0))


def _shift_matrix(t0: complex, width: int) -> np.ndarray:
    """S with c @ S the coefficients of p(t + t0), c those of p."""
    table, gap = _binomials(width)
    powers = np.cumprod(np.concatenate(([1.0 + 0j], np.full(width - 1, t0))))
    return table * powers[gap]


def _truncated_product(lead: complex, factors, n: int) -> list[complex]:
    """First n Taylor coefficients of lead * prod (a + b u)^m over the
    factors (a, b, m)."""
    g = [complex(lead)] + [0j] * (n - 1)
    for a, b, m in factors:
        for _ in range(m):
            # in place from the top, so g[k - 1] is still the old one
            for k in range(n - 1, 0, -1):
                g[k] = a * g[k] + b * g[k - 1]
            g[0] = a * g[0]
    return g


def _reciprocal_series(d, n: int) -> list[complex]:
    """First n Taylor coefficients of 1 / sum_k d[k] t^k, d[0] != 0."""
    inv = [0j] * n
    last = len(d) - 1
    for k in range(n):
        acc = 1.0 if k == 0 else 0j
        for i in range(1, (k if k < last else last) + 1):
            acc -= d[i] * inv[k - i]
        inv[k] = acc / d[0]
    return inv


class SiteEntry:
    """One integrand's site, planned from its structure: numerator rows of
    ``width`` coefficients over den = lead * prod (t - r)^m, with (r, m) the
    declared finite sites and the lead given to ``inverse``.

    At a finite ``location`` u = t - location, the rows are Taylor-shifted
    (not at 0), the order is the multiplicity declared there and g(u) =
    lead * prod (u + location - r)^m over the other sites, the ``factors``.
    ``location`` None is [1:0]: u = 1/t, the rows reversed are R(u) =
    u^(width-1) num(1/u), and the form -R(u) du / (u^(width+1) den(1/u)) has
    order width + 1 - sum m and g(u) = -lead * prod (1 - r u)^m.  A row's
    reported order there is its own, deg + 2 - sum m.

    With ``contour`` an entry that has a pole gets a quadrature circle of
    ``radius`` about the site.
    """

    __slots__ = (
        "at_infinity", "location", "zero_multiplicity", "width", "radius", "order", "factors"
    )

    def __init__(
        self,
        location: complex | None,
        zero_multiplicity: int,
        den_sites: list[tuple[complex, int]],
        width: int,
        contour: bool,
    ):
        self.at_infinity = location is None
        self.location = 0j if location is None else location
        self.zero_multiplicity = zero_multiplicity
        self.width = width
        self.radius = None
        if self.at_infinity:
            self.order = width + 1 - sum(m for _, m in den_sites)
            # a site at exactly 0 contributes the factor 1
            self.factors = [(1.0, -r, m) for r, m in den_sites if r != 0]
            others = [1.0 / r for r, _ in den_sites if abs(r) > 1e-12]
        else:
            # the multiplicity clustered at location, and the other sites
            self.order, far = 0, []
            for r, m in den_sites:
                if coincides(r, [location]):
                    self.order += m
                else:
                    far.append((r, m))
            self.factors = [(location - r, 1.0, m) for r, m in far]
            others = [r for r, _ in far]
        if self.order > 0 and contour:
            self.radius = quadrature_radius(self.location, others)

    def inverse(self, lead: complex) -> list[complex]:
        """The first ``order`` coefficients of 1/g for the declared ``lead``."""
        if self.at_infinity:
            lead = -lead
        return _reciprocal_series(_truncated_product(lead, self.factors, self.order), self.order)


def _big(mag: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Entries of ``mag``, magnitudes, above 1e-9 times their row's largest,
    ``top``: the significance rule of UniPoly.vanishing_order."""
    return mag > 1e-9 * top[..., None]


class SiteTable(NamedTuple):
    """Residues of num_r / den dt at the site of each entry i of a SiteLayout,
    one line per entry and one column per row r: the pole order, the
    analytic residue, the trapezoid value and the contour magnitude.

    All four are exact zeros in a row without a pole at the entry's site,
    and the last two also at an entry without a quadrature circle.
    """

    order: np.ndarray
    residue: np.ndarray
    quadrature: np.ndarray
    quadrature_scale: np.ndarray


class _Block:
    """Entries of one exact location, width and order, stacked; those with
    a quadrature circle first.  ``index`` holds their lines in the table,
    ``stacks`` the stacks of their rows, ``rows`` the circled ones' rows of
    the ``dens`` that ``SiteLayout.apply`` takes.  A block is planned once,
    with its contour on the circled entries' radii; ``apply`` computes its
    numbers for one set of leads, dens and numerator rows."""

    def __init__(self, index: list[int], entries: list[SiteEntry], stacks, rows, shift_matrix):
        first = entries[0]
        self.index, self.entries, self.stacks, self.rows = index, entries, stacks, rows
        self.width, self.at_infinity, self.order = first.width, first.at_infinity, first.order
        self.shift = None
        if not first.at_infinity and first.location != 0:
            self.shift = shift_matrix(first.location, first.width)
        radii = [e.radius for e in entries[: len(rows)]]
        self.contour = _Contour(radii, self.width, self.at_infinity) if rows else None

    def apply(self, leads, dens, nums, lives, mags, tops, table: SiteTable) -> None:
        """Writes the block's lines of ``table`` from its entries' rows, the
        first ``width`` coefficients of their stacks: the Laurent series
        from ``leads[i]`` of each entry i, and the contour from the rows of
        ``dens``.  The pole rule reads the magnitudes and row maxima it is
        given at t = 0, the magnitudes reversed at [1:0]; a shifted site
        takes those of its shifted rows."""
        # residue = sum_{i < order} local[i] * inv[order - 1 - i], over the
        # rows' width coefficients: the reversed series, as a strided view
        inverses = [e.inverse(leads[i]) for i, e in zip(self.index, self.entries)]
        series = np.array(inverses)[:, ::-1][:, : self.width, None]
        stacks, width = self.stacks, self.width
        num = nums[stacks, :, :width]
        if self.at_infinity:
            local, mag, top = num[:, :, ::-1], mags[stacks, :, :width][:, :, ::-1], tops[stacks]
        elif self.shift is None:
            local, mag, top = num, mags[stacks, :, :width], tops[stacks]
        else:
            local = num @ self.shift
            mag = np.abs(local)
            top = mag.max(axis=-1)
        has_pole = lives[stacks] & (np.argmax(_big(mag, top), axis=2) < self.order)
        residue = local[:, :, : series.shape[1]] @ series
        table.residue[self.index] = np.where(has_pole, residue[..., 0], 0j)
        order = self.order
        if self.at_infinity:
            order = order - np.argmax(mag != 0, axis=2)
        table.order[self.index] = has_pole * order
        if self.contour is not None:
            c = len(self.rows)
            values, scales = self.contour.trapezoid(local[:c], has_pole[:c], dens[self.rows])
            circled = self.index[:c]
            table.quadrature[circled], table.quadrature_scale[circled] = values, scales


class SiteLayout:
    """The blocks of a list of entries, planned once, and applied to the
    numbers of every sample whose structure is the same.

    Entries of equal exact location, width and order form one block, and
    blocks of equal location and width share one Taylor-shift matrix.
    ``stacks[i]`` is the first-axis index of entry i's rows in the arrays
    ``apply`` takes, and ``circled`` lists the entries with a radius, in
    entry order: the order of the rows of its ``dens``.

    Each distinct circle, by [1:0] flag, location and radius, is placed
    once: ``nodes`` holds its QUAD_NODES nodes t = location + u, or t = 1/u
    at [1:0], on |u| = radius (None without a circle), and ``circle_of[n]``
    is the row of ``nodes`` on which circled entry n takes its den.
    """

    def __init__(self, entries: list[SiteEntry], stacks: list[int]):
        self.entries = entries
        stacks = np.array(stacks, dtype=int)
        shift_matrix = lru_cache(maxsize=None)(_shift_matrix)
        self.circled = [i for i, e in enumerate(entries) if e.radius is not None]
        circles: dict[tuple, int] = {}
        self.circle_of = np.array([
            circles.setdefault((e.at_infinity, e.location, e.radius), len(circles))
            for e in map(entries.__getitem__, self.circled)
        ], dtype=int)
        unit = _unit_circle(QUAD_NODES)
        nodes = [1.0 / (r * unit) if inf else loc + r * unit for inf, loc, r in circles]
        self.nodes = np.array(nodes) if nodes else None
        row = {i: n for n, i in enumerate(self.circled)}
        blocks: dict[tuple, list[int]] = {}
        for i, e in sorted(enumerate(entries), key=lambda ie: ie[1].radius is None):
            if e.order > 0:
                blocks.setdefault((e.at_infinity, e.location, e.width, e.order), []).append(i)
        self.blocks = [
            _Block(ix, [entries[i] for i in ix], stacks[ix], [row[i] for i in ix if i in row],
                   shift_matrix)
            for ix in blocks.values()
        ]

    def apply(self, leads, dens, nums, lives, mags, tops) -> SiteTable:
        """The table of every entry i and each numerator row r of its stack
        k = ``stacks[i]``, for one set of numbers: ``leads[i]``, the lead of
        entry i's declared denominator; ``dens``, one row per ``circled``
        entry n, its den at the nodes ``nodes[circle_of[n]]`` of its circle,
        which adds its quadrature backend (None without a circled entry);
        and the first width coefficients of ``nums[k, r]`` (stacks x rows x
        at least the widest entry's width), given with their magnitudes
        ``mags`` (``np.abs(nums)``) and each row's largest magnitude
        ``tops[k, r]``, which the caller has taken for its numerator-zero
        test; rows where ``lives[k, r]`` is False have no pole.  The rows of
        ``nums`` size the table even when there is no entry."""
        shape = (len(self.entries), nums.shape[1])
        table = SiteTable(*(np.zeros(shape, dtype) for dtype in (int, complex, complex, float)))
        for block in self.blocks:
            block.apply(leads, dens, nums, lives, mags, tops, table)
        return table
