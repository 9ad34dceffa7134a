"""Residue extraction for rational 1-forms f(t) dt on the projective line.

Two independent backends are kept side by side on purpose:

* analytic  -- Taylor shift of numerator and denominator at the pole followed
  by a truncated power-series division (for a simple pole this collapses to
  num(t0)/den'(t0));
* quadrature -- a uniform trapezoid rule on a circle around the pole, which
  converges exponentially for the analytic integrands handled here.

The point at infinity is handled through u = 1/t with dt = -du/u^2, at the
level of the rational function itself, so both backends apply there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import BaseLocusCollisionError, PoleMismatchError, RadiusCollisionError
from .roots import poly_roots
from .unipoly import BinaryForm, UniPoly

DEFAULT_QUAD_NODES = 256
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

    def scale(self) -> float:
        ds = self.den.scale()
        return self.num.scale() / ds if ds else float("inf")

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

    def pole_sites(self, residues: bool = True) -> list[PoleSite]:
        """Finite poles (den roots surviving numerator cancellation)."""
        if self.num.is_zero():
            return []
        sites = []
        for loc, mult in poly_roots(self.den):
            if self.num.vanishing_order(loc) >= mult:
                continue
            res = residue_analytic(self, loc, mult) if residues else 0j
            sites.append(PoleSite(loc, mult, res))
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
    local = _local_multiplicity(den_sh.coeffs)
    if local != order:
        raise _mismatch(local, location, order)
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


def _local_multiplicity(shifted_coeffs) -> int:
    """Leading coefficients of a shifted denominator that are zero to 1e-8
    of its scale."""
    ds = max((abs(c) for c in shifted_coeffs), default=0.0)
    local = 0
    while local < len(shifted_coeffs) and abs(shifted_coeffs[local]) <= 1e-8 * ds:
        local += 1
    return local


def _mismatch(local: int, location: complex, order: int) -> PoleMismatchError:
    return PoleMismatchError(
        f"denominator has local multiplicity {local} at {location:.6g}, "
        f"declared order {order}"
    )


def residue_at_infinity_analytic(f: RationalFunction) -> complex:
    """Residue of f dt at [1:0] via the u = 1/t chart."""
    if f.num.is_zero():
        return 0j
    g = f.at_infinity_chart()
    order = g.den.vanishing_order(0j, rel_tol=1e-8)
    if order <= 0 or g.num.vanishing_order(0j) >= order:
        return 0j
    return residue_analytic(g, 0j, order)


def residue_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    center: complex,
    radius: float,
    nodes: int = DEFAULT_QUAD_NODES,
    other_poles: tuple[complex, ...] = (),
) -> complex:
    """(1/2 pi i) * contour integral of f on |t - center| = radius.

    Uniform trapezoid sampling; exponentially accurate when f is holomorphic
    on the circle.  When ``other_poles`` is supplied, a RadiusCollisionError
    flags clustered poles (any other pole within twice the radius).
    """
    for p in other_poles:
        d = abs(p - center)
        if d > 0 and d < 2.0 * radius * (1.0 - 1e-12):
            raise RadiusCollisionError(
                f"pole at {p:.6g} within 2x radius {radius:.3g} of center {center:.6g}"
            )
    return _quadrature(f, center, radius, nodes)[0]


def _quadrature(f, center: complex, radius: float, nodes: int) -> tuple[complex, float]:
    """Trapezoid contour value plus the contour magnitude max |f(z)(z-c)|,
    the resolution scale of the rule (its absolute noise floor is roughly
    machine epsilon times this)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    offs = radius * np.exp(1j * theta)
    vals = f(center + offs) * offs
    return complex(np.mean(vals)), float(np.max(np.abs(vals)))


def residue_at_infinity_quadrature(
    f: RationalFunction, nodes: int = DEFAULT_QUAD_NODES
) -> complex:
    g = f.at_infinity_chart()
    finite = [loc for loc, _ in poly_roots(g.den)] if not g.den.is_zero() else []
    others = [u for u in finite if abs(u) > 1e-12]
    radius = quadrature_radius(0j, others)
    return residue_quadrature(lambda u: g(u), 0j, radius, nodes)


def quadrature_radius(center: complex, other_points: list[complex]) -> float:
    """Half the distance to the nearest other singular point, capped at 0.5."""
    dists = [abs(p - center) for p in other_points if abs(p - center) > 0]
    if not dists:
        return MAX_QUAD_RADIUS
    return min(MAX_QUAD_RADIUS, 0.5 * min(dists))


@dataclass
class ZeroSiteReport:
    """Diagnostics for one zero of the residue coordinate.

    ``backend_disagreement`` is |analytic - quadrature| relative to the
    larger residue magnitude, floored at 1e-6 of the quadrature contour
    magnitude: below that the trapezoid rule cannot resolve a difference
    (its noise floor is machine epsilon times the contour magnitude), so a
    near-zero residue pair counts as agreement rather than as 100% error.
    """

    location: complex
    at_infinity: bool
    zero_multiplicity: int
    pole_order: int
    residue: complex
    residue_quadrature: complex | None = None
    quadrature_scale: float = 0.0

    @property
    def backend_disagreement(self) -> float:
        if self.residue_quadrature is None:
            return 0.0
        a, q = self.residue, self.residue_quadrature
        floor = 1e-6 * self.quadrature_scale
        return abs(a - q) / max(abs(a), abs(q), floor, 1e-300)


@dataclass
class ZeroResidueSum:
    total: complex
    sites: list[ZeroSiteReport] = field(default_factory=list)

    @property
    def max_backend_disagreement(self) -> float:
        return max((s.backend_disagreement for s in self.sites), default=0.0)


def residues_at_zeros(
    f: RationalFunction,
    z: BinaryForm,
    guard: BinaryForm | None = None,
    quadrature: bool = True,
    nodes: int = DEFAULT_QUAD_NODES,
    den_sites: list[tuple[complex, int]] | None = None,
) -> ZeroResidueSum:
    """Sum of residues of f dt over the distinct zeros of the binary form z.

    Every zero of z on the projective line contributes the residue of f dt at
    that point once (multiplicity of the zero does not repeat it); the point
    at infinity participates when the chart polynomial of z drops degree.  A
    z with no zeros at all (nonzero constant form) contributes 0.

    ``guard`` is the companion coordinate of a cocycle pair: if a finite zero
    of z is also a zero of guard *and* f genuinely has a pole there, the local
    pole order mixes both denominator factors and a BaseLocusCollisionError is
    raised instead of silently splitting it.

    ``den_sites`` may carry precomputed clustered denominator roots (the
    caller often knows the factored denominator, whose roots are better
    conditioned than the product's).
    """
    if z.is_zero():
        raise ValueError("zero form has no isolated zero locus")
    if f.num.is_zero():
        return ZeroResidueSum(0j, [])

    zeros: list[tuple[complex | None, int]] = []
    chart = z.dehomogenized().trimmed()
    if chart.degree >= 1:
        for loc, mult in poly_roots(chart):
            zeros.append((loc, mult))
    inf_mult = z.infinity_order()
    if inf_mult > 0:
        zeros.append((None, inf_mult))

    if den_sites is None:
        den_sites = poly_roots(f.den)
    den_locs = [loc for loc, _ in den_sites]
    total = 0j
    site_reports: list[ZeroSiteReport] = []
    for loc, zmult in zeros:
        if loc is None:
            report = _infinity_site(f, inf_mult, guard, quadrature, nodes, den_locs)
        else:
            report = _finite_site(f, loc, zmult, guard, quadrature, nodes, den_sites)
        total += report.residue
        site_reports.append(report)
    return ZeroResidueSum(total, site_reports)


def _site_order(loc: complex, den_sites) -> int:
    """Denominator multiplicity clustered at loc."""
    return sum(m for dloc, m in den_sites if abs(dloc - loc) <= 1e-7 * (1.0 + abs(dloc)))


def _other_poles(loc: complex, den_sites) -> list[complex]:
    return [p for p, _ in den_sites if abs(p - loc) > 1e-7 * (1.0 + abs(p))]


def _guard_collides(guard: BinaryForm | None, loc: complex) -> bool:
    """Whether the companion coordinate also vanishes at loc."""
    if guard is None:
        return False
    gchart = guard.dehomogenized()
    gs = guard.scale()
    return gs > 0 and abs(gchart(loc)) <= 1e-8 * gs * max(1.0, abs(loc)) ** max(gchart.degree, 0)


def _collision(loc: complex) -> BaseLocusCollisionError:
    return BaseLocusCollisionError(
        f"zero of the residue coordinate at {loc:.6g} is also a zero of the "
        "companion coordinate and the integrand has a pole there"
    )


def _finite_site(f, loc, zmult, guard, quadrature, nodes, den_sites) -> ZeroSiteReport:
    order = _site_order(loc, den_sites)
    has_pole = order > 0 and f.num.vanishing_order(loc) < order
    if not has_pole:
        return ZeroSiteReport(loc, False, zmult, 0, 0j)
    if _guard_collides(guard, loc):
        raise _collision(loc)
    res = residue_analytic(f, loc, order)
    resq = None
    qscale = 0.0
    if quadrature:
        radius = quadrature_radius(loc, _other_poles(loc, den_sites))
        resq, qscale = _quadrature(lambda t: f(t), loc, radius, nodes)
    return ZeroSiteReport(loc, False, zmult, order, res, resq, qscale)


def _infinity_site(f, zmult, guard, quadrature, nodes, den_locs) -> ZeroSiteReport:
    # No collision guard here: at [1:0] the measure dt itself carries a double
    # pole, so a pole of f dt does not imply a denominator-factor overlap, and
    # the residue of a rational 1-form at infinity is always well defined.
    g = f.at_infinity_chart()
    order = g.den.vanishing_order(0j, rel_tol=1e-8)
    has_pole = order > 0 and g.num.vanishing_order(0j) < order
    if not has_pole:
        return ZeroSiteReport(0j, True, zmult, 0, 0j)
    res = residue_analytic(g, 0j, order)
    resq = None
    qscale = 0.0
    if quadrature:
        others = [1.0 / t for t in den_locs if abs(t) > 1e-12]
        radius = quadrature_radius(0j, others)
        resq, qscale = _quadrature(lambda u: g(u), 0j, radius, nodes)
    return ZeroSiteReport(0j, True, zmult, order, res, resq, qscale)


def residue_sum_check(f: RationalFunction) -> float:
    """|sum of all residues, including the one at infinity|.

    The residue theorem makes this 0 for every rational 1-form; the returned
    magnitude is a global consistency diagnostic for the engine.
    """
    total = sum((s.residue for s in f.pole_sites()), 0j)
    total += residue_at_infinity_analytic(f)
    return abs(total)


# ---------------------------------------------------------------------------
# one denominator, a matrix of numerator rows
#
# With the denominator fixed, every residue is a linear functional of the
# numerator's coefficients.  A site map does the denominator's work once
# (Taylor shift, multiplicity check, the series of its reciprocal, the
# quadrature circle) and then takes the residues of num_r / den dt for every
# row num_r of a coefficient matrix with a few matrix products.  The rules
# that depend on the numerator stay per row and are those of _finite_site
# and _infinity_site: the vanishing order against the row's own shifted
# scale, and at infinity the row's leading coefficients.


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _unit_circle(nodes: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return _frozen(np.exp(1j * theta))


@lru_cache(maxsize=None)
def _unit_powers(first: int, step: int, count: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k = first + step * j and e^(i k theta_n), one row per j and
    one column per node."""
    k = first + step * np.arange(count)
    turns = np.outer(k, np.arange(nodes)) % nodes
    return _frozen(k.astype(float)), _frozen(_unit_circle(nodes)[turns])


_CONTOUR_BLOCK = 16  # rows per block: bounds the rows x nodes temporaries


class _Contour:
    """Power sums sum_j c_j u^(first + step j) on the circle |u| = radius,
    for rows of coefficients c of at most ``count`` entries."""

    def __init__(self, radius: float, first: int, step: int, count: int, nodes: int):
        k, self.powers = _unit_powers(first, step, count, nodes)
        self.radius_powers = radius**k
        self.u = radius * _unit_circle(nodes)

    def values(self, rows: np.ndarray) -> np.ndarray:
        w = rows.shape[-1]
        return (rows * self.radius_powers[:w]) @ self.powers[:w]

    def trapezoid(self, rows: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the trapezoid value and the contour magnitude of
        values(row) * factor, as _quadrature returns them."""
        value = np.empty(len(rows), dtype=complex)
        scale = np.empty(len(rows))
        for b in range(0, len(rows), _CONTOUR_BLOCK):
            vals = self.values(rows[b : b + _CONTOUR_BLOCK])
            vals *= factor
            value[b : b + _CONTOUR_BLOCK] = vals.sum(axis=1) / vals.shape[1]
            scale[b : b + _CONTOUR_BLOCK] = np.abs(vals).max(axis=1)
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


def _reciprocal_series(d, n: int) -> np.ndarray:
    """First n Taylor coefficients of 1 / sum_k d[k] t^k, d[0] != 0."""
    inv: list[complex] = []
    for k in range(n):
        acc = 1.0 if k == 0 else 0j
        for i in range(1, min(k, len(d) - 1) + 1):
            acc -= d[i] * inv[k - i]
        inv.append(acc / d[0])
    return np.array(inv, dtype=complex)


def _big(rows: np.ndarray, rel_tol: float) -> np.ndarray:
    """Entries above rel_tol times their row's largest magnitude: the
    significance rule of UniPoly.vanishing_order."""
    mag = np.abs(rows)
    return mag > rel_tol * mag.max(axis=1, keepdims=True)


@dataclass
class SiteRows:
    """Residues of num_r / den dt at one site, one entry per row r.

    Rows without a pole there carry order 0 and an exact 0j residue.
    """

    site: FiniteSiteMap | InfinitySiteMap
    order: np.ndarray
    residue: np.ndarray
    quadrature: np.ndarray | None = None
    quadrature_scale: np.ndarray | None = None

    def disagreement(self) -> np.ndarray:
        """ZeroSiteReport.backend_disagreement of every row; 0 without a pole."""
        if self.quadrature is None:
            return np.zeros(len(self.order))
        a, q = self.residue, self.quadrature
        floor = np.maximum(1e-6 * self.quadrature_scale, 1e-300)
        d = np.abs(a - q) / np.maximum(np.maximum(np.abs(a), np.abs(q)), floor)
        return np.where(self.order > 0, d, 0.0)

    def report(self, r: int) -> ZeroSiteReport:
        site, order = self.site, int(self.order[r])
        report = ZeroSiteReport(
            site.location, site.at_infinity, site.zero_multiplicity, order, complex(self.residue[r])
        )
        if order and self.quadrature is not None:
            report.residue_quadrature = complex(self.quadrature[r])
            report.quadrature_scale = float(self.quadrature_scale[r])
        return report


def _no_pole(site, rows: int) -> SiteRows:
    return SiteRows(site, np.zeros(rows, dtype=int), np.zeros(rows, dtype=complex))


class FiniteSiteMap:
    """Residues of num_r / den dt at a finite zero of the residue coordinate,
    for numerator rows of ``width`` coefficients; the batched _finite_site.

    The collision and multiplicity errors are decided here but raised by
    ``apply`` only when some row has a pole at the site.  ``nodes`` None
    skips the quadrature backend.
    """

    at_infinity = False

    def __init__(
        self,
        den: UniPoly,
        location: complex,
        zero_multiplicity: int,
        den_sites: list[tuple[complex, int]],
        width: int,
        guard: BinaryForm | None = None,
        nodes: int | None = None,
    ):
        self.location = location
        self.zero_multiplicity = zero_multiplicity
        self.order = order = _site_order(location, den_sites)
        self.guard = guard
        self.mismatch: PoleMismatchError | None = None
        self.contour = None
        if order == 0:
            return
        self.shift = None if location == 0 else _shift_matrix(location, width)
        den_sh = den.shifted(location).coeffs
        local = _local_multiplicity(den_sh)
        if local != order:
            self.mismatch = _mismatch(local, location, order)
            return
        # residue = sum_{i < order} num_sh[i] * inv[order - 1 - i]
        self.series = _reciprocal_series(den_sh[order:], order)[::-1]
        if nodes:
            radius = quadrature_radius(location, _other_poles(location, den_sites))
            self.contour = _Contour(radius, 0, 1, max(width, len(den_sh)), nodes)
            # num(loc + u) / den(loc + u) * u, both factors as shifted power sums
            self.factor = self.contour.u / self.contour.values(np.array(den_sh))

    def apply(self, num: np.ndarray, live: np.ndarray) -> SiteRows:
        if self.order == 0:
            return _no_pole(self, len(num))
        sh = num if self.shift is None else num @ self.shift
        has_pole = live & (np.argmax(_big(sh, 1e-9), axis=1) < self.order)
        if not has_pole.any():
            return _no_pole(self, len(num))
        if _guard_collides(self.guard, self.location):
            raise _collision(self.location)
        if self.mismatch is not None:
            raise self.mismatch
        residue = np.where(has_pole, sh[:, : self.order] @ self.series, 0j)
        rows = SiteRows(self, has_pole * self.order, residue)
        if self.contour is not None:
            rows.quadrature, rows.quadrature_scale = self.contour.trapezoid(sh, self.factor)
        return rows


class InfinitySiteMap:
    """Residues of num_r / den dt at [1:0] through u = 1/t, for numerator rows
    of ``width`` coefficients; the batched _infinity_site.

    With m = deg den and rev(u) = u^m den(1/u) vanishing to order v at u = 0,
    the chart at infinity g(u) = -sum_j num_j u^(m-2-j) / rev(u) has a pole
    iff the row's highest coefficient above 1e-9 of its scale sits above
    m - 2 - v, and its residue is -sum_j num_j inv_(j+v+1-m), inv the series
    of u^v / rev(u).  Neither depends on the row's degree n, which only sets
    the reported order v + max(n + 2 - m, 0).
    """

    at_infinity = True
    location = 0j

    def __init__(
        self,
        den: UniPoly,
        zero_multiplicity: int,
        den_sites: list[tuple[complex, int]],
        width: int,
        nodes: int | None = None,
    ):
        self.zero_multiplicity = zero_multiplicity
        self.m = m = den.degree
        rev = den.reversed_coeffs().coeffs
        self.rev_order = v = _local_multiplicity(rev)
        self.first = first = max(0, m - 1 - v)
        self.series = _reciprocal_series(rev[v:], width + v + 1 - m)[first + v + 1 - m :]
        self.contour = None
        if nodes:
            others = [1.0 / t for t, _ in den_sites if abs(t) > 1e-12]
            radius = quadrature_radius(0j, others)
            self.contour = _Contour(radius, m - 2, -1, max(width, m + 1), nodes)
            # g(u) u = -sum_j num_j u^(m-2-j) / (u sum_i den_i u^(m-2-i))
            self.factor = -1.0 / (self.contour.u * self.contour.values(np.array(den.coeffs)))

    def apply(self, num: np.ndarray, live: np.ndarray) -> SiteRows:
        top = num.shape[1] - 1
        top_big = top - np.argmax(_big(num, 1e-9)[:, ::-1], axis=1)
        has_pole = live & (top_big > self.m - 2 - self.rev_order)
        if not has_pole.any():
            return _no_pole(self, len(num))
        deg = top - np.argmax(num[:, ::-1] != 0, axis=1)
        order = has_pole * (self.rev_order + np.maximum(deg + 2 - self.m, 0))
        residue = np.where(has_pole, -(num[:, self.first :] @ self.series), 0j)
        rows = SiteRows(self, order, residue)
        if self.contour is not None:
            rows.quadrature, rows.quadrature_scale = self.contour.trapezoid(num, self.factor)
        return rows
