"""Hypersurfaces, curve jets, and first-order family machinery.

A curve of degree D in projective (m+1)-space is a list of m+2 binary forms
of degree D; its first-order deformation data at a parameter value s is the
jet (s; x; y) with y = dx/ds.  Containment and tangency are reported as
normalized residuals rather than asserted, so broken inputs are measurable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import DegenerateMapError, DimensionMismatchError
from .multipoly import MultiPoly
from .numkernel.unipoly import BinaryForm, UniPoly

EULER_REL_TOL = 1e-12
# keys of a hypersurface's line data, marks included: room for what the
# s-independent slots of all 50 Fermat line families use (33 keys) while
# the moving slots pass through as marks.  Twice the size cost 2-3% of the
# time of workloads whose lines never repeat, which only fill it and empty
# it again.  The site plans of all 50 families' periods and scans take 20
# keys.
LINE_DATA_SIZE = 64
# the entry of a key computed once, which keeps no value
_MARK = object()


class LineData:
    """A store of at most ``LINE_DATA_SIZE`` keys that keeps a value from
    its key's second compute.  The first compute of a key that returns
    leaves a mark and keeps no value; the next keeps its value, and a kept
    key is read without computing.  A compute that raises stores nothing.
    Above ``LINE_DATA_SIZE`` keys, marks included, the least recently used
    one goes.  So a line that never repeats keeps nothing: kept, each new
    value would be read again from memory last touched many samples
    before, which costs more than the computing it saves."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, compute: Callable[[], object]):
        """The value kept for ``key``, or ``compute()``."""
        value = self._entries.get(key)
        if value is None:
            value = compute()
            self._entries[key] = _MARK
            if len(self._entries) > LINE_DATA_SIZE:
                self._entries.popitem(last=False)
            return value
        if value is _MARK:
            value = self._entries[key] = compute()
        self._entries.move_to_end(key)
        return value

    def clear(self) -> None:
        self._entries.clear()


class Hypersurface:
    """Smooth degree-d hypersurface {F = 0} in P^(m+1), F homogeneous.

    Partial derivatives are cached; the Euler identity
    sum_i x_i F_i = d F is validated at construction.  ``line_data`` holds
    what the period assembly reads of the partials along a line, keyed by
    the exact coefficients of the coordinate charts it depends on, so lines
    that share a coordinate share it across samples, while the moving slots
    pass through as marks.  ``site_plans`` holds the period assembly's site
    plans, keyed by the exact inputs each is planned from.  Both are
    ``LineData``, which says what they keep.
    """

    def __init__(self, F: MultiPoly):
        if F.is_zero():
            raise ValueError("hypersurface polynomial must be nonzero")
        if not F.is_homogeneous():
            raise ValueError("hypersurface polynomial must be homogeneous")
        self.F = F
        self.nvars = F.nvars
        self.degree = F.total_degree()
        self.partials = [F.partial(i) for i in range(self.nvars)]
        # the coordinates each partial depends on, in order
        self.partial_coords = [
            tuple(sorted({i for exps in Fi.terms for i, e in enumerate(exps) if e}))
            for Fi in self.partials
        ]
        self.line_data = LineData()
        self.site_plans = LineData()
        err = self.euler_residual()
        if err > EULER_REL_TOL * max(self.F.scale(), 1e-300) * self.degree:
            raise ValueError(f"Euler identity violated (residual {err:.3e})")

    @property
    def m(self) -> int:
        """Dimension of the hypersurface itself."""
        return self.nvars - 2

    def euler_residual(self) -> float:
        acc = MultiPoly.zero(self.nvars)
        for i, Fi in enumerate(self.partials):
            acc = acc + MultiPoly.variable(self.nvars, i) * Fi
        diff = acc - self.F * float(self.degree)
        return diff.scale()

    def gradient_at(self, point: Sequence[complex]) -> list[complex]:
        return [Fi.evaluate(point) for Fi in self.partials]


@dataclass(frozen=True)
class CurveJet:
    """First-order data (s; x_0..x_{m+1}; y_0..y_{m+1}) of a curve family.

    All x_i share the degree d_curve; all y_i share one common degree, which
    is d_curve for plain families and d_curve+1 for Moebius-deformation jets.
    """

    s: complex
    x: tuple[BinaryForm, ...]
    y: tuple[BinaryForm, ...]
    d_curve: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise DimensionMismatchError("x and y lists have different lengths")
        if not self.x:
            raise DimensionMismatchError("empty coordinate list")
        if any(f.degree != self.d_curve for f in self.x):
            raise DimensionMismatchError("x coordinates must all have degree d_curve")
        ydegs = {f.degree for f in self.y}
        if len(ydegs) > 1:
            raise DimensionMismatchError("y coordinates must share one degree")
        if all(f.is_zero() for f in self.x):
            raise ValueError("curve coordinates are all identically zero")

    @property
    def ncoords(self) -> int:
        return len(self.x)

    @cached_property
    def _charts(self) -> tuple[tuple[UniPoly, ...], ...]:
        """The y = 1 charts of x and y and the t-derivatives of x's, built
        once per jet and shared by every consumer."""
        x = tuple(f.dehomogenized() for f in self.x)
        return x, tuple(f.dehomogenized() for f in self.y), tuple(p.derivative() for p in x)

    def x_chart(self) -> tuple[UniPoly, ...]:
        return self._charts[0]

    def y_chart(self) -> tuple[UniPoly, ...]:
        return self._charts[1]

    def x_derivative_chart(self) -> tuple[UniPoly, ...]:
        return self._charts[2]

    def coordinate_scale(self) -> float:
        return max(f.scale() for f in self.x)


@dataclass
class CurveFamily:
    """Named family s -> CurveJet."""

    name: str
    jet_fn: Callable[[complex], CurveJet]

    def jet_at(self, s: complex) -> CurveJet:
        jet = self.jet_fn(complex(s))
        if abs(jet.s - complex(s)) > 1e-12 * (1.0 + abs(s)):
            raise ValueError(f"family {self.name!r} returned a jet at {jet.s}, asked {s}")
        return jet


def _check_dims(X: Hypersurface, jet: CurveJet) -> None:
    if jet.ncoords != X.nvars:
        raise DimensionMismatchError(
            f"curve has {jet.ncoords} coordinates, hypersurface expects {X.nvars}"
        )


def containment_residual(X: Hypersurface, jet: CurveJet) -> float:
    """max |coefficient| of F(x(t)), normalized by scale(F) * scale(x)^d.

    Zero (to rounding) iff the curve lies on X.
    """
    _check_dims(X, jet)
    comp = X.F.compose_unipoly(jet.x_chart())
    norm = max(X.F.scale(), 1e-300) * max(jet.coordinate_scale(), 1e-300) ** X.degree
    return comp.scale() / norm


def tangency_residual(X: Hypersurface, jet: CurveJet) -> float:
    """max |coefficient| of sum_i y_i(t) F_i(x(t)), normalized.

    Zero iff the jet direction is tangent to X along the curve to first
    order in s.
    """
    _check_dims(X, jet)
    xs = jet.x_chart()
    acc = UniPoly.zero()
    for yi, Fi in zip(jet.y_chart(), X.partials):
        if yi.is_zero():
            continue
        acc = acc + yi * Fi.compose_unipoly(xs)
    y_scale = max((f.scale() for f in jet.y), default=0.0)
    partial_scale = max(Fi.scale() for Fi in X.partials)
    norm = (
        max(partial_scale, 1e-300)
        * max(jet.coordinate_scale(), 1e-300) ** (X.degree - 1)
        * max(y_scale, 1e-300)
    )
    return acc.scale() / norm


# ---------------------------------------------------------------------------
# Moebius machinery


@dataclass(frozen=True)
class MobiusMap:
    """t -> (a t + b) / (c t + d), acting on forms through (x,y) -> (ax+by, cx+dy)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.det) < 1e-14 * max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1e-30) ** 2:
            raise DegenerateMapError(f"map determinant {self.det:.3e} vanishes")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c


def transform_jet(jet: CurveJet, A: MobiusMap) -> CurveJet:
    """Reparametrize the source line: substitute (x,y) -> A(x,y) in all forms."""
    x = tuple(f.substituted(A.a, A.b, A.c, A.d) for f in jet.x)
    y = tuple(f.substituted(A.a, A.b, A.c, A.d) for f in jet.y)
    return CurveJet(jet.s, x, y, jet.d_curve)


def mobius_reparam(fam: CurveFamily, A: MobiusMap) -> CurveFamily:
    """Family with t replaced by A(t) in every jet (both charts handled by
    the form substitution)."""
    return CurveFamily(f"{fam.name}|reparam", lambda s: transform_jet(fam.jet_at(s), A))


def mobius_deformation(
    base: Sequence[BinaryForm],
    direction: tuple[complex, complex, complex, complex],
    name: str = "mobius-deformation",
) -> CurveFamily:
    """Family x_i(s, t) = x_i(M_s(t)) along M_s = 1 + s D, with exact jets.

    D = (alpha, beta, gamma, delta) is the path's direction, so M_s is the
    map (1 + s alpha, s beta, s gamma, 1 + s delta), the identity at s = 0.
    The jet at s uses the incremental path sigma -> M_{s+sigma} M_s^(-1),
    whose generator is G = D M_s^(-1); so y_i = x_i'(t) * mu(t) with mu the
    s-derivative of the Moebius image: mu(t) = -g21 t^2 + (g11 - g22) t + g12.
    The charts' s-derivative is y plus one common multiple of x (the forms'
    rescaling), which no wedge sees.  Such reparametrizations fix the image cycle, so every wedge
    x_a' y_b - x_b' y_a vanishes identically.
    """
    base = tuple(base)
    d_curve = base[0].degree
    if any(f.degree != d_curve for f in base):
        raise DimensionMismatchError("base coordinates must share one degree")
    alpha, beta, gamma, delta = direction

    def jet(s: complex) -> CurveJet:
        M = MobiusMap(1.0 + s * alpha, s * beta, s * gamma, 1.0 + s * delta)
        x = tuple(f.substituted(M.a, M.b, M.c, M.d) for f in base)
        # G = D @ inverse(M), the inverse unnormalized then divided by det
        det = M.det
        g11 = (alpha * M.d - beta * M.c) / det
        g12 = (-alpha * M.b + beta * M.a) / det
        g21 = (gamma * M.d - delta * M.c) / det
        g22 = (-gamma * M.b + delta * M.a) / det
        mu = UniPoly([g12, g11 - g22, -g21])
        y = tuple(
            BinaryForm.from_unipoly(f.derivative_chart() * mu, d_curve + 1) for f in x
        )
        return CurveJet(s, x, y, d_curve)

    return CurveFamily(name=name, jet_fn=jet)


def family_from_charts(
    name: str,
    charts_at: Callable[[complex], tuple[Sequence[UniPoly], Sequence[UniPoly]]],
    d_curve: int,
) -> CurveFamily:
    """Family from chart polynomials: at each s, ``charts_at(s)`` gives the
    coordinates and their s-derivatives, both as polynomials in t of degree
    at most d_curve."""

    def jet(s: complex) -> CurveJet:
        coords, derivatives = charts_at(s)
        xs = tuple(BinaryForm.from_unipoly(p, d_curve) for p in coords)
        ys = tuple(BinaryForm.from_unipoly(p, d_curve) for p in derivatives)
        return CurveJet(s, xs, ys, d_curve)

    return CurveFamily(name=name, jet_fn=jet)


# ---------------------------------------------------------------------------
# smoothness spot checks


@dataclass(frozen=True)
class SpotCheckEntry:
    point: tuple[complex, ...]
    on_surface_residual: float
    gradient_max: float
    singular: bool


@dataclass(frozen=True)
class SpotCheckReport:
    entries: tuple[SpotCheckEntry, ...]

    @property
    def failures(self) -> list[SpotCheckEntry]:
        return [e for e in self.entries if e.singular]

    @property
    def all_smooth(self) -> bool:
        return not self.failures


def smooth_spot_check(X: Hypersurface, points: Sequence[Sequence[complex]]) -> SpotCheckReport:
    """Check that the gradient of F does not vanish at the given points of X.

    Not a smoothness proof; a sampled diagnostic.  Points are flagged
    singular when max_i |F_i| <= 1e-8 * scale at the point.
    """
    entries = []
    for pt in points:
        pt = tuple(complex(v) for v in pt)
        if len(pt) != X.nvars:
            raise DimensionMismatchError("point dimension mismatch")
        height = max(max(abs(v) for v in pt), 1e-300)
        fval = abs(X.F.evaluate(pt)) / (max(X.F.scale(), 1e-300) * height**X.degree)
        grads = [abs(g) for g in X.gradient_at(pt)]
        gscale = max(Fi.scale() for Fi in X.partials) * height ** (X.degree - 1)
        gmax = max(grads)
        entries.append(SpotCheckEntry(pt, fval, gmax, gmax <= 1e-8 * gscale))
    return SpotCheckReport(tuple(entries))
