"""Hypersurfaces, curve jets, and first-order family machinery.

A curve of degree D in projective (m+1)-space is a list of m+2 binary forms
of degree D; its first-order deformation data at a parameter value s is the
jet (s; x; y) with y = dx/ds.  Containment and tangency are reported as
normalized residuals rather than asserted, so broken inputs are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DegenerateMapError, DimensionMismatchError
from .multipoly import MultiPoly
from .numkernel.unipoly import BinaryForm, UniPoly

EULER_REL_TOL = 1e-12


class Hypersurface:
    """Smooth degree-d hypersurface {F = 0} in P^(m+1), F homogeneous.

    Partial derivatives are cached; the Euler identity
    sum_i x_i F_i = d F is validated at construction.
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

    def x_chart(self) -> list[UniPoly]:
        return [f.dehomogenized() for f in self.x]

    def y_chart(self) -> list[UniPoly]:
        return [f.dehomogenized() for f in self.y]

    def x_derivative_chart(self) -> list[UniPoly]:
        return [f.derivative_chart() for f in self.x]

    def coordinate_scale(self) -> float:
        return max(f.scale() for f in self.x)


@dataclass
class CurveFamily:
    """Named family s -> CurveJet with free-form metadata."""

    name: str
    jet_fn: Callable[[complex], CurveJet]
    metadata: dict = field(default_factory=dict)

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

    def is_identity(self) -> bool:
        tol = 1e-10
        return (
            abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.a - self.d) <= tol * max(abs(self.a), 1.0)
        )

    def __call__(self, t: complex) -> complex:
        den = self.c * t + self.d
        if den == 0:
            raise ZeroDivisionError("Moebius image at a pole of the map")
        return (self.a * t + self.b) / den


def transform_jet(jet: CurveJet, A: MobiusMap) -> CurveJet:
    """Reparametrize the source line: substitute (x,y) -> A(x,y) in all forms."""
    x = tuple(f.substituted(A.a, A.b, A.c, A.d) for f in jet.x)
    y = tuple(f.substituted(A.a, A.b, A.c, A.d) for f in jet.y)
    return CurveJet(jet.s, x, y, jet.d_curve)


def mobius_reparam(fam: CurveFamily, A: MobiusMap) -> CurveFamily:
    """Family with t replaced by A(t) in every jet (both charts handled by
    the form substitution)."""
    return CurveFamily(
        name=f"{fam.name}|reparam",
        jet_fn=lambda s: transform_jet(fam.jet_at(s), A),
        metadata={**fam.metadata, "reparam": (A.a, A.b, A.c, A.d)},
    )


def _path_generator(path: Callable[[complex], MobiusMap], s: complex):
    """G = M'(s) M(s)^(-1) by central differences; scale-invariant part only."""
    h = 1e-6
    Mp = path(s + h)
    Mm = path(s - h)
    da = (Mp.a - Mm.a) / (2 * h)
    db = (Mp.b - Mm.b) / (2 * h)
    dc = (Mp.c - Mm.c) / (2 * h)
    dd = (Mp.d - Mm.d) / (2 * h)
    M = path(s)
    det = M.det
    # [[da,db],[dc,dd]] @ inverse(M), inverse unnormalized then divided by det
    g11 = (da * M.d - db * M.c) / det
    g12 = (-da * M.b + db * M.a) / det
    g21 = (dc * M.d - dd * M.c) / det
    g22 = (-dc * M.b + dd * M.a) / det
    return g11, g12, g21, g22


def mobius_deformation(
    base: Sequence[BinaryForm],
    path: Callable[[complex], MobiusMap],
    name: str = "mobius-deformation",
) -> CurveFamily:
    """Family x_i(s, t) = x_i(path(s)(t)) with analytic first-order jets.

    The jet at parameter s uses the incremental path sigma -> M_{s+sigma}
    composed with M_s^(-1) (identity at sigma = 0), so y_i = x_i'(t) * mu(t)
    with mu the s-derivative of the Moebius image:
    mu(t) = -g21 t^2 + (g11 - g22) t + g12 for the path generator G.
    Such reparametrizations fix the image cycle, so every wedge
    x_a' y_b - x_b' y_a vanishes identically.
    """
    base = tuple(base)
    d_curve = base[0].degree
    if any(f.degree != d_curve for f in base):
        raise DimensionMismatchError("base coordinates must share one degree")
    M0 = path(0j)
    if not M0.is_identity():
        raise DegenerateMapError("deformation path must start at the identity map")

    def jet(s: complex) -> CurveJet:
        Ms = path(s)
        x = tuple(f.substituted(Ms.a, Ms.b, Ms.c, Ms.d) for f in base)
        g11, g12, g21, g22 = _path_generator(path, s)
        mu = UniPoly([g12, g11 - g22, -g21])
        y = tuple(
            BinaryForm.from_unipoly(f.derivative_chart() * mu, d_curve + 1) for f in x
        )
        return CurveJet(s, x, y, d_curve)

    return CurveFamily(name=name, jet_fn=jet, metadata={"kind": "mobius-null"})


def family_from_charts(
    name: str,
    coords_at: Callable[[complex], Sequence[UniPoly]],
    d_curve: int,
    jets_at: Callable[[complex], Sequence[UniPoly]] | None = None,
    fd_step: float = 1e-5,
    metadata: dict | None = None,
) -> CurveFamily:
    """Family from chart polynomials; jets analytic if given, else central
    finite differences in s with the declared step.

    Finite-difference jets carry a Richardson consistency check: the step-h
    and step-h/2 estimates must agree to 1e-4 relative (the gap shrinks like
    h^2 for holomorphic coordinates), otherwise the jet data is unreliable
    and a ValueError is raised.
    """

    def fd_jets(s: complex, h: float) -> list[UniPoly]:
        plus = coords_at(s + h)
        minus = coords_at(s - h)
        return [(p - m) * (0.5 / h) for p, m in zip(plus, minus)]

    def jet(s: complex) -> CurveJet:
        xs = [BinaryForm.from_unipoly(p, d_curve) for p in coords_at(s)]
        if jets_at is not None:
            ys_poly = list(jets_at(s))
        else:
            ys_poly = fd_jets(s, fd_step)
            half = fd_jets(s, 0.5 * fd_step)
            gap = max((a - b).scale() for a, b in zip(ys_poly, half))
            scale = max(max(p.scale() for p in ys_poly), 1e-30)
            if gap > 1e-4 * scale:
                raise ValueError(
                    f"finite-difference jets inconsistent at s = {s}: halving "
                    f"the step moved them by {gap / scale:.2e} relative "
                    "(tolerance 1.0e-04); coordinates may not be "
                    "holomorphic in s"
                )
        ys = [BinaryForm.from_unipoly(p, d_curve) for p in ys_poly]
        return CurveJet(s, tuple(xs), tuple(ys), d_curve)

    return CurveFamily(name=name, jet_fn=jet, metadata=metadata or {})


def fd_jet_discrepancy(
    coords_at: Callable[[complex], Sequence[UniPoly]],
    jets_at: Callable[[complex], Sequence[UniPoly]],
    s: complex,
    h: float,
) -> float:
    """max coefficient gap between analytic jets and central differences."""
    plus = coords_at(s + h)
    minus = coords_at(s - h)
    gap = 0.0
    for an, p, m in zip(jets_at(s), plus, minus):
        fd = (p - m) * (0.5 / h)
        gap = max(gap, (an - fd).scale())
    return gap


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
