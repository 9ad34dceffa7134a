"""Built-in hypersurfaces, line families, null families, and references.

The Fermat quintic threefold carries fifty one-parameter families of lines:
ten choices of the coordinate pair (i, j) holding the slots (x, -zeta x)
times five fifth roots of unity zeta, the remaining three slots holding
(a y, b y, c y) with a^5 + b^5 + c^5 = 0 along the default path a = 1,
b = s, c = root5(-1 - s^5).

Two modes of the classical slice ship side by side:

* ``corrected``  -- x = (t, -zeta t, 1, s, root5(-1-s^5)) with analytic jets;
  containment-validated (F(x(t)) = t^5 - t^5 + 1 + s^5 - 1 - s^5 = 0).
* ``literal``    -- the widely quoted coordinate table taken at face value:
  x = (t, -zeta, 1, s, root5(-1-s^5)), jets y = (0,0,0,1,0).  It fails
  containment (F(x(t)) = t^5 - 1) and is kept so the discrepancy stays
  reproducible instead of hidden.

Catalog entries are addressable by stable string identifiers, e.g.
``fermat-line/pair=0,1/zeta=1/corrected``.
"""

from __future__ import annotations

import cmath
import re
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import CurveFamily, CurveJet, Hypersurface, mobius_deformation
from .multipoly import MultiPoly
from .numkernel.parser import continued_root5
from .numkernel.unipoly import BinaryForm

MODE_CORRECTED = "corrected"
MODE_LITERAL = "literal"

STANDARD_GEOMETRY_SAMPLES = (
    0j,
    0.05j,
    0.1 + 0j,
    0.2 * cmath.exp(1j * cmath.pi / 7),
    0.3 + 0j,
)

# period samples stay away from s = 0, where the slice's b-slot coordinate
# degenerates to the zero form (the jet there is a boundary case)
STANDARD_PERIOD_SAMPLES = tuple(
    (0.06 + 0.03 * k) * cmath.exp(2j * cmath.pi * k / 8) for k in range(8)
)


def zeta_value(zeta_index: int) -> complex:
    if not 0 <= zeta_index <= 4:
        raise ConfigError(f"zeta index must lie in 0..4, got {zeta_index}")
    return cmath.exp(2j * cmath.pi * zeta_index / 5)


def fermat_hypersurface(m: int = 3, d: int = 5) -> Hypersurface:
    """F = sum x_i^d in m+2 variables."""
    if m < 1 or d < 2:
        raise ConfigError(f"need m >= 1 and d >= 2, got (m, d) = ({m}, {d})")
    n = m + 2
    terms = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        terms[tuple(exps)] = 1.0
    return Hypersurface(MultiPoly(n, terms))


def shioda_quintic() -> Hypersurface:
    """x0^5 + x1 x2^4 + x2 x3^4 + x3 x4^4 + x4 x1^4, a cyclic quintic with
    only five monomials; useful for smoothness spot checks and scans."""
    terms = {
        (5, 0, 0, 0, 0): 1.0,
        (0, 1, 4, 0, 0): 1.0,
        (0, 0, 1, 4, 0): 1.0,
        (0, 0, 0, 1, 4): 1.0,
        (0, 4, 0, 0, 1): 1.0,
    }
    return Hypersurface(MultiPoly(5, terms))


def root5_neg1_minus_s5(s: complex) -> complex:
    """Branch-continued root5(-1 - s^5), anchored at the principal value at 0."""
    return continued_root5(lambda sig: -1.0 - sig**5, complex(s))


def d_root5_neg1_minus_s5(s: complex, w: complex) -> complex:
    """d/ds of w = root5(-1 - s^5): implicit differentiation gives -s^4 / w^4."""
    return -(s**4) / w**4


@dataclass(frozen=True)
class LineFamilyDescriptor:
    """One of the fifty line families: pair slots carry (x, -zeta x)."""

    pair: tuple[int, int]
    zeta_index: int

    def __post_init__(self):
        i, j = self.pair
        if not (0 <= i < j <= 4):
            raise ConfigError(f"pair must satisfy 0 <= i < j <= 4, got {self.pair}")
        if not 0 <= self.zeta_index <= 4:
            raise ConfigError(f"zeta index must lie in 0..4, got {self.zeta_index}")

    @property
    def identifier(self) -> str:
        i, j = self.pair
        return f"fermat-line/pair={i},{j}/zeta={self.zeta_index}/{MODE_CORRECTED}"

    def abc_at(self, s: complex) -> tuple[complex, complex, complex]:
        """Default path on a^5 + b^5 + c^5 = 0: (1, s, root5(-1-s^5))."""
        return (1.0 + 0j, complex(s), root5_neg1_minus_s5(s))

    def abc_path_residual(self, s: complex) -> float:
        a, b, c = self.abc_at(s)
        return abs(a**5 + b**5 + c**5)

    def family(self, mode: str = MODE_CORRECTED) -> CurveFamily:
        return line_family(self.pair, self.zeta_index, mode)

    def monomial_period(self, exponents, s: complex) -> complex:
        """Period of the monomial class with these exponents on the corrected
        family at s, by ROADMAP item 1's identity, which is measured on every
        catalog scan cell, not derived: with slots a < b < c holding 1, s and
        c = root5(-1 - s^5), it is (6/25) (-1)^(i+j) zeta c^-4 [t^3] P(x(t)),
        and [t^3] P(x(t)) is (-zeta)^e_j s^e_b c^e_c when e_i + e_j = 3 for
        the pair (i, j), else exactly 0."""
        (i, j), zeta = self.pair, zeta_value(self.zeta_index)
        _, b, c_slot = [k for k in range(5) if k not in self.pair]
        if exponents[i] + exponents[j] != 3:
            return 0j
        c = root5_neg1_minus_s5(s)
        kappa = 6 / 25 * (-1) ** (i + j) * zeta * c**-4
        return kappa * (-zeta) ** exponents[j] * s ** exponents[b] * c ** exponents[c_slot]


def line_families() -> list[LineFamilyDescriptor]:
    """All fifty descriptors: 10 coordinate pairs x 5 roots of unity."""
    out = []
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(5):
                out.append(LineFamilyDescriptor((i, j), k))
    return out


def line_family(pair: tuple[int, int], zeta_index: int, mode: str = MODE_CORRECTED) -> CurveFamily:
    """Line family with the (x, -zeta x) slots at ``pair``.

    corrected mode: slots pair=(i, j) hold x and -zeta x, the remaining
    slots hold a y, b y, c y along the default path; jets are analytic.
    literal mode: slot j holds -zeta y instead (the classical table), jets
    are the constant direction into the b slot.  The pair obeys the
    descriptor's rule 0 <= i < j <= 4.
    """
    if mode not in (MODE_CORRECTED, MODE_LITERAL):
        raise ConfigError(f"unknown line-family mode {mode!r}")
    i, j = LineFamilyDescriptor(tuple(pair), zeta_index).pair
    zeta = zeta_value(zeta_index)
    rest = [k for k in range(5) if k not in (i, j)]
    a_slot, b_slot, c_slot = rest

    x_form = BinaryForm(1, (0.0, 1.0))  # x
    y_form = BinaryForm(1, (1.0, 0.0))  # y
    zero = BinaryForm(1, (0.0, 0.0))

    def jet(s: complex) -> CurveJet:
        w = root5_neg1_minus_s5(s)
        x = [zero] * 5
        y = [zero] * 5
        x[i] = x_form
        x[a_slot] = y_form
        x[b_slot] = complex(s) * y_form
        x[c_slot] = w * y_form
        if mode == MODE_CORRECTED:
            x[j] = (-zeta) * x_form
            y[b_slot] = y_form
            y[c_slot] = d_root5_neg1_minus_s5(s, w) * y_form
        else:
            x[j] = (-zeta) * y_form
            y[b_slot] = y_form
        return CurveJet(complex(s), tuple(x), tuple(y), 1)

    name = f"fermat-line/pair={i},{j}/zeta={zeta_index}/{mode}"
    return CurveFamily(name=name, jet_fn=jet)


def paper_line_slice(zeta_index: int, mode: str = MODE_CORRECTED) -> CurveFamily:
    """The classical slice: pair (0, 1), slots (1, s, root5(-1-s^5))."""
    return line_family((0, 1), zeta_index, mode)


@dataclass(frozen=True)
class ClosedFormRef:
    """Reference g(s) = root5(-1-s^5)/zeta^2 + zeta^3/root5(-1-s^5)^4."""

    zeta: complex

    def __post_init__(self):
        if abs(self.zeta**5 - 1.0) > 1e-12:
            raise ConfigError(f"zeta^5 must equal 1, got zeta = {self.zeta}")

    def __call__(self, s: complex) -> complex:
        return closed_form_g(s, self)


def closed_form_g(s: complex, ref: ClosedFormRef) -> complex:
    """Evaluate the closed-form reference with the branch anchored at s=0."""
    w = root5_neg1_minus_s5(s)
    return w / ref.zeta**2 + ref.zeta**3 / w**4


# ---------------------------------------------------------------------------
# null families (pure reparametrization deformations)


def mobius_null_family(zeta_index: int, seed: int) -> CurveFamily:
    """Moebius-deformation family on the corrected slice curve at s = 0.1.

    The path is identity + s * (seeded complex 2x2 direction, entries of
    size about 0.3); its image curve never moves, so every pair integrand
    vanishes identically.
    """
    import numpy as np

    base_s, amplitude = 0.1 + 0j, 0.3
    rng = np.random.default_rng(0xC0FFEE + 1000 * zeta_index + seed)
    g = rng.standard_normal(8)
    direction = tuple(amplitude * complex(g[2 * k], g[2 * k + 1]) for k in range(4))
    base_jet = paper_line_slice(zeta_index, MODE_CORRECTED).jet_at(base_s)
    name = f"mobius-null/zeta={zeta_index}/seed={seed}"
    return mobius_deformation(base_jet.x, direction, name=name)


# ---------------------------------------------------------------------------
# stored conic relations


def mustata_conic_equations() -> list[MultiPoly]:
    """The five stored conic-family relations in (x0..x4, a, b, c).

    Variables are ordered x0, x1, x2, x3, x4, a, b, c (indices 0..7):

        a^2 (x0 + x1) - b^2 (x2 + x3)       = 0
        b x4 - c (x0 + x1)                  = 0
        b (x0^2 + x1^2) - i a (x2^2 + x3^2) = 0
        b (x0^2 + x1^2) + i a (x2^2 + x3^2) = 0   (the other sign branch)
        a^10 + b^10 - 4 b^5 c^5             = 0   (parameter relation)

    Stored as validation data; no parametrization is constructed here.
    """
    n = 8
    x = [MultiPoly.variable(n, i) for i in range(5)]
    a = MultiPoly.variable(n, 5)
    b = MultiPoly.variable(n, 6)
    c = MultiPoly.variable(n, 7)
    eq1 = a * a * (x[0] + x[1]) - b * b * (x[2] + x[3])
    eq2 = b * x[4] - c * (x[0] + x[1])
    quad_x = x[0] * x[0] + x[1] * x[1]
    quad_y = x[2] * x[2] + x[3] * x[3]
    eq3 = b * quad_x - (1j * a) * quad_y
    eq4 = b * quad_x + (1j * a) * quad_y
    eq5 = a**10 + b**10 - 4.0 * (b**5 * c**5)
    return [eq1, eq2, eq3, eq4, eq5]


def mustata_residuals(point: dict[str, complex]) -> list[float]:
    """|relation| at a point given as {x0..x4, a, b, c}."""
    order = ["x0", "x1", "x2", "x3", "x4", "a", "b", "c"]
    vec = [complex(point[k]) for k in order]
    return [abs(eq.evaluate(vec)) for eq in mustata_conic_equations()]


# ---------------------------------------------------------------------------
# identifier registry


def catalog_entries() -> dict[str, list[str]]:
    """Stable identifiers, grouped; deterministic order."""
    return {
        "hypersurfaces": ["fermat/m=3,d=5", "shioda-quintic"],
        "line-families": [d.identifier for d in line_families()],
        "null-families": [f"mobius-null/zeta={k}/seed=0" for k in range(5)],
    }


@contextmanager
def _naming(identifier: str, field: str):
    """A ConfigError raised inside names the identifier and the config field
    it came from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {identifier!r}", field) from None


def resolve_hypersurface(identifier: str) -> Hypersurface:
    ident = identifier.strip()
    if ident == "shioda-quintic":
        return shioda_quintic()
    m = re.fullmatch(r"fermat/m=(\d+),d=(\d+)", ident)
    if m:
        with _naming(identifier, "hypersurface"):
            return fermat_hypersurface(int(m.group(1)), int(m.group(2)))
    raise ConfigError(f"unknown hypersurface identifier {identifier!r}", "hypersurface")


def resolve_family(identifier: str) -> CurveFamily:
    ident = identifier.strip()
    m = re.fullmatch(r"fermat-line/pair=(\d),(\d)/zeta=(\d)/(corrected|literal)", ident)
    if m:
        with _naming(identifier, "family"):
            return line_family((int(m.group(1)), int(m.group(2))), int(m.group(3)), m.group(4))
    m = re.fullmatch(r"mobius-null/zeta=(\d)/seed=(\d+)", ident)
    if m:
        with _naming(identifier, "family"):
            return mobius_null_family(int(m.group(1)), int(m.group(2)))
    raise ConfigError(f"unknown family identifier {identifier!r}", "family")
