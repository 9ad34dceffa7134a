"""Residue-cocycle calculus on the Jacobian covering.

The class of P Omega / F^(q+1) restricts to the covering {F_j != 0} as a
degree-q cochain whose piece at J = (j_0 < ... < j_q) is

    (-1)^m / q!  *  P * Omega_J / (F_{j_0} ... F_{j_q}),

where Omega_J is the iterated interior product of the projective volume form
Omega = sum_i (-1)^i x_i dx_0 ^ ... ^ (omit dx_i) ^ ... ^ dx_{m+1} along the
coordinate directions in J.  Omega_J collapses to

    (-1)^(j_0 + ... + j_q + C(q+2, 2)) * sum_l (-1)^l x_{k_l} (complement wedge),

with (k_0 < ... < k_{m-q}) the complementary indices.  ``contract_bruteforce``
performs the interior products literally on wedge monomials and is the oracle
for the closed-form sign.

For five coordinates and q = 1 the period pairing of a first-order curve
family reduces to per-pair rational integrands in the line coordinate t; the
J-dependent contraction sign stays attached to each pair (it is not a global
constant and flipping it changes the assembled period), while the
J-independent normalization (-1)^m / q!, the constant relating Fermat
partials to pure powers, and all 2*pi*i factors are absorbed into one global
constant: reported periods are unnormalized and all downstream comparisons
are projective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BaseLocusCollisionError,
    DegreeError,
    DimensionMismatchError,
    IndexSelectionError,
    UnsupportedShapeError,
)
from .geometry import CurveJet, Hypersurface
from .multipoly import MultiPoly
from .numkernel.residues import RationalFunction
from .numkernel.unipoly import UniPoly


def j2star(j2: int, j0: int, j1: int, n_coords: int) -> int:
    """Rank of j2 in 0..n_coords-1 with j0, j1 removed (counting from zero)."""
    trio = (j0, j1, j2)
    if len(set(trio)) != 3:
        raise IndexSelectionError(f"indices must be distinct, got {trio}")
    if any(j < 0 or j >= n_coords for j in trio):
        raise IndexSelectionError(f"index out of range 0..{n_coords - 1}: {trio}")
    return sum(1 for k in range(n_coords) if k not in (j0, j1) and k < j2)


@dataclass(frozen=True)
class ContractionResult:
    """Sign and complement of an iterated interior product."""

    sign: int
    complement: tuple[int, ...]
    J: tuple[int, ...]


def _validate_J(J, m: int) -> tuple[int, ...]:
    J = tuple(int(j) for j in J)
    if not J:
        raise IndexSelectionError("J must be nonempty")
    if len(J) > m + 1:
        # contracting the (m+1)-form more than m+1 times kills it outright
        raise IndexSelectionError(f"|J| = {len(J)} exceeds m+1 = {m + 1}; the form vanishes")
    if any(j < 0 or j > m + 1 for j in J):
        raise IndexSelectionError(f"indices must lie in 0..{m + 1}: {J}")
    if any(a >= b for a, b in zip(J, J[1:])):
        raise IndexSelectionError(f"J must be strictly increasing: {J}")
    return J


def contraction_sign(J, m: int) -> ContractionResult:
    """Closed-form sign (-1)^(sum J + C(q+2,2)) with the sorted complement."""
    J = _validate_J(J, m)
    q = len(J) - 1
    sign = -1 if (sum(J) + math.comb(q + 2, 2)) % 2 else 1
    complement = tuple(k for k in range(m + 2) if k not in J)
    return ContractionResult(sign, complement, J)


def contract_bruteforce(J, m: int) -> ContractionResult:
    """Literal iterated interior product of the volume form; sign oracle.

    Represents Omega as signed wedge monomials, applies the interior
    products innermost-first, and reads off the overall sign against the
    canonical complement expansion sum_l (-1)^l x_{k_l} (wedge omitting
    dx_{k_l}).
    """
    J = _validate_J(J, m)
    n = m + 2
    # terms: {(x_index, dx_tuple): coefficient}
    terms: dict[tuple[int, tuple[int, ...]], int] = {}
    for i in range(n):
        dxs = tuple(k for k in range(n) if k != i)
        terms[(i, dxs)] = 1 if i % 2 == 0 else -1

    for j in J:  # innermost contraction first
        new_terms: dict[tuple[int, tuple[int, ...]], int] = {}
        for (i, dxs), coeff in terms.items():
            if j not in dxs:
                continue
            pos = dxs.index(j)
            reduced = dxs[:pos] + dxs[pos + 1 :]
            sgn = 1 if pos % 2 == 0 else -1
            key = (i, reduced)
            new_terms[key] = new_terms.get(key, 0) + coeff * sgn
        terms = {k: v for k, v in new_terms.items() if v != 0}

    complement = tuple(k for k in range(n) if k not in J)
    overall: int | None = None
    expected = {}
    for l, k in enumerate(complement):
        dxs = tuple(c for c in complement if c != k)
        expected[(k, dxs)] = 1 if l % 2 == 0 else -1
    if set(terms) != set(expected):
        raise AssertionError(f"contraction of J={J} lost canonical structure")
    for key, canon in expected.items():
        ratio = terms[key] // canon
        if overall is None:
            overall = ratio
        elif overall != ratio:
            raise AssertionError(f"inconsistent contraction signs for J={J}")
    assert overall in (1, -1)
    return ContractionResult(overall, complement, J)


# ---------------------------------------------------------------------------
# cocycle of the residue class


@dataclass(frozen=True)
class CocyclePiece:
    coefficient: complex
    numerator: MultiPoly
    denominator_indices: tuple[int, ...]
    form_indices: ContractionResult

    @property
    def weight(self) -> int:
        """Homogeneity weight: numerator degree plus the contracted form's
        own weight (one coefficient degree plus m-q wedge slots)."""
        m = len(self.denominator_indices) + len(self.form_indices.complement) - 2
        q = len(self.denominator_indices) - 1
        return self.numerator.total_degree() + (m + 1 - q)


@dataclass(frozen=True)
class CechCocycle:
    q: int
    pieces: dict[tuple[int, ...], CocyclePiece]


def required_degree(d: int, m: int, q: int) -> int:
    return d * (q + 1) - m - 2


def residue_cocycle(P: MultiPoly, X: Hypersurface, q: int) -> CechCocycle:
    """All covering pieces of the residue class of P Omega / F^(q+1).

    Parameters
    ----------
    P : MultiPoly
        Homogeneous of degree d(q+1) - m - 2.
    X : Hypersurface
    q : int
        Cochain degree, 0 <= q <= m.
    """
    m = X.m
    if not 0 <= q <= m:
        raise DegreeError(f"q must lie in 0..{m}, got {q}")
    if P.nvars != X.nvars:
        raise DimensionMismatchError("P and X variable counts differ")
    want = required_degree(X.degree, m, q)
    if P.is_zero() or not P.is_homogeneous() or P.total_degree() != want:
        raise DegreeError(
            f"P must be homogeneous of degree {want} for (d, m, q) = "
            f"({X.degree}, {m}, {q}); got degree {P.total_degree()}"
        )
    global_coeff = (-1.0 if m % 2 else 1.0) / math.factorial(q)
    pieces = {}
    for J in _increasing_tuples(m + 2, q + 1):
        contr = contraction_sign(J, m)
        pieces[J] = CocyclePiece(
            coefficient=global_coeff * contr.sign,
            numerator=P,
            denominator_indices=J,
            form_indices=contr,
        )
    return CechCocycle(q, pieces)


def _increasing_tuples(n: int, k: int):
    import itertools

    return itertools.combinations(range(n), k)


# ---------------------------------------------------------------------------
# Gauss-Manin monomial derivative rule


def gm_monomial_derivative(
    P: MultiPoly, k: int, beta: tuple[int, ...], d: int = 5, n: int = 1
) -> tuple[MultiPoly, int]:
    """Derivative rule for pole order k along the monomial direction x^beta.

    Moving F along F + t x^beta sends the class of P / F^k to that of
    -k x^beta P / F^(k+1); degree bookkeeping deg(P) = k d - (2n+3) is
    enforced on the way in and preserved on the way out.
    """
    beta = tuple(int(b) for b in beta)
    if len(beta) != P.nvars:
        raise DimensionMismatchError("beta length must match the variable count")
    if P.nvars != 2 * n + 3:
        raise DegreeError(f"expected {2 * n + 3} variables for n={n}, got {P.nvars}")
    if sum(beta) != d:
        raise DegreeError(f"beta must have total degree d={d}, got {sum(beta)}")
    if k < 1:
        raise DegreeError("pole order k must be >= 1")
    want = k * d - (2 * n + 3)
    if P.is_zero() or not P.is_homogeneous() or P.total_degree() != want:
        raise DegreeError(
            f"deg(P) must equal k*d - (2n+3) = {want}, got {P.total_degree()}"
        )
    bump = MultiPoly.monomial(P.nvars, 1.0, beta)
    return (P * bump) * float(-k), k + 1


# ---------------------------------------------------------------------------
# per-pair period integrands (five coordinates, q = 1)

NUMERATOR_ZERO_REL_TOL = 1e-12


@dataclass(frozen=True)
class PairIntegrand:
    """Rational integrand of the (j0, j1) covering pair in the t chart.

    ``numerator_scale`` is the largest coefficient magnitude among the
    individual j2 summands before cancellation: the reference scale for
    deciding that the assembled numerator is the zero polynomial.
    """

    j0: int
    j1: int
    rf: RationalFunction
    numerator_scale: float
    provenance: dict

    def numerator_is_zero(self, rel_tol: float = NUMERATOR_ZERO_REL_TOL) -> bool:
        if self.rf.num.is_zero():
            return True
        return self.rf.num.scale() <= rel_tol * max(self.numerator_scale, 1e-300)


def pair_wedges(jet: CurveJet) -> dict[tuple[int, int], tuple[UniPoly, float]]:
    """W[a, b] = x_a'(t) y_b(t) - x_b'(t) y_a(t) for a < b.

    Each wedge comes with its pre-cancellation scale (the larger coefficient
    magnitude of the two products), the yardstick for deciding that a wedge
    or a numerator built from it is identically zero: the subtraction itself
    only cancels to rounding.
    """
    xp = jet.x_derivative_chart()
    yc = jet.y_chart()
    n = jet.ncoords
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            left = xp[a] * yc[b]
            right = xp[b] * yc[a]
            out[(a, b)] = (left - right, max(left.scale(), right.scale()))
    return out


def pair_inner(
    jet: CurveJet,
    j0: int,
    j1: int,
    wedges: dict[tuple[int, int], tuple[UniPoly, float]] | None = None,
) -> tuple[UniPoly, float]:
    """Class-independent factor of the pair numerator and its scale.

    inner = sign(j0, j1) * sum_{j2 not in {j0, j1}} (-1)^(j2*) x_{j2}(t) W[j3, j4](t)

    with (j3 < j4) the complement of {j0, j1, j2} and sign the contraction
    sign (-1)^(j0 + j1 + 3) of the pair.  The scale is the largest summand
    coefficient before cancellation; a sum that cancels to 1e-12 of it is
    returned as the zero polynomial.
    """
    n = jet.ncoords
    if wedges is None:
        wedges = pair_wedges(jet)
    # the numerator is symmetric in (j0, j1); orientation lives in the
    # caller's choice of residue coordinate
    pair_sign = contraction_sign(tuple(sorted((j0, j1))), n - 2).sign
    inner = UniPoly.zero()
    term_scale = 0.0
    for j2 in range(n):
        if j2 in (j0, j1):
            continue
        rest = tuple(k for k in range(n) if k not in (j0, j1, j2))
        w, w_scale = wedges[rest]
        if w.is_zero() and w_scale == 0.0:
            continue
        sgn = -1 if j2star(j2, j0, j1, n) % 2 else 1
        x = jet.x[j2].dehomogenized()
        term = x * w
        term_scale = max(term_scale, x.scale() * w_scale)
        inner = inner + (float(sgn) * term)
    if inner.scale() <= NUMERATOR_ZERO_REL_TOL * max(term_scale, 1e-300):
        return UniPoly.zero(), term_scale
    return float(pair_sign) * inner, term_scale


def pair_numerator(
    P: MultiPoly,
    jet: CurveJet,
    j0: int,
    j1: int,
    wedges: dict[tuple[int, int], tuple[UniPoly, float]] | None = None,
    p_chart: UniPoly | None = None,
) -> tuple[UniPoly, float]:
    """Numerator P(x(t)) * inner (see ``pair_inner``) of one pair and its
    pre-cancellation scale."""
    if p_chart is None:
        p_chart = P.compose_unipoly(jet.x_chart())
    inner, term_scale = pair_inner(jet, j0, j1, wedges)
    return p_chart * inner, term_scale * max(p_chart.scale(), 1e-300)


def pair_integrand(
    X: Hypersurface, P: MultiPoly, jet: CurveJet, j0: int, j1: int
) -> PairIntegrand:
    """Integrand P-part / (F_{j0}(x(t)) F_{j1}(x(t))) for one covering pair.

    Only the five-coordinate shape (m = 3, q = 1) is wired; other shapes
    raise UnsupportedShapeError.
    """
    if X.nvars != 5:
        raise UnsupportedShapeError(
            f"period pair integrands are implemented for 5 coordinates, got {X.nvars}"
        )
    if jet.ncoords != X.nvars:
        raise DimensionMismatchError("jet does not match the hypersurface dimensions")
    if not 0 <= j0 < j1 < X.nvars:
        raise IndexSelectionError(f"need 0 <= j0 < j1 < {X.nvars}, got ({j0}, {j1})")
    want = required_degree(X.degree, X.m, 1)
    if P.is_zero() or not P.is_homogeneous() or P.total_degree() != want:
        raise DegreeError(f"P must be homogeneous of degree {want}")
    num, num_scale = pair_numerator(P, jet, j0, j1)
    xs = jet.x_chart()
    den0 = X.partials[j0].compose_unipoly(xs)
    den1 = X.partials[j1].compose_unipoly(xs)
    if den0.is_zero() or den1.is_zero():
        which = j0 if den0.is_zero() else j1
        raise BaseLocusCollisionError(
            f"covering chart {which} misses the curve entirely at s = {jet.s}: "
            f"F_{which}(x(t)) is the zero polynomial"
        )
    den = den0 * den1
    return PairIntegrand(
        j0=j0,
        j1=j1,
        rf=RationalFunction(num, den),
        numerator_scale=num_scale,
        provenance={"s": jet.s, "P": P.to_text()},
    )
