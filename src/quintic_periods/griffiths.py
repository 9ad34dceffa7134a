"""Contraction signs, pair wedges, inner factors and numerators.

The class of P Omega / F^(q+1) restricts to the covering {F_j != 0} as a
degree-q cochain whose piece at J = (j_0 < ... < j_q) is

    (-1)^m / q!  *  P * Omega_J / (F_{j_0} ... F_{j_q}),

where Omega_J is the iterated interior product of the projective volume form
Omega = sum_i (-1)^i x_i dx_0 ^ ... ^ (omit dx_i) ^ ... ^ dx_{m+1} along the
coordinate directions in J.  Omega_J collapses to

    (-1)^(j_0 + ... + j_q + C(q+2, 2)) * sum_l (-1)^l x_{k_l} (complement wedge),

with (k_0 < ... < k_{m-q}) the complementary indices.  That sign is the
one the period carries per pair: ``contraction_sign`` gives it in closed
form, and ``contract_bruteforce`` performs the interior products literally
on wedge monomials as its oracle.  The cochain itself is never built.

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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexSelectionError, UnsupportedShapeError
from .geometry import CurveJet
from .numkernel.unipoly import UniPoly, coeff_product, trimmed_product, trimmed_sum


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
    return ContractionResult(sign, complement)


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
    return ContractionResult(overall, complement)


def required_degree(d: int, m: int) -> int:
    """Degree of P for which P Omega / F^(q+1) has weight zero,
    d (q + 1) - m - 2, at the period's q = 1."""
    return 2 * d - m - 2


# ---------------------------------------------------------------------------
# per-pair period numerators (five coordinates, q = 1)

NUMERATOR_ZERO_REL_TOL = 1e-12


def pair_wedges(jet: CurveJet) -> dict[tuple[int, int], tuple[UniPoly, float]]:
    """W[a, b] = x_a'(t) y_b(t) - x_b'(t) y_a(t) for a < b.

    Each wedge comes with its pre-cancellation scale (the larger coefficient
    magnitude of the two products), the yardstick for deciding that a wedge
    or a numerator built from it is identically zero: the subtraction itself
    only cancels to rounding.
    """
    # on coefficient tuples, by the products and sums UniPoly would take; a
    # product with an empty factor is the empty tuple, and a wedge of two
    # such products the zero polynomial of scale 0
    xp = [p.coeffs for p in jet.x_derivative_chart()]
    yc = [p.coeffs for p in jet.y_chart()]
    zero = (UniPoly.zero(), 0.0)
    out = {}
    for a, b in itertools.combinations(range(jet.ncoords), 2):
        left = trimmed_product(xp[a], yc[b]) if xp[a] and yc[b] else ()
        right = trimmed_product(xp[b], yc[a]) if xp[b] and yc[a] else ()
        if not (left or right):
            out[(a, b)] = zero
            continue
        wedge = trimmed_sum(left, [-c for c in right])
        scale = max(max(map(abs, left), default=0.0), max(map(abs, right), default=0.0))
        out[(a, b)] = (UniPoly.from_trimmed(wedge), scale)
    return out


def pair_inner(
    jet: CurveJet,
    j0: int,
    j1: int,
    wedges: dict[tuple[int, int], tuple[UniPoly, float]],
) -> tuple[UniPoly, float]:
    """Class-independent factor of the pair numerator and its scale.

    inner = sign(j0, j1) * sum_{j2 not in {j0, j1}} (-1)^(j2*) x_{j2}(t) W[j3, j4](t)

    with (j3 < j4) the complement of {j0, j1, j2} and sign the contraction
    sign (-1)^(j0 + j1 + 3) of the pair.  The scale is the largest summand
    coefficient before cancellation; a sum that cancels to 1e-12 of it is
    returned as the zero polynomial.
    """
    n = jet.ncoords
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
        x = jet.x_chart()[j2]
        term = x * w
        term_scale = max(term_scale, x.scale() * w_scale)
        inner = inner + (float(sgn) * term)
    if inner.scale() <= NUMERATOR_ZERO_REL_TOL * max(term_scale, 1e-300):
        return UniPoly.zero(), term_scale
    return float(pair_sign) * inner, term_scale


@lru_cache(maxsize=None)
def _inner_plan(n: int) -> tuple[tuple[tuple[int, int], ...], tuple, np.ndarray]:
    """The summands of ``pair_inner`` for every pair (j0 < j1) at once: the
    pairs in order; per summand, pair by pair, its pair's row, j2 and the
    row of W[j3, j4] among the pairs; and per pair and summand its sign with
    the pair's contraction sign folded in."""
    pairs = tuple(itertools.combinations(range(n), 2))
    row = {ab: r for r, ab in enumerate(pairs)}
    summands, signs = [], []
    for p, (j0, j1) in enumerate(pairs):
        pair_sign = contraction_sign((j0, j1), n - 2).sign
        for j2 in range(n):
            if j2 in (j0, j1):
                continue
            summands.append((p, j2, row[tuple(i for i in range(n) if i not in (j0, j1, j2))]))
            signs.append(-pair_sign if j2star(j2, j0, j1, n) % 2 else pair_sign)
    sign = np.array(signs, dtype=float).reshape(len(pairs), n - 2)
    sign.flags.writeable = False
    return pairs, tuple(summands), sign


def pair_inners(
    jet: CurveJet,
    wedges: dict[tuple[int, int], tuple[UniPoly, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """``pair_inner`` of every pair (j0 < j1), in ``itertools.combinations``
    order: one row of inner coefficients per pair, zero-padded to a common
    width, and the term scales.  A row that cancels to 1e-12 of its term
    scale is exactly zero, as ``pair_inner`` returns the zero polynomial.

    The summands are multiplied as UniPoly multiplies them, and their signs
    and sums are exact or taken in pair_inner's order, so each row holds
    pair_inner's coefficients bit for bit: at clustered poles the period
    engine amplifies a last-bit change of them far beyond rounding.
    """
    n = jet.ncoords
    if n != 5:
        raise UnsupportedShapeError(f"pair inner factors need 5 coordinates, got {n}")
    pairs, summands, sign = _inner_plan(n)
    xs = jet.x_chart()
    x_scale = [x.scale() for x in xs]
    ws = [wedges[ab] for ab in pairs]
    term_scale = [0.0] * len(pairs)
    # the summands' products, zero-padded rows; a product with an empty
    # factor is an exact zero row
    products = []
    for k, (p, j2, r) in enumerate(summands):
        w, w_scale = ws[r]
        scale = x_scale[j2] * w_scale
        if scale > term_scale[p]:  # max(term_scale[p], scale), which keeps the first
            term_scale[p] = scale
        if xs[j2].coeffs and w.coeffs:
            products.append((k, coeff_product(xs[j2].coeffs, w.coeffs)))
    terms = np.zeros((len(summands), max((len(prod) for _, prod in products), default=1)), complex)
    for k, prod in products:
        terms[k, : len(prod)] = prod
    inner = (terms.reshape(*sign.shape, terms.shape[1]) * sign[..., None]).sum(axis=1)
    term_scale = np.array(term_scale)
    zero = np.abs(inner).max(axis=1) <= NUMERATOR_ZERO_REL_TOL * np.maximum(term_scale, 1e-300)
    inner[zero] = 0.0
    return inner, term_scale


def pair_numerator(
    jet: CurveJet,
    j0: int,
    j1: int,
    wedges: dict[tuple[int, int], tuple[UniPoly, float]],
    p_chart: UniPoly,
) -> tuple[UniPoly, float]:
    """Numerator P(x(t)) * inner (see ``pair_inner``) of one pair and its
    pre-cancellation scale, given the chart ``p_chart`` = P(x(t)) and the
    jet's ``pair_wedges``."""
    inner, term_scale = pair_inner(jet, j0, j1, wedges)
    return p_chart * inner, term_scale * max(p_chart.scale(), 1e-300)

