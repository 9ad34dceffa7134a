"""Complex polynomial root extraction with multiplicity clustering.

Degrees 1 and 2 are solved in closed form; higher degrees by the
companion-matrix eigenvalues (``numpy.roots``), backward stable at the
degrees the library meets (Edelman-Murakami 1995).  Returned roots are
clustered into (location, multiplicity) sites: a base pass at the relative
tolerance 1e-9*(1+max|root|) merges numerically identical approximations, and
a multiplicity-aware pass merges the characteristic eps^(1/k) cloud a k-fold
root produces in double precision, validated by the smallness of
p, p', ..., p^(k-1) at the Newton-polished center.
"""

from __future__ import annotations

import cmath

import numpy as np

from ..errors import NonConvergenceError
from .unipoly import UniPoly

CLUSTER_REL_TOL = 1e-9
_MULT_EPS = 1e-13  # multiplicity-k clouds have radius ~ _MULT_EPS**(1/k)
_MERGE_FACTOR = 8.0
_DERIV_REL_TOL = 1e-5


def poly_roots(p: UniPoly) -> list[tuple[complex, int]]:
    """All roots of p with multiplicities, sorted by (re, im).

    Parameters
    ----------
    p : UniPoly
        Nonzero polynomial.

    Returns
    -------
    list of (root, multiplicity)
        Multiplicities sum to deg(p).

    Raises
    ------
    NonConvergenceError
        If a coefficient or an eigenvalue is not finite, the eigenvalue
        solver fails, or the clustered roots do not have acceptable
        residuals.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.degree == 0:
        return []
    if not all(cmath.isfinite(c) for c in p.coeffs):
        raise NonConvergenceError(f"degree {p.degree} polynomial has a non-finite coefficient")

    coeffs = list(p.coeffs)
    # roots at the origin come from trailing zero coefficients
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    q = UniPoly(coeffs)
    sites: list[tuple[complex, int]] = []
    if zero_mult:
        sites.append((0j, zero_mult))
    if q.degree >= 1:
        approx = _solve(q)
        sites.extend(_cluster_sites(approx, q))
    sites.sort(key=lambda s: (s[0].real, s[0].imag))
    _check_residuals(p, sites)
    return sites


def _solve(q: UniPoly) -> np.ndarray:
    n = q.degree
    if n == 1:
        a0, a1 = q.coeffs
        return np.array([-a0 / a1])
    if n == 2:
        a0, a1, a2 = q.coeffs
        disc = np.sqrt(complex(a1 * a1 - 4 * a2 * a0))
        # pick the larger-magnitude branch for the stable root
        if abs(a1 + disc) >= abs(a1 - disc):
            r1 = (-a1 - disc) / (2 * a2)
        else:
            r1 = (-a1 + disc) / (2 * a2)
        r2 = a0 / (a2 * r1) if r1 != 0 else -a1 / a2
        return np.array([r1, r2])
    try:
        z = np.roots(np.asarray(list(reversed(q.coeffs))))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"companion-matrix eigenvalues failed: {exc}") from None
    return z


def _cluster_sites(approx: np.ndarray, q: UniPoly) -> list[tuple[complex, int]]:
    pts = sorted((complex(z) for z in approx.tolist()), key=lambda c: (c.real, c.imag))
    max_r = max((abs(z) for z in pts), default=0.0)
    base_tol = CLUSTER_REL_TOL * (1.0 + max_r)

    clusters: list[list[complex]] = []
    for z in pts:
        for cl in clusters:
            c = sum(cl) / len(cl)
            if abs(z - c) <= base_tol:
                cl.append(z)
                break
        else:
            clusters.append([z])

    sites = [[sum(cl) / len(cl), len(cl)] for cl in clusters]
    _merge_multiplicities(sites, q, max_r)
    return [(_polish_center(q, center, mult), mult) for center, mult in sites]


def _merge_multiplicities(sites: list[list], q: UniPoly, max_r: float) -> None:
    """Level scan k = deg..2: a k-fold root scatters into a cloud of radius
    about eps^(1/k), so connected components at that radius whose sizes sum
    to exactly k are candidate k-fold roots; each candidate is committed only
    if p, p', ..., p^(k-1) all vanish (relatively) at the polished center."""
    for k in range(q.degree, 1, -1):
        radius = _MERGE_FACTOR * (1.0 + max_r) * _MULT_EPS ** (1.0 / k)
        while len(sites) >= 2:
            committed = False
            for comp in _components(sites, radius):
                total = sum(sites[i][1] for i in comp)
                if total != k or len(comp) < 2:
                    continue
                center = sum(sites[i][0] * sites[i][1] for i in comp) / total
                center = _polish_center(q, center, k)
                if _validates_multiplicity(q, center, k):
                    keep = min(comp)
                    sites[keep] = [center, k]
                    for i in sorted(comp, reverse=True):
                        if i != keep:
                            del sites[i]
                    committed = True
                    break  # indices shifted; rebuild components
            if not committed:
                break


def _components(sites: list[list], radius: float) -> list[list[int]]:
    n = len(sites)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(sites[i][0] - sites[j][0]) <= radius:
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def _polish_center(q: UniPoly, center: complex, mult: int) -> complex:
    """Newton refinement: a k-fold root of q is a simple root of q^(k-1)."""
    g = q
    for _ in range(mult - 1):
        g = g.derivative()
    dg = g.derivative()
    z = center
    for _ in range(40):
        dv = dg(z)
        if abs(dv) < 1e-300:
            break
        step = g(z) / dv
        z = z - step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def _validates_multiplicity(q: UniPoly, center: complex, k: int) -> bool:
    g = q
    for j in range(k):
        s = g.scale() * max(1.0, abs(center)) ** g.degree
        if s == 0.0:
            return False
        if abs(g(center)) > _DERIV_REL_TOL * s:
            return False
        g = g.derivative()
    return True


def _check_residuals(p: UniPoly, sites: list[tuple[complex, int]]) -> None:
    total = sum(m for _, m in sites)
    if total != p.degree:
        raise NonConvergenceError(
            f"clustered multiplicities sum to {total}, expected {p.degree}"
        )
    mon = p.monic()
    bound = 1e-6 * mon.scale()
    for r, _ in sites:
        if not cmath.isfinite(r):
            raise NonConvergenceError(f"root {r} is not finite")
        if abs(mon(r)) > bound * max(1.0, abs(r)) ** p.degree:
            raise NonConvergenceError(
                f"root residual {abs(mon(r)):.3e} at {r:.6g} exceeds bound"
            )
