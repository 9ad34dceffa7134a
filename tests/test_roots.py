import numpy as np
import pytest

from quintic_periods.errors import NonConvergenceError
from quintic_periods.numkernel.roots import poly_roots
from quintic_periods.numkernel.unipoly import UniPoly


def _sites_as_dict(sites, ndigits=6):
    return {(round(loc.real, ndigits), round(loc.imag, ndigits)): m for loc, m in sites}


def test_quadratic_with_forced_factorization():
    sites = _sites_as_dict(poly_roots(UniPoly([1, 0, 1])))
    assert sites == {(0.0, 1.0): 1, (0.0, -1.0): 1}


def test_triple_root_cluster():
    p = UniPoly([-2, 1]) ** 3
    sites = poly_roots(p)
    assert len(sites) == 1
    loc, mult = sites[0]
    assert mult == 3
    assert abs(loc - 2.0) < 1e-9


def test_seeded_random_monic_degree8_residuals():
    rng = np.random.default_rng(20240515)
    for _ in range(25):
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(8)] + [1.0]
        p = UniPoly(coeffs)
        sites = poly_roots(p)
        assert sum(m for _, m in sites) == 8
        for loc, _ in sites:
            assert abs(p(loc)) < 1e-9


def test_reexpansion_reproduces_monic_polynomial():
    rng = np.random.default_rng(7171)
    cases = []
    for _ in range(30):
        roots = []
        while len(roots) < 6:
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            if all(abs(z - r) > 2e-3 for r in roots):
                roots.append(z)
        cases.append(UniPoly.from_roots(roots, lead=1.3 - 0.4j))
    cases.append(UniPoly.from_roots([0.5, 0.5, 0.5, -1.0, -1.0, 2.0]))
    for p in cases:
        sites = poly_roots(p)
        assert sum(m for _, m in sites) == p.degree
        rebuilt = UniPoly.one()
        for loc, m in sites:
            rebuilt = rebuilt * UniPoly([-loc, 1.0]) ** m
        diff = rebuilt - p.monic()
        assert diff.scale() < 1e-7 * p.monic().scale()


def test_zero_roots_from_trailing_zeros():
    p = UniPoly([0, 0, 0, 2, 1])  # t^3 (2 + t)
    sites = _sites_as_dict(poly_roots(p))
    assert sites[(0.0, 0.0)] == 3
    assert sites[(-2.0, -0.0)] == 1 or sites[(-2.0, 0.0)] == 1


def test_close_but_distinct_roots_stay_separate():
    p = UniPoly.from_roots([0.3, 0.3 + 1.5e-3j])
    sites = poly_roots(p)
    assert len(sites) == 2
    assert all(m == 1 for _, m in sites)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        poly_roots(UniPoly())


def test_constant_has_no_roots():
    assert poly_roots(UniPoly([3.0])) == []


def test_deterministic_ordering():
    p = UniPoly.from_roots([1.0, -1.0, 1j, -1j])
    a = poly_roots(p)
    b = poly_roots(p)
    assert a == b
    locs = [loc for loc, _ in a]
    assert locs == sorted(locs, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_seeded_multiple_root_times_cofactor(k):
    """(t - r)^k q(t) gives one site of multiplicity k at r; k = 4 is the
    4-fold zero a quintic's partial takes along a line, as the Shioda
    quintic's non-monomial partials are rooted."""
    rng = np.random.default_rng(1000 + k)
    for _ in range(20):
        r = complex(*rng.uniform(-1.5, 1.5, 2))
        lead = complex(*rng.uniform(0.5, 2.0, 2))
        others = []
        while len(others) < 3:
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            if abs(z - r) > 0.3 and all(abs(z - o) > 0.3 for o in others):
                others.append(z)
        p = UniPoly([-r, 1.0]) ** k * UniPoly.from_roots(others, lead=lead)
        sites = poly_roots(p)
        assert sum(m for _, m in sites) == p.degree
        multiple = [(loc, m) for loc, m in sites if m > 1]
        assert len(multiple) == 1
        loc, mult = multiple[0]
        assert mult == k
        assert abs(loc - r) < 1e-9 * (1 + abs(r))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("inf"))])
def test_nonfinite_coefficient_is_nonconvergence(bad):
    for coeffs in ([1.0, bad, 2.0, 1.0], [1.0, 2.0, 3.0, bad], [bad, 1.0]):
        with pytest.raises(NonConvergenceError):
            poly_roots(UniPoly(coeffs))
