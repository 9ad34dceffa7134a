import numpy as np
import pytest

from quintic_periods.multipoly import (
    MultiPoly,
    monomial_charts,
    monomial_text,
    monomials_of_degree,
)
from quintic_periods.numkernel.unipoly import UniPoly


def test_zero_coefficients_dropped():
    p = MultiPoly(3, {(1, 0, 0): 1.0, (0, 1, 0): 0.0})
    assert len(p.terms) == 1


def test_add_mul_partial():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p.terms == {(2, 0): 1.0 + 0j, (0, 2): -1.0 + 0j}
    assert p.partial(0).terms == {(1, 0): 2.0 + 0j}
    assert p.partial(1).terms == {(0, 1): -2.0 + 0j}


def test_homogeneity_and_degree():
    p = MultiPoly(2, {(2, 0): 1.0, (1, 1): 2.0})
    assert p.is_homogeneous() and p.total_degree() == 2
    q = p + MultiPoly.constant(2, 1.0)
    assert not q.is_homogeneous()


def test_evaluate_and_compose_agree():
    p = MultiPoly(2, {(2, 1): 1.0, (0, 3): -2.0})
    xs = [UniPoly([1, 1]), UniPoly([0, 0, 1])]
    comp = p.compose_unipoly(xs)
    for t in (0.3, -1.2, 0.5 + 0.5j):
        direct = p.evaluate([xs[0](t), xs[1](t)])
        assert abs(comp(t) - direct) < 1e-12


def test_pow():
    x0 = MultiPoly.variable(1, 0)
    p = (x0 + 1.0) ** 3
    assert p.terms[(0,)] == 1.0 + 0j
    assert p.terms[(2,)] == 3.0 + 0j


def test_monomials_of_degree_count_and_order():
    monos = monomials_of_degree(5, 5)
    assert len(monos) == 126
    assert monos[0] == (5, 0, 0, 0, 0)
    assert monos[1] == (4, 1, 0, 0, 0)
    assert monos[-1] == (0, 0, 0, 0, 5)
    assert len(set(monos)) == 126
    # grlex-descending means sorted descending by (degree, tuple)
    assert monos == sorted(monos, reverse=True)


def test_monomial_text():
    assert monomial_text((0, 3, 2, 0, 0)) == "x1^3*x2^2"
    assert monomial_text((1, 0, 0, 0, 0)) == "x0"
    assert monomial_text((0, 0, 0, 0, 0)) == "1"


def test_to_text_round_trips_through_parser():
    from quintic_periods.numkernel.parser import expr_to_multipoly, parse_expression

    p = MultiPoly(3, {(2, 1, 0): 1.5, (0, 0, 3): -2j, (1, 1, 1): 1.0})
    q = expr_to_multipoly(parse_expression(p.to_text()), nvars=3, constants={})
    diff = p - q
    assert diff.scale() < 1e-15


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) * MultiPoly.variable(3, 0)


def _charts_per_variable(polys, degree, width):
    """monomial_charts built by one multiplication per degree and variable,
    over the rows whose first nonzero exponent is that variable: the
    reference its one pass per degree must match to the byte."""
    nvars = len(polys)
    charts = np.zeros((1, width), dtype=complex)
    charts[0, 0] = 1.0
    prev = {(0,) * nvars: 0}
    for k in range(1, degree + 1):
        monos = monomials_of_degree(nvars, k)
        nxt = np.zeros((len(monos), width), dtype=complex)
        for i in range(nvars):
            rows = [r for r, e in enumerate(monos) if next(j for j, v in enumerate(e) if v) == i]
            if not rows:
                continue
            base = charts[[prev[tuple(v - (j == i) for j, v in enumerate(monos[r]))] for r in rows]]
            acc = np.zeros_like(base)
            for n, c in enumerate(polys[i].coeffs):
                acc[:, n:] += c * base[:, : width - n]
            nxt[rows] = acc
        charts = nxt
        prev = {e: r for r, e in enumerate(monos)}
    return charts


def _catalog_charts():
    from quintic_periods.catalog import line_families

    return [
        (d.family().jet_at(s).x_chart(), 6)
        for d in line_families()[::3]
        for s in (0.1, 0.15 + 0.05j)
    ]


def _degree_two_charts():
    from test_period import TestDegreeTwoJets

    return [(TestDegreeTwoJets._random_jet(seed).x_chart(), 11) for seed in range(20)]


def _mixed_charts():
    # one, two and three coefficients, an empty chart, and -0.0 parts
    polys = [
        UniPoly([0.5 - 1j]),
        UniPoly([complex(-0.0, 0.0), 1.5 + 0.25j]),
        UniPoly([1.0, -0.0, 2j]),
        UniPoly([-0.3 + 0.2j, 0.7, complex(0.4, -0.0)]),
        UniPoly([]),
    ]
    return [(polys, 11), (polys[::-1], 11), (polys[1:] + polys[:1], 16)]


@pytest.mark.parametrize("charts", [_catalog_charts, _degree_two_charts, _mixed_charts])
def test_monomial_charts_match_a_multiplication_per_variable(charts):
    for polys, width in charts():
        got = monomial_charts(polys, 5, width)
        want = _charts_per_variable(polys, 5, width)
        assert got.shape == want.shape == (126, width)
        # to the byte, so that a -0.0 counts
        assert got.tobytes() == want.tobytes()
