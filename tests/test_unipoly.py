import math

import numpy as np
import pytest

from quintic_periods.multipoly import MultiPoly
from quintic_periods.numkernel.unipoly import (
    BinaryForm,
    UniPoly,
    trimmed_power,
    trimmed_product,
    trimmed_sum,
)


def test_construction_trims_exact_leading_zeros():
    p = UniPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert UniPoly([0, 0]).is_zero()
    assert UniPoly().degree == -1


def test_arithmetic_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = [complex(*rng.uniform(-1, 1, 2)) for _ in range(int(rng.integers(1, 7)))]
        b = [complex(*rng.uniform(-1, 1, 2)) for _ in range(int(rng.integers(1, 7)))]
        pa, pb = UniPoly(a), UniPoly(b)
        conv = np.convolve(a, b)
        assert np.allclose((pa * pb).coeffs, UniPoly(conv.tolist()).coeffs)
        t = complex(*rng.uniform(-2, 2, 2))
        assert abs((pa + pb)(t) - (pa(t) + pb(t))) < 1e-12
        assert abs((pa - pb)(t) - (pa(t) - pb(t))) < 1e-12


def test_pow_and_scalar_ops():
    p = UniPoly([1, 1])
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (2 * p).coeffs == (2, 2)
    assert (p / 2).coeffs == (0.5, 0.5)
    with pytest.raises(ValueError):
        p ** (-1)


def test_shifted_is_taylor_shift():
    p = UniPoly([5, -2, 1, 3])
    q = p.shifted(0.7 - 0.2j)
    for t in (0.0, 1.1, -0.3 + 0.9j):
        assert abs(q(t) - p(t + (0.7 - 0.2j))) < 1e-12


def test_vanishing_order():
    p = UniPoly([0, 0, 3, 1])  # t^2 (3 + t)
    assert p.vanishing_order(0.0) == 2
    assert p.vanishing_order(1.0) == 0
    assert UniPoly([1, -2, 1]).vanishing_order(1.0) == 2


def test_derivative_and_eval_vectorized():
    p = UniPoly([1, 0, -2, 4])
    ts = np.linspace(-1, 1, 7) + 0.5j
    vals = p(ts)
    assert vals.shape == ts.shape
    dp = p.derivative()
    assert dp.coeffs == (0, -4, 12)


def test_binary_form_charts():
    # degree-1 form y: constant chart, one zero at infinity
    f = BinaryForm(1, (1.0, 0.0))
    assert f.dehomogenized().degree == 0
    assert f.infinity_order() == 1
    g = BinaryForm(1, (0.0, 1.0))  # x: zero at t=0, none at infinity
    assert g.infinity_order() == 0
    assert g.dehomogenized().coeffs == (0, 1)
    with pytest.raises(ValueError):
        BinaryForm(2, (1.0,))


def test_binary_form_substitution_matches_pointwise():
    rng = np.random.default_rng(11)
    f = BinaryForm(3, tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(4)))
    a, b, c, d = (complex(*rng.uniform(-1, 1, 2)) for _ in range(4))
    g = f.substituted(a, b, c, d)
    assert g.degree == f.degree

    def form_eval(form, x, y):
        return sum(cf * x**k * y ** (form.degree - k) for k, cf in enumerate(form.coeffs))

    for _ in range(5):
        x, y = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
        assert abs(form_eval(g, x, y) - form_eval(f, a * x + b * y, c * x + d * y)) < 1e-12



# zeros of either sign, NaN, infinities, subnormals, and values whose
# products overflow to inf or underflow to 0
SPECIAL = [
    0j,
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    1 + 0j,
    -1.5 + 2j,
    complex(math.nan, 0.0),
    complex(0.5, math.nan),
    complex(math.inf, 0.0),
    complex(-math.inf, 1.0),
    complex(math.inf, math.inf),
    complex(5e-324, 0.0),
    complex(1e-310, -3e-320),
    complex(1e-200, 1e-170),
    complex(1e200, 1e200),
    complex(1e160, -1e160),
    complex(-3e-90, 2e-90),
]


def _bits(coeffs):
    """The coefficients as hex text: a zero's sign counts, every NaN is alike."""
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


def _general_power(a, n):
    """a^n by binary powering from 1, every step a general tuple product."""
    out = (1 + 0j,)
    while n:
        if n & 1:
            out = trimmed_product(out, a)
        n >>= 1
        if n:
            a = trimmed_product(a, a)
    return out


def _general_compose(P, polys):
    """MultiPoly.compose_unipoly's coefficients by general products and sums
    from the empty accumulator."""
    acc = ()
    for exps, c in P.terms.items():
        term = (c,)
        for i, e in enumerate(exps):
            if e:
                term = trimmed_product(term, _general_power(polys[i].coeffs, e))
        acc = trimmed_sum(acc, term)
    return acc


def test_one_coefficient_power_is_the_general_product_path():
    for c in SPECIAL:
        for n in range(10):
            assert _bits(trimmed_power((c,), n)) == _bits(_general_power((c,), n)), (c, n)


def test_first_composed_term_is_the_general_sum():
    # a class of one term and of two, over one-coefficient charts and
    # two-coefficient ones; -0.0 inside a chart, and 0.0 + -0.0 in the sum
    coefficients = [c for c in SPECIAL if c != 0]
    for c in SPECIAL:
        for other in (1 + 0j, complex(-0.0, 2.0), complex(1e-170, -0.0)):
            charts = [
                [UniPoly.from_trimmed((c,)) if c != 0 else UniPoly.zero(), UniPoly((other,))],
                [UniPoly.from_trimmed((c, other)), UniPoly((complex(-0.0, -0.0), other))],
            ]
            for coeff in coefficients:
                for polys in charts:
                    for terms in ({(2, 1): coeff}, {(0, 3): coeff, (1, 2): -1.5 + 2j}):
                        P = MultiPoly(2, terms)
                        got = P.compose_unipoly(polys).coeffs
                        assert _bits(got) == _bits(_general_compose(P, polys)), (c, other, terms)
