import numpy as np
import pytest

from quintic_periods.numkernel.unipoly import BinaryForm, UniPoly


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

