import cmath
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic_periods.catalog import STANDARD_GEOMETRY_SAMPLES, fermat_hypersurface
from quintic_periods.errors import DegenerateMapError, DimensionMismatchError
from quintic_periods.geometry import (
    LINE_DATA_SIZE,
    CurveFamily,
    CurveJet,
    Hypersurface,
    LineData,
    MobiusMap,
    containment_residual,
    mobius_deformation,
    mobius_reparam,
    smooth_spot_check,
    tangency_residual,
    transform_jet,
)
from quintic_periods.griffiths import pair_wedges
from quintic_periods.multipoly import MultiPoly
from quintic_periods.numkernel.unipoly import BinaryForm, UniPoly

X_FORM = BinaryForm(1, (0.0, 1.0))
Y_FORM = BinaryForm(1, (1.0, 0.0))
ZERO1 = BinaryForm(1, (0.0, 0.0))


def test_euler_identity_enforced():
    bad = MultiPoly(3, {(2, 0, 0): 1.0, (0, 1, 0): 1.0})  # inhomogeneous
    with pytest.raises(ValueError):
        Hypersurface(bad)
    X = fermat_hypersurface(2, 3)
    assert X.euler_residual() < 1e-14


def test_corrected_slice_containment_and_tangency(fermat, corrected_slice):
    for s in STANDARD_GEOMETRY_SAMPLES:
        jet = corrected_slice.jet_at(s)
        assert containment_residual(fermat, jet) < 1e-10
        assert tangency_residual(fermat, jet) < 1e-10


def test_literal_slice_fails_containment(fermat, literal_slice):
    jet = literal_slice.jet_at(0.1)
    assert containment_residual(fermat, jet) > 0.1


def test_broken_slice_detected(fermat, corrected_slice):
    jet = corrected_slice.jet_at(0.1)
    bumped = list(jet.x)
    bumped[2] = BinaryForm(1, (bumped[2].coeffs[0] + 0.01, bumped[2].coeffs[1]))
    broken = CurveJet(jet.s, tuple(bumped), jet.y, jet.d_curve)
    assert containment_residual(fermat, broken) >= 1e-3


def test_degree_zero_curve():
    # constant curve (1, 0, 0) on a surface missing the x0^d term
    F = MultiPoly(3, {(2, 1, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0})
    X = Hypersurface(F)
    one = BinaryForm.constant(1.0)
    zero = BinaryForm.constant(0.0)
    jet = CurveJet(0j, (one, zero, zero), (zero, zero, zero), 0)
    assert containment_residual(X, jet) == 0.0


def test_euler_direction_tangency_is_degree_times_containment(fermat, literal_slice):
    # with y = x the tangency polynomial is d * F(x(t)) exactly
    jet = literal_slice.jet_at(0.1)
    euler = CurveJet(jet.s, jet.x, jet.x, jet.d_curve)
    xs = jet.x_chart()
    comp = fermat.F.compose_unipoly(xs)
    acc = UniPoly.zero()
    for yi, Fi in zip(euler.y_chart(), fermat.partials):
        acc = acc + yi * Fi.compose_unipoly(xs)
    diff = acc - 5.0 * comp
    assert diff.scale() < 1e-12 * comp.scale()


def test_zero_jet_has_zero_tangency(fermat, corrected_slice):
    jet = corrected_slice.jet_at(0.1)
    zeroed = CurveJet(jet.s, jet.x, (ZERO1,) * 5, jet.d_curve)
    assert tangency_residual(fermat, zeroed) == 0.0


@pytest.mark.parametrize(
    "x, y, error, message",
    [
        ((X_FORM, Y_FORM), (X_FORM,), DimensionMismatchError, "different lengths"),
        ((), (), DimensionMismatchError, "empty coordinate list"),
        ((X_FORM, BinaryForm.constant(1.0)), (X_FORM, Y_FORM), DimensionMismatchError,
         "degree d_curve"),
        ((X_FORM, Y_FORM), (X_FORM, BinaryForm(2, (0.0, 0.0, 1.0))), DimensionMismatchError,
         "share one degree"),
        ((ZERO1, ZERO1), (X_FORM, Y_FORM), ValueError, "identically zero"),
    ],
    ids=["lengths", "empty", "x-degrees", "y-degrees", "all-zero"],
)
def test_curve_jet_refusals(x, y, error, message):
    # each shape is refused by its own check, which the message names
    with pytest.raises(error, match=message):
        CurveJet(0j, x, y, 1)


def test_family_refuses_a_jet_at_another_s(corrected_slice):
    fam = CurveFamily("shifted", lambda s: corrected_slice.jet_at(s + 1e-6))
    with pytest.raises(ValueError, match="'shifted' returned a jet at"):
        fam.jet_at(0.1)


def test_dimension_mismatch(fermat):
    one = BinaryForm.constant(1.0)
    zero = BinaryForm.constant(0.0)
    jet = CurveJet(0j, (one, zero), (zero, zero), 0)
    with pytest.raises(DimensionMismatchError):
        containment_residual(fermat, jet)


class TestMobiusDeformation:
    BASE = (
        X_FORM,
        -1.3 * X_FORM,
        Y_FORM,
        0.2 * Y_FORM,
        BinaryForm(1, (0.7, 0.1)),
    )

    GENERIC = (0.2j, 0.3, -0.1, -0.15)

    def test_identity_path_gives_zero_jets(self):
        fam = mobius_deformation(self.BASE, (0, 0, 0, 0))
        jet = fam.jet_at(0.2)
        assert all(f.is_zero() for f in jet.y)

    def test_translation_path_gives_chart_derivatives(self):
        fam = mobius_deformation(self.BASE, (0, 1, 0, 0))
        jet = fam.jet_at(0j)
        for f, y in zip(self.BASE, jet.y):
            diff = y.dehomogenized() - f.derivative_chart()
            assert diff.scale() < 1e-8

    def test_scaling_path_wedges_vanish(self):
        fam = mobius_deformation(self.BASE, (1, 0, 0, 0))
        jet = fam.jet_at(0.1)
        for (a, b), (w, w_scale) in pair_wedges(jet).items():
            assert w.scale() <= 1e-10 * max(w_scale, 1e-300)

    def test_generic_path_wedges_vanish_at_all_samples(self):
        fam = mobius_deformation(self.BASE, self.GENERIC)
        for s in (0.05, 0.2j, -0.1 + 0.1j):
            jet = fam.jet_at(s)
            for (a, b), (w, w_scale) in pair_wedges(jet).items():
                assert w.scale() <= 1e-9 * max(w_scale, 1e-300)

    def test_jets_are_the_s_derivatives(self):
        # away from s = 0 the generator D M_s^(-1) differs from D.  The
        # charts' s-derivative is the jet plus lambda(t) x(t), one lambda for
        # every coordinate (the forms' rescaling), so against a central
        # difference each x_a e_b - x_b e_a of the gaps e vanishes to O(h^2)
        fam = mobius_deformation(self.BASE, self.GENERIC)
        s0, h = 0.2 - 0.1j, 1e-5
        jet = fam.jet_at(s0)
        plus, minus = fam.jet_at(s0 + h).x_chart(), fam.jet_at(s0 - h).x_chart()
        xs = jet.x_chart()
        gaps = [
            y - (p - m) * (0.5 / h) for y, p, m in zip(jet.y_chart(), plus, minus)
        ]
        assert max(e.scale() for e in gaps) > 1e-3  # the rescaling shows
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                assert (xs[a] * gaps[b] - xs[b] * gaps[a]).scale() < 1e-8


class TestMobiusReparam:
    def test_identity_is_noop(self, corrected_slice):
        fam = mobius_reparam(corrected_slice, MobiusMap(1, 0, 0, 1))
        a = fam.jet_at(0.1)
        b = corrected_slice.jet_at(0.1)
        for fa, fb in zip(a.x, b.x):
            assert max(abs(u - v) for u, v in zip(fa.coeffs, fb.coeffs)) < 1e-15

    def test_chart_swap_reverses_coefficients(self, corrected_slice):
        swapped = transform_jet(corrected_slice.jet_at(0.1), MobiusMap(0, 1, 1, 0))
        orig = corrected_slice.jet_at(0.1)
        for fa, fb in zip(swapped.x, orig.x):
            assert fa.coeffs == tuple(reversed(fb.coeffs))

    def test_degenerate_map_rejected(self):
        with pytest.raises(DegenerateMapError):
            MobiusMap(1, 2, 2, 4)

    def test_residuals_invariant_under_reparam(self, fermat, corrected_slice):
        A = MobiusMap(0.4 + 0.1j, -1.2, 0.3 - 0.2j, 0.9 + 0.4j)
        fam = mobius_reparam(corrected_slice, A)
        for s in (0.1, 0.2 * cmath.exp(1j * cmath.pi / 7)):
            assert containment_residual(fermat, fam.jet_at(s)) < 1e-10
            assert tangency_residual(fermat, fam.jet_at(s)) < 1e-10


class TestFiniteDifferenceJets:
    def test_fd_matches_analytic_to_second_order(self, corrected_slice):
        from quintic_periods.catalog import (
            d_root5_neg1_minus_s5,
            root5_neg1_minus_s5,
        )

        def coords_at(s):
            w = root5_neg1_minus_s5(s)
            zeta = cmath.exp(2j * cmath.pi / 5)
            return [
                UniPoly([0, 1]),
                UniPoly([0, -zeta]),
                UniPoly([1]),
                UniPoly([s]),
                UniPoly([w]),
            ]

        def jets_at(s):
            w = root5_neg1_minus_s5(s)
            return [
                UniPoly(),
                UniPoly(),
                UniPoly(),
                UniPoly([1.0]),
                UniPoly([d_root5_neg1_minus_s5(s, w)]),
            ]

        def discrepancy(s, h):
            """max coefficient gap between the jets and central differences"""
            plus, minus = coords_at(s + h), coords_at(s - h)
            return max(
                (an - (p - m) * (0.5 / h)).scale()
                for an, p, m in zip(jets_at(s), plus, minus)
            )

        s0 = 0.3 + 0j
        gap_h = discrepancy(s0, 1e-4)
        gap_h2 = discrepancy(s0, 5e-5)
        ratio = gap_h / gap_h2
        assert 3.5 <= ratio <= 4.5


class TestSpotChecks:
    def test_fermat_points_smooth(self, fermat):
        report = smooth_spot_check(fermat, [(1, -1, 0, 0, 0), (1, 0, 1j, 0, 0)])
        assert report.all_smooth

    def test_cone_vertex_flagged(self):
        cone = Hypersurface(MultiPoly(5, {(1, 4, 0, 0, 0): 1.0}))
        report = smooth_spot_check(cone, [(0, 0, 0, 0, 1)])
        assert not report.all_smooth
        assert len(report.failures) == 1

    def test_slice_samples_pass(self, fermat, corrected_slice):
        pts = []
        for s in (0.1, 0.2, 0.3):
            jet = corrected_slice.jet_at(s)
            for t in np.linspace(0.2, 1.8, 7):
                pts.append(tuple(p(complex(t)) for p in jet.x_chart()))
        report = smooth_spot_check(fermat, pts)
        assert report.all_smooth


class TestLineData:
    """``LineData``: a key's first compute leaves a mark, its second keeps
    the value, a kept key is read; a compute that raises stores nothing;
    above ``LINE_DATA_SIZE`` keys the least recently used goes."""

    @staticmethod
    def _counted():
        calls = []

        def compute():
            calls.append(len(calls))
            return ("value", len(calls))

        return calls, compute

    def test_a_key_computes_twice_then_reads(self):
        store, (calls, compute) = LineData(), self._counted()
        first, second, third = (store.get("k", compute) for _ in range(3))
        assert calls == [0, 1]
        assert first == ("value", 1) and second == ("value", 2)
        assert third is second

    def test_a_compute_that_raises_leaves_no_mark(self):
        store, (calls, compute) = LineData(), self._counted()

        def failing():
            raise ArithmeticError("no value")

        with pytest.raises(ArithmeticError):
            store.get("k", failing)
        assert len(store) == 0
        store.get("k", compute)
        store.get("k", compute)
        assert calls == [0, 1]

    def test_a_kept_key_outlives_older_marks(self):
        # the keep moves key 0 to the recent end, so the next key evicts
        # key 1, the least recently used
        store, (_, compute) = LineData(), self._counted()
        for key in range(LINE_DATA_SIZE):
            store.get(key, compute)
        kept = store.get(0, compute)
        store.get(LINE_DATA_SIZE, compute)
        assert len(store) == LINE_DATA_SIZE
        assert 0 in store._entries and 1 not in store._entries
        assert store.get(0, lambda: pytest.fail("a kept key computes")) is kept

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 79), st.integers(0, 4)), max_size=400))
    def test_the_store_follows_the_rule(self, gets):
        # random gets over 80 keys, one compute in five raising, against an
        # OrderedDict model of the rule, in which a mark holds None
        store, model = LineData(), OrderedDict()
        for n, (key, draw) in enumerate(gets):
            called = []

            def compute():
                called.append(key)
                if draw == 0:
                    raise ArithmeticError(key)
                return ("value", n)

            kept = model.get(key)
            try:
                got = store.get(key, compute)
            except ArithmeticError:
                pass
            else:
                if key not in model:
                    model[key] = None
                    if len(model) > LINE_DATA_SIZE:
                        model.popitem(last=False)
                else:
                    if kept is None:
                        model[key] = got
                    model.move_to_end(key)
                assert got == (kept or ("value", n))
            assert called == ([] if kept else [key])
            assert len(store) <= LINE_DATA_SIZE
            assert list(store._entries) == list(model)
