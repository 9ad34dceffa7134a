import pytest

from quintic_periods import period
from quintic_periods.catalog import (
    STANDARD_PERIOD_SAMPLES,
    ClosedFormRef,
    line_families,
    mobius_null_family,
    root5_neg1_minus_s5,
    zeta_value,
)
from quintic_periods.errors import (
    BaseLocusCollisionError,
    DegreeError,
    PoleMismatchError,
    ReferenceZeroError,
)
from quintic_periods.geometry import CurveFamily, CurveJet, MobiusMap, mobius_reparam
from quintic_periods.multipoly import MultiPoly
from quintic_periods.numkernel.unipoly import BinaryForm
from quintic_periods.period import (
    compare_closed_form,
    geometric_median,
    monomial_scan,
    period_at,
    period_of_jet,
    sweep,
)
from quintic_periods.verification import reference_period

ZETA = zeta_value(1)


def corrected_period_closed_form(s: complex) -> complex:
    """Hand-derived value for the corrected slice with analytic jets and the
    class x1^3 x2^2: summing the six surviving pair residues at t = 0 gives
    (6 zeta^4 / 25) * root5(-1-s^5)^(-4)."""
    w = root5_neg1_minus_s5(s)
    return 6.0 * ZETA**4 / (25.0 * w**4)


class TestPeriodValues:
    def test_corrected_slice_matches_hand_derivation(
        self, fermat, corrected_slice, p_x1cubed_x2sq
    ):
        for s in STANDARD_PERIOD_SAMPLES[:4]:
            rep = period_at(fermat, p_x1cubed_x2sq, corrected_slice, s)
            expect = corrected_period_closed_form(s)
            assert abs(rep.total - expect) < 1e-10 * abs(expect)
            assert rep.max_backend_disagreement < 1e-8

    def test_corrected_contributions_split_evenly(
        self, fermat, corrected_slice, p_x1cubed_x2sq
    ):
        # six live pairs, all contributing zeta^4/(25 w^4) at t = 0
        rep = period_at(fermat, p_x1cubed_x2sq, corrected_slice, 0.1)
        live = {k: c for k, c in rep.per_pair.items() if not c.numerator_zero}
        assert set(live) == {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}
        vals = list(live.values())
        for c in vals:
            assert abs(c.residue_sum - vals[0].residue_sum) < 1e-12

    def test_literal_slice_period_identically_zero(
        self, fermat, literal_slice, p_x1cubed_x2sq
    ):
        for s in STANDARD_PERIOD_SAMPLES[:4]:
            rep = period_at(fermat, p_x1cubed_x2sq, literal_slice, s)
            assert rep.total == 0

    def test_zero_jet_gives_exact_zero(self, fermat, corrected_slice, p_x1cubed_x2sq):
        jet = corrected_slice.jet_at(0.1)
        zero = BinaryForm(1, (0.0, 0.0))
        dead = CurveJet(jet.s, jet.x, (zero,) * 5, 1)
        rep = period_of_jet(fermat, p_x1cubed_x2sq, dead)
        assert rep.total == 0
        assert all(c.numerator_zero for c in rep.per_pair.values())

    def test_mobius_family_null(self, fermat, p_x1cubed_x2sq):
        fam = mobius_null_family(1, 3)
        for s in (0.04, 0.1j):
            rep = period_at(fermat, p_x1cubed_x2sq, fam, s)
            assert rep.total == 0

    def test_wrong_degree_class(self, fermat, corrected_slice):
        with pytest.raises(DegreeError):
            period_at(fermat, MultiPoly.monomial(5, 1.0, (4, 0, 0, 0, 0)), corrected_slice, 0.1)


class TestDiagnostics:
    def test_residue_theorem_per_pair(self, fermat, corrected_slice, p_x1cubed_x2sq):
        rep = period_at(fermat, p_x1cubed_x2sq, corrected_slice, 0.1)
        for c in rep.per_pair.values():
            if not c.numerator_zero:
                assert c.residue_theorem_check < 1e-10

    def test_total_is_sum_of_pairs(self, fermat, corrected_slice, p_x1cubed_x2sq):
        rep = period_at(fermat, p_x1cubed_x2sq, corrected_slice, 0.2j)
        acc = sum((c.residue_sum for c in rep.per_pair.values()), 0j)
        assert abs(rep.total - acc) < 1e-15

    def test_dual_sum_on_reparametrized_family(self, fermat, corrected_slice, p_x1cubed_x2sq):
        # a generic reparametrization moves every zero to a finite point, so
        # the dual-sum diagnostic becomes applicable
        A = MobiusMap(1.1 + 0.3j, 0.4, -0.2 + 0.1j, 0.9 - 0.2j)
        fam = mobius_reparam(corrected_slice, A)
        rep = period_at(fermat, p_x1cubed_x2sq, fam, 0.1)
        applicable = [
            c.dual_sum_check for c in rep.per_pair.values() if c.dual_sum_check is not None
        ]
        assert applicable, "expected at least one pair with a defined dual sum"
        assert max(applicable) < 1e-8

    def test_collision_raised_for_shared_pole(self, fermat):
        # x0 and x1 share the zero t=0 while the numerator keeps a pole there
        x = BinaryForm(1, (0.0, 1.0))
        y = BinaryForm(1, (1.0, 0.0))
        zero = BinaryForm(1, (0.0, 0.0))
        xs = (x, 1.3 * x, y, BinaryForm(1, (0.2, 1.0)), BinaryForm(1, (0.9, 0.0)))
        ys = (zero, zero, zero, y, y)
        jet = CurveJet(0.1 + 0j, xs, ys, 1)
        P = MultiPoly.monomial(5, 1.0, (5, 0, 0, 0, 0))
        with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,1\) at s = 0\.1\+0j: "):
            period_of_jet(fermat, P, jet)
        # the scan's batched assembly names the same pair and sample
        fam = CurveFamily("shared-pole", lambda s: jet)
        with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,1\) at s = 0\.1\+0j: "):
            monomial_scan(fermat, fam, [0.1], 5)

    def test_pole_mismatch_names_pair_and_s(
        self, fermat, corrected_slice, p_x1cubed_x2sq, monkeypatch
    ):
        # a chart root declaring one more than its true multiplicity: the
        # denominator's local multiplicity then disagrees at the first live
        # pair with a pole there
        true_roots = period._SampleContext.chart_roots

        def inflated(ctx, j):
            return [(loc, mult + 1) for loc, mult in true_roots(ctx, j)]

        monkeypatch.setattr(period._SampleContext, "chart_roots", inflated)
        with pytest.raises(PoleMismatchError, match=r"^pair \(0,2\) at s = 0\.1\+0j: "):
            period_at(fermat, p_x1cubed_x2sq, corrected_slice, 0.1)
        with pytest.raises(PoleMismatchError, match=r"^pair \(0,2\) at s = 0\.1\+0j: "):
            monomial_scan(fermat, corrected_slice, [0.1], 5)

    def test_degenerate_sample_skips_dead_pairs(self, fermat, corrected_slice, p_x1cubed_x2sq):
        # at s = 0 the b-slot coordinate is the zero form; every pair meeting
        # it also has an identically-zero numerator, so those pairs drop out
        # instead of touching the vanishing chart
        rep = period_at(fermat, p_x1cubed_x2sq, corrected_slice, 0.0)
        for (j0, j1), c in rep.per_pair.items():
            if 3 in (j0, j1):
                assert c.numerator_zero

    def test_chart_missing_curve_with_live_numerator(self, fermat):
        # x3 identically zero while the (0,3) numerator survives: the pair
        # denominator F_3(x(t)) is the zero polynomial, a hard error
        x = BinaryForm(1, (0.0, 1.0))
        y = BinaryForm(1, (1.0, 0.0))
        zero = BinaryForm(1, (0.0, 0.0))
        xs = (x, y, BinaryForm(1, (1.0, 1.0)), zero, BinaryForm(1, (-1.0, 1.0)))
        ys = (zero, zero, y, zero, zero)
        jet = CurveJet(0.1 + 0j, xs, ys, 1)
        P = MultiPoly.monomial(5, 1.0, (5, 0, 0, 0, 0))
        with pytest.raises(BaseLocusCollisionError):
            period_of_jet(fermat, P, jet)


class TestDegreeTwoJets:
    """The assembly is degree-agnostic: reparametrization invariance, the
    per-pair residue theorem, and linearity in P hold for any first-order
    jet, contained or not, so random degree-2 jets stress the quartic-power
    denominators and chart bookkeeping."""

    @staticmethod
    def _random_jet(seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)

        def form():
            return BinaryForm(2, tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(3)))

        return CurveJet(0.1 + 0j, tuple(form() for _ in range(5)), tuple(form() for _ in range(5)), 2)

    def test_reparam_invariance(self, fermat, p_x1cubed_x2sq):
        from quintic_periods.geometry import transform_jet

        for seed in (11, 12, 13):
            jet = self._random_jet(seed)
            base = period_of_jet(fermat, p_x1cubed_x2sq, jet, quadrature=False)
            for A in (MobiusMap(0, 1, 1, 0), MobiusMap(0.7 - 0.2j, 0.3, 1.1 + 0.4j, -0.6)):
                moved = period_of_jet(
                    fermat, p_x1cubed_x2sq, transform_jet(jet, A), quadrature=False
                )
                rel = abs(base.total - moved.total) / max(abs(base.total), 1e-30)
                assert rel < 1e-8

    def test_residue_theorem_per_pair(self, fermat, p_x1cubed_x2sq):
        jet = self._random_jet(21)
        rep = period_of_jet(fermat, p_x1cubed_x2sq, jet, quadrature=False)
        scale = max(
            (abs(s.residue) for c in rep.per_pair.values() for s in c.sites), default=1.0
        )
        for c in rep.per_pair.values():
            if not c.numerator_zero:
                assert c.residue_theorem_check < 1e-8 * max(scale, 1.0)

    def test_linearity(self, fermat):
        jet = self._random_jet(31)
        P1 = MultiPoly.monomial(5, 1.0, (1, 1, 1, 1, 1))
        P2 = MultiPoly.monomial(5, 1.0, (0, 0, 5, 0, 0))
        comb = P1 * (0.5 + 2j) + P2 * (-1.5)
        lhs = period_of_jet(fermat, comb, jet, quadrature=False).total
        rhs = (0.5 + 2j) * period_of_jet(fermat, P1, jet, quadrature=False).total - 1.5 * (
            period_of_jet(fermat, P2, jet, quadrature=False).total
        )
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-30)


class TestSweep:
    def test_corrected_sweep_not_vanishing(self, fermat, corrected_slice, p_x1cubed_x2sq):
        sw = sweep(fermat, p_x1cubed_x2sq, corrected_slice, STANDARD_PERIOD_SAMPLES[:4])
        assert not sw.vanishes_identically
        assert len(sw.samples) == 4

    def test_mobius_sweep_vanishes(self, fermat, p_x1cubed_x2sq):
        fam = mobius_null_family(1, 0)
        sw = sweep(fermat, p_x1cubed_x2sq, fam, STANDARD_PERIOD_SAMPLES[:4])
        assert sw.vanishes_identically

    def test_empty_samples_rejected(self, fermat, corrected_slice, p_x1cubed_x2sq):
        with pytest.raises(ValueError):
            sweep(fermat, p_x1cubed_x2sq, corrected_slice, [])


class TestComparison:
    def test_synthetic_proportional(self, fermat, corrected_slice, p_x1cubed_x2sq):
        sw = sweep(fermat, p_x1cubed_x2sq, corrected_slice, STANDARD_PERIOD_SAMPLES[:5])
        c = 2.0 - 3.0j
        ref = lambda s: period_at(fermat, p_x1cubed_x2sq, corrected_slice, s).total / c
        comp = compare_closed_form(sw, ref)
        assert comp.verdict == "PROPORTIONAL"
        assert abs(comp.constant - c) < 1e-10
        assert comp.max_relative_deviation < 1e-12

    def test_corrupted_sample_mismatch(self, fermat, corrected_slice, p_x1cubed_x2sq):
        sw = sweep(fermat, p_x1cubed_x2sq, corrected_slice, STANDARD_PERIOD_SAMPLES[:5])
        sw.samples[2].total *= 1.5
        ref = lambda s: corrected_period_closed_form(s) / (2.0 - 3.0j)
        comp = compare_closed_form(sw, ref)
        assert comp.verdict == "MISMATCH"

    def test_closed_form_reference_mismatch(self, fermat, corrected_slice, p_x1cubed_x2sq):
        # ratio against g(s) varies like 1/s^5: decisively not proportional
        sw = sweep(fermat, p_x1cubed_x2sq, corrected_slice, STANDARD_PERIOD_SAMPLES)
        comp = compare_closed_form(sw, ClosedFormRef(zeta=ZETA))
        assert comp.verdict == "MISMATCH"

    def test_reference_zero_raises(self, fermat, corrected_slice, p_x1cubed_x2sq):
        sw = sweep(fermat, p_x1cubed_x2sq, corrected_slice, [0.1])
        with pytest.raises(ReferenceZeroError):
            compare_closed_form(sw, lambda s: 0j)

    def test_geometric_median_robust(self):
        pts = [1 + 1j] * 7 + [50 - 3j]
        med = geometric_median(pts)
        assert abs(med - (1 + 1j)) < 1e-9


class TestScan:
    def test_wrong_degree_rejected(self, fermat, corrected_slice):
        with pytest.raises(DegreeError):
            monomial_scan(fermat, corrected_slice, [0.1], 4)

    def test_row_count_and_shape(self, fermat, corrected_slice):
        table = monomial_scan(fermat, corrected_slice, [0.1, 0.2j], 5, quadrature=False)
        assert len(table.rows) == 126
        assert all(len(r.totals) == 2 for r in table.rows)
        assert any(not r.vanishes for r in table.rows)
        # the scanned value for x1^3 x2^2 agrees with period_at
        row = next(r for r in table.rows if r.exponents == (0, 3, 2, 0, 0))
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        direct = period_at(fermat, P, corrected_slice, 0.1).total
        assert abs(row.totals[0] - direct) < 1e-12 * max(abs(direct), 1.0)

    def test_null_family_scan_all_vanishing(self, fermat):
        fam = mobius_null_family(1, 2)
        table = monomial_scan(fermat, fam, [0.05, 0.1j], 5, quadrature=False)
        assert len(table.rows) == 126
        assert all(r.vanishes for r in table.rows)

    def test_linearity_against_scan_rows(self, fermat, corrected_slice):
        table = monomial_scan(fermat, corrected_slice, [0.17], 5, quadrature=False)
        rows = {r.exponents: r.totals[0] for r in table.rows}
        P = (
            MultiPoly.monomial(5, 2.0, (0, 3, 2, 0, 0))
            + MultiPoly.monomial(5, -3j, (2, 0, 1, 1, 1))
        )
        direct = period_at(fermat, P, corrected_slice, 0.17).total
        combo = 2.0 * rows[(0, 3, 2, 0, 0)] - 3j * rows[(2, 0, 1, 1, 1)]
        assert abs(direct - combo) < 1e-9 * max(abs(direct), 1e-30)

    # The batched assembly against the per-class reference path
    # (pair_integrand, then residues_at_zeros); the scan runs its quadrature
    # backend too, so its disagreement is checked as well.

    @staticmethod
    def _check_against_reference(fermat, fam, samples):
        table = monomial_scan(fermat, fam, samples, 5)
        for k, s in enumerate(samples):
            jet = fam.jet_at(s)
            for row in table.rows:
                P = MultiPoly.monomial(5, 1.0, row.exponents)
                ref = reference_period(fermat, P, jet)
                assert abs(row.totals[k] - ref) <= 1e-12 * row.vanish_scales[k], row.monomial
                # rows without any pole keep their exact zero
                assert (row.totals[k] == 0) == (ref == 0), row.monomial
                assert row.max_backend_disagreements[k] < 1e-8, row.monomial
        return table

    def test_corrected_slice_matches_reference(self, fermat, corrected_slice):
        table = self._check_against_reference(fermat, corrected_slice, [0.13 + 0.04j])
        assert any(not r.vanishes for r in table.rows)

    def test_seeded_catalog_line_matches_reference(self, fermat):
        import numpy as np

        rng = np.random.default_rng(5)
        descriptors = line_families()
        fam = descriptors[int(rng.integers(len(descriptors)))].family()
        samples = [complex(0.06 + 0.2 * rng.random(), 0.2 * rng.random() - 0.1) for _ in range(2)]
        table = self._check_against_reference(fermat, fam, samples)
        assert any(not r.vanishes for r in table.rows)

    def test_null_family_matches_reference(self, fermat):
        table = self._check_against_reference(fermat, mobius_null_family(2, 4), [0.09j])
        assert all(r.vanishes for r in table.rows)
