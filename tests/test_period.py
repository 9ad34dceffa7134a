import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintic_periods import period
from quintic_periods.catalog import (
    STANDARD_PERIOD_SAMPLES,
    ClosedFormRef,
    LineFamilyDescriptor,
    fermat_hypersurface,
    line_families,
    mobius_null_family,
    root5_neg1_minus_s5,
    shioda_quintic,
    zeta_value,
)
from quintic_periods.errors import (
    BaseLocusCollisionError,
    DegreeError,
    DimensionMismatchError,
    PoleMismatchError,
    ReferenceZeroError,
    UnsupportedShapeError,
)
from quintic_periods.geometry import CurveFamily, CurveJet, MobiusMap, mobius_reparam
from quintic_periods.multipoly import MultiPoly, monomial_charts
from quintic_periods.numkernel.residues import SiteLayout
from quintic_periods.numkernel.unipoly import BinaryForm
from quintic_periods.period import (
    compare_closed_form,
    geometric_median,
    monomial_scan,
    period_at,
    period_of_jet,
    sweep,
)

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

    def test_wrong_shape_rejected(self, corrected_slice):
        X = fermat_hypersurface(2, 4)
        with pytest.raises(UnsupportedShapeError):
            period_of_jet(X, MultiPoly.constant(4, 1.0), corrected_slice.jet_at(0.1))


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
        # where it applies, the dual sum adds up the residue theorem's residues
        for c in rep.per_pair.values():
            if c.dual_sum_check is not None:
                assert abs(c.dual_sum_check - c.residue_theorem_check) <= 1e-15 * max(
                    c.residue_theorem_check, 1e-300
                )

    def test_residue_theorem_sees_the_reported_residues(
        self, fermat, corrected_slice, p_x1cubed_x2sq, monkeypatch
    ):
        # a relative error of 1e-6 in the residues the period sums, at the
        # zeros of x_{j0}, must show in each pair's residue-theorem check
        apply = SiteLayout.apply

        def skewed(layout, *args):
            table = apply(layout, *args)
            for k, entry in enumerate(layout.entries):
                if entry.zero_multiplicity > 0:
                    table.residue[k] = table.residue[k] * (1 + 1e-6)
            return table

        monkeypatch.setattr(SiteLayout, "apply", skewed)
        A = MobiusMap(1.1 + 0.3j, 0.4, -0.2 + 0.1j, 0.9 - 0.2j)
        rep = period_at(fermat, p_x1cubed_x2sq, mobius_reparam(corrected_slice, A), 0.1)
        live = [c for c in rep.per_pair.values() if not c.numerator_zero]
        assert live
        for c in live:
            assert c.residue_theorem_check >= 1e-7 * abs(c.residue_sum)

    @staticmethod
    def _line_jet(seed: int, zero: int | None = None) -> CurveJet:
        """A seeded jet of degree 1; coordinate ``zero``, if given, is
        identically 0."""
        import numpy as np

        rng = np.random.default_rng(seed)

        def form():
            return BinaryForm(1, tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(2)))

        xs, ys = [form() for _ in range(5)], [form() for _ in range(5)]
        if zero is not None:
            xs[zero] = BinaryForm(1, (0.0, 0.0))
        return CurveJet(0.1 + 0j, tuple(xs), tuple(ys), 1)

    def test_no_dual_sum_without_its_preconditions(
        self, fermat, corrected_slice, p_x1cubed_x2sq
    ):
        # the partials F_1..F_4 of the cyclic quintic are not monomials, so
        # every pair has poles at neither coordinate's zeros
        rep = period_of_jet(shioda_quintic(), p_x1cubed_x2sq, self._line_jet(5))
        live = [c for c in rep.per_pair.values() if not c.numerator_zero]
        assert live
        assert all(c.dual_sum_check is None for c in live)
        # under t -> 1/t the zero of x_0 = t moves to [1:0], while x_2 = 1
        # gains a finite zero
        fam = mobius_reparam(corrected_slice, MobiusMap(0, 1, 1, 0))
        pair = period_at(fermat, p_x1cubed_x2sq, fam, 0.1).pair(0, 2)
        assert not pair.numerator_zero
        assert pair.dual_sum_check is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_residue_coordinate_is_a_collision(self, k):
        # x_k identically zero: the curve lies in the hyperplane x_k = 0, and
        # the live pair (k, k+1) has no zeros of x_k to sum residues over
        exps = [0] * 5
        exps[k + 1] = 5
        P = MultiPoly.monomial(5, 1.0, tuple(exps))
        named = rf"^pair \({k},{k + 1}\) at s = 0\.1\+0j: "
        with pytest.raises(BaseLocusCollisionError, match=named):
            period_of_jet(shioda_quintic(), P, self._line_jet(5, zero=k))

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

    def test_collision_needs_a_pole_at_the_shared_zero(self):
        # x0 = t and x1 = 1.3 t share the zero t = 0, a site of pair (0,1):
        # a class whose rows have no pole there returns, with order 0 at the
        # site, and one whose row has a pole there collides
        base = self._line_jet(5)
        t = BinaryForm(1, (0.0, 1.0))
        jet = CurveJet(base.s, (t, 1.3 * t) + base.x[2:], base.y, 1)
        for exps in ((5, 0, 0, 0, 0), (4, 0, 1, 0, 0)):
            P = MultiPoly.monomial(5, 1.0, exps)
            (site,) = period_of_jet(shioda_quintic(), P, jet).pair(0, 1).sites
            assert site.location == 0 and site.pole_order == 0, exps
        P = MultiPoly.monomial(5, 1.0, (0, 0, 5, 0, 0))
        with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,1\) at s = 0\.1\+0j: "):
            period_of_jet(shioda_quintic(), P, jet)

    @pytest.mark.parametrize("gap", [5e-8, 5e-6])
    def test_collision_is_the_site_rule(self, fermat, gap):
        # x0 = t and x1 = t - gap: at 5e-8 the two zeros are one site by
        # ``coincides``, so the engine refuses the pole there; at 5e-6 they
        # are two sites and it returns
        base = self._line_jet(0)
        xs = (BinaryForm(1, (0.0, 1.0)), BinaryForm(1, (-gap, 1.0))) + base.x[2:]
        jet = CurveJet(base.s, xs, base.y, 1)
        P = MultiPoly.monomial(5, 1.0, (0, 0, 2, 2, 1))
        if gap < 1e-7:
            with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,1\) at s = 0\.1\+0j: "):
                period_of_jet(fermat, P, jet)
        else:
            assert period_of_jet(fermat, P, jet).pair(0, 1).sites[0].pole_order == 4

    def test_min_pole_separation_skips_coinciding_roots(self, fermat):
        ctx = period._SampleContext(fermat, self._line_jet(0))
        ctx._roots = {0: [(0.5 + 0j, 4)], 1: [(0.5 + 1e-9j, 4), (2.0 + 0j, 4)]}
        assert ctx.min_pole_separation() == 1.5

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

    def test_numerator_rows_only_for_nonzero_inner_factors(self, fermat, monkeypatch):
        # on a catalog line 4 of the 10 inner factors are exactly 0: only the
        # other 6 are convolved with the class rows, and the 4 pairs still
        # report a zero numerator
        from quintic_periods.griffiths import pair_inners, pair_wedges

        convolve, convolved = period._convolve_rows, []

        def counting(rows, coeffs):
            convolved.append(len(coeffs))
            return convolve(rows, coeffs)

        monkeypatch.setattr(period, "_convolve_rows", counting)
        P, s = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0)), 0.1 + 0.05j
        for d in line_families()[::10]:
            fam = d.family()
            jet = fam.jet_at(s)
            inners, _ = pair_inners(jet, pair_wedges(jet))
            rep = period_at(fermat, P, fam, s)
            dead = [not row.any() for row in inners]
            assert [c.numerator_zero for _, c in sorted(rep.per_pair.items())] == dead
            assert sum(dead) == 4 and convolved == [6], d.identifier
            monomial_scan(fermat, fam, [s], 5)
            assert convolved == [6, 6], d.identifier
            convolved.clear()

    def test_per_sample_work_once_per_coordinate(self, fermat, monkeypatch):
        # one period on a catalog line: no coefficient product has an empty
        # factor, and each partial chart's lead factor is read once per
        # coordinate, not by each live pair for both of its coordinates
        from quintic_periods import griffiths
        from quintic_periods.numkernel import unipoly

        product, empty = unipoly.coeff_product, []
        compose, reads = MultiPoly.compose_unipoly, []

        def checked(a, b):
            if not (len(a) and len(b)):
                empty.append((a, b))
            return product(a, b)

        class Read(tuple):
            """A partial chart's coefficients, recording each one read."""

            def __getitem__(self, k):
                if isinstance(k, int):
                    reads.append(self.j)
                return tuple.__getitem__(self, k)

        def recorded(F, polys):
            chart = compose(F, polys)
            for j, partial in enumerate(fermat.partials):
                if F is partial:
                    coeffs = Read(chart.coeffs)
                    coeffs.j = j
                    return unipoly.UniPoly.from_trimmed(coeffs)
            return chart

        P, s = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0)), 0.1 + 0.05j
        for d in line_families()[::10]:
            jet = d.family().jet_at(s)
            # the charts of the earlier families' x- and 1-slots are kept
            fermat.line_data.clear()
            with monkeypatch.context() as patch:
                for module in (unipoly, griffiths):
                    patch.setattr(module, "coeff_product", checked)
                patch.setattr(MultiPoly, "compose_unipoly", recorded)
                rep = period_of_jet(fermat, P, jet)
            assert rep == period_of_jet(fermat, P, jet), d.identifier
            assert not empty, d.identifier
            assert sorted(reads) == list(range(5)), d.identifier
            reads.clear()

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

        # seeds 2-164 have a 4-fold pole within 0.003-0.1 of another pole
        for seed in (11, 12, 13, 2, 4, 8, 111, 135, 164):
            jet = self._random_jet(seed)
            base = period_of_jet(fermat, p_x1cubed_x2sq, jet)
            for A in (MobiusMap(0, 1, 1, 0), MobiusMap(0.7 - 0.2j, 0.3, 1.1 + 0.4j, -0.6)):
                moved = period_of_jet(fermat, p_x1cubed_x2sq, transform_jet(jet, A))
                rel = abs(base.total - moved.total) / max(abs(base.total), 1e-30)
                assert rel < 1e-8

    def test_contour_checks_the_declared_structure(self, fermat, p_x1cubed_x2sq, monkeypatch):
        # the quadrature backend integrates F_j0(x(t)) F_j1(x(t)) as it
        # stands, so declared roots of F_4 moved by 1e-6, with their
        # multiplicities kept, breach the backend agreement
        from quintic_periods.cli import DEFAULT_TOLERANCES, period_breach

        jet = self._random_jet(11)
        rep = period_of_jet(fermat, p_x1cubed_x2sq, jet)
        assert rep.max_backend_disagreement < 1e-8
        assert period_breach(rep, DEFAULT_TOLERANCES) is None
        true_roots = period._SampleContext.chart_roots

        def moved(ctx, j):
            roots = true_roots(ctx, j)
            return [(loc + 1e-6, mult) for loc, mult in roots] if j == 4 else roots

        monkeypatch.setattr(period._SampleContext, "chart_roots", moved)
        rep = period_of_jet(fermat, p_x1cubed_x2sq, jet)
        assert rep.max_backend_disagreement >= 1e-8
        assert "backend_agreement 1e-08 in pair (" in period_breach(rep, DEFAULT_TOLERANCES)

    def test_chart_roots_of_fourth_powers(self, fermat):
        # F_j(x(t)) = 5 x_j(t)^4 has two 4-fold roots; they come from the
        # roots of x_j, checked against the centroid of the four nearest
        # 50-digit roots of the expanded chart
        mpmath = pytest.importorskip("mpmath")
        from quintic_periods.geometry import transform_jet

        for seed in (11, 13):
            for A in (MobiusMap(0, 1, 1, 0), MobiusMap(0.7 - 0.2j, 0.3, 1.1 + 0.4j, -0.6)):
                ctx = period._SampleContext(fermat, transform_jet(self._random_jet(seed), A))
                for j in range(5):
                    sites = ctx.chart_roots(j)
                    assert [mult for _, mult in sites] == [4, 4], (seed, j)
                    with mpmath.workdps(50):
                        coeffs = [mpmath.mpc(c) for c in reversed(ctx.lines[j].chart.coeffs)]
                        exact = mpmath.polyroots(coeffs, maxsteps=100, extraprec=50)
                    for loc, _ in sites:
                        near = sorted(exact, key=lambda r: abs(r - loc))[:4]
                        centroid = complex(sum(near) / 4)
                        assert abs(loc - centroid) < 1e-10 * abs(centroid), (seed, j)

    def test_trimmed_chart_root_stays_at_infinity(self, fermat, p_x1cubed_x2sq):
        # a leading coefficient of x_2 below the 1e-12 trimming scale puts
        # one zero of x_2 at [1:0]; F_2(x(t)) then has one finite 4-fold
        # site, and the period is that of the exact degree drop
        for seed in (11, 12, 13):
            jet = self._random_jet(seed)
            periods = []
            for lead in (0.0, 1e-14):
                x = list(jet.x)
                x[2] = BinaryForm(2, (*x[2].coeffs[:2], lead))
                dropped = CurveJet(jet.s, tuple(x), jet.y, 2)
                ctx = period._SampleContext(fermat, dropped)
                assert [mult for _, mult in ctx.chart_roots(2)] == [4], seed
                rep = period_of_jet(fermat, p_x1cubed_x2sq, dropped)
                periods.append(rep.total)
            assert abs(periods[1] - periods[0]) < 1e-8 * abs(periods[0]), seed

    def test_residue_theorem_per_pair(self, fermat, p_x1cubed_x2sq):
        jet = self._random_jet(21)
        rep = period_of_jet(fermat, p_x1cubed_x2sq, jet)
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
        lhs = period_of_jet(fermat, comb, jet).total
        rhs = (0.5 + 2j) * period_of_jet(fermat, P1, jet).total - 1.5 * (
            period_of_jet(fermat, P2, jet).total
        )
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-30)


class TestInnerTable:
    """griffiths.pair_inners, the table of inner factors the assembly reads,
    against the scalar pair_inner of each pair.  Both multiply and sum with
    the same arithmetic, so the coefficients must agree exactly: the engine
    turns a last-bit change of them into oracle flips on reparametrized
    lines."""

    @staticmethod
    def _agree(jet) -> int:
        """Asserts agreement on every pair; returns the number of zero pairs."""
        import itertools

        import numpy as np

        from quintic_periods.griffiths import pair_inner, pair_inners, pair_wedges

        wedges = pair_wedges(jet)
        inners, scales = pair_inners(jet, wedges)
        zeros = 0
        for k, (j0, j1) in enumerate(itertools.combinations(range(5), 2)):
            ref, ref_scale = pair_inner(jet, j0, j1, wedges)
            assert scales[k] == ref_scale
            assert inners[k].any() != ref.is_zero()
            row = np.zeros_like(inners[k])
            row[: len(ref.coeffs)] = ref.coeffs
            assert np.array_equal(inners[k], row)
            zeros += ref.is_zero()
        return zeros

    def test_random_jets(self):
        for seed in range(8):
            self._agree(TestDegreeTwoJets._random_jet(seed))
            # degree 1; seed 5 is the jet of the Shioda-quintic tests
            self._agree(TestDiagnostics._line_jet(seed))

    def test_fermat_catalog_lines(self):
        for d in line_families():
            assert self._agree(d.family().jet_at(0.1 + 0.05j)) == 4, d.identifier

    def test_null_family_is_all_zero(self):
        fam = mobius_null_family(1, 7)
        assert self._agree(fam.jet_at(0.2)) == 10


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

    def test_shapes_checked_as_period_does(self, fermat, corrected_slice):
        # a hypersurface in 4 coordinates, at the degree its scan takes
        X = fermat_hypersurface(2, 4)
        with pytest.raises(UnsupportedShapeError, match="implemented for 5 coordinates, got 4"):
            monomial_scan(X, corrected_slice, [0.1], 4)
        # a family of 4 coordinates on the quintic
        jet = corrected_slice.jet_at(0.1)
        four = CurveFamily("four", lambda s: CurveJet(s, jet.x[:4], jet.y[:4], 1))
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        for run in (lambda: period_at(fermat, P, four, 0.1),
                    lambda: monomial_scan(fermat, four, [0.1], 5)):
            with pytest.raises(DimensionMismatchError, match="jet does not match"):
                run()

    def test_a_row_does_not_depend_on_the_rows_beside_it(self, fermat):
        # the same class chart assembled alone or among all 126 monomial
        # charts of its sample gives the same report, to the bit; period_at
        # and the scan differ in the last bits only through the chart, which
        # MultiPoly.compose_unipoly and monomial_charts round differently
        descriptors = line_families()
        for fam in (descriptors[0].family(), descriptors[21].family()):
            for s in STANDARD_PERIOD_SAMPLES[:2]:
                ctx = period._SampleContext(fermat, fam.jet_at(s))
                charts = monomial_charts(ctx.xs, 5, ctx.width)
                every = period._assemble(ctx, charts)
                for k in range(0, len(charts), 9):
                    alone = period._assemble(ctx, charts[k : k + 1])
                    for field in ("totals", "vanish_scales", "max"):
                        a, b = getattr(alone, field), getattr(every, field)[k : k + 1]
                        assert a.tobytes() == b.tobytes(), (fam.name, s, k, field)

    def test_row_count_and_shape(self, fermat, corrected_slice):
        table = monomial_scan(fermat, corrected_slice, [0.1, 0.2j], 5)
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
        table = monomial_scan(fermat, fam, [0.05, 0.1j], 5)
        assert len(table.rows) == 126
        assert all(r.vanishes for r in table.rows)

    def test_linearity_against_scan_rows(self, fermat, corrected_slice):
        table = monomial_scan(fermat, corrected_slice, [0.17], 5)
        rows = {r.exponents: r.totals[0] for r in table.rows}
        P = (
            MultiPoly.monomial(5, 2.0, (0, 3, 2, 0, 0))
            + MultiPoly.monomial(5, -3j, (2, 0, 1, 1, 1))
        )
        direct = period_at(fermat, P, corrected_slice, 0.17).total
        combo = 2.0 * rows[(0, 3, 2, 0, 0)] - 3j * rows[(2, 0, 1, 1, 1)]
        assert abs(direct - combo) < 1e-9 * max(abs(direct), 1e-30)

    def test_worst_backend_is_the_largest_row_disagreement(self, fermat, corrected_slice):
        samples = [0.1, 0.12j, 0.15 + 0.05j]
        for fam in (corrected_slice, line_families()[11].family(), line_families()[37].family()):
            table = monomial_scan(fermat, fam, samples, 5)
            assert len(table.worst_backend) == len(samples)
            for k, (worst, pair, monomial) in enumerate(table.worst_backend):
                by_row = {r.monomial: r.max_backend_disagreements[k] for r in table.rows}
                assert pair is not None and worst == max(by_row.values()) > 0
                assert by_row[monomial] == worst

    # The batched assembly against the catalog's closed form
    # (LineFamilyDescriptor.monomial_period); the scan runs its quadrature
    # backend too, so its disagreement is checked as well.

    @staticmethod
    def _check_against_closed_form(fermat, d, fam, samples):
        table = monomial_scan(fermat, fam, samples, 5)
        for k, s in enumerate(samples):
            for row in table.rows:
                want = d.monomial_period(row.exponents, s)
                assert abs(row.totals[k] - want) <= 1e-13 * abs(want), row.monomial
                # rows without any pole keep their exact zero
                assert (row.totals[k] == 0) == (want == 0), row.monomial
                assert row.max_backend_disagreements[k] < 1e-8, row.monomial
        return table

    def test_corrected_slice_matches_closed_form(self, fermat, corrected_slice):
        d = LineFamilyDescriptor((0, 1), 1)
        table = self._check_against_closed_form(fermat, d, corrected_slice, [0.13 + 0.04j])
        assert any(not r.vanishes for r in table.rows)

    def test_seeded_catalog_line_matches_closed_form(self, fermat):
        import numpy as np

        rng = np.random.default_rng(5)
        descriptors = line_families()
        d = descriptors[int(rng.integers(len(descriptors)))]
        samples = [complex(0.06 + 0.2 * rng.random(), 0.2 * rng.random() - 0.1) for _ in range(2)]
        table = self._check_against_closed_form(fermat, d, d.family(), samples)
        assert any(not r.vanishes for r in table.rows)

    def test_null_family_rows_are_exact_zeros(self, fermat):
        table = monomial_scan(fermat, mobius_null_family(2, 4), [0.09j], 5)
        for row in table.rows:
            assert row.totals == [0j], row.monomial
            assert row.max_backend_disagreements == [0.0], row.monomial


class TestReduction:
    """``period._Reduction`` against the Python loops it replaced: the same
    sums to the bit, each site's ``backend_disagreement`` on its own rows,
    and maxima that keep a NaN wherever it sits."""

    @staticmethod
    def _reduction(pairs, rows):
        """``period._Reduction`` of stand-in pairs, each a list of its sites'
        table lines (residue, quadrature, contour magnitude), ``rows``
        values each, with a pole of order 1 in every row."""
        import numpy as np

        from quintic_periods.numkernel.residues import SiteTable

        class Pair:
            def __init__(self, start, count):
                self.sites = range(start, start + count)

        stand_ins, lines = [], []
        for sites in pairs:
            stand_ins.append(Pair(len(lines), len(sites)))
            lines += sites
        shape = (len(lines), rows)
        table = SiteTable(
            np.ones(shape, dtype=int),
            *(np.array([line[n] for line in lines]).reshape(shape) for n in range(3)),
        )
        return stand_ins, period._Reduction(stand_ins, [None] * len(lines), table)

    def test_against_the_site_rows(self, fermat):
        import numpy as np

        from quintic_periods.multipoly import monomial_charts
        from quintic_periods.numkernel.residues import backend_disagreement

        for d in line_families()[::7]:
            ctx = period._SampleContext(fermat, d.family().jet_at(0.15 + 0.05j))
            p_rows = monomial_charts(ctx.xs, 5, ctx.width)
            red = period._assemble(ctx, p_rows)
            table = red.table
            zero = np.zeros(len(p_rows), dtype=complex)
            sums = [sum((table.residue[k] for k in pair.sites), zero) for pair in red.pairs]
            assert np.array_equal(red.sums, sums)
            assert np.array_equal(red.totals, sum(sums))
            sites = [(i, k) for i, pair in enumerate(red.pairs) for k in pair.sites]
            assert red.owner == [i for i, _ in sites]
            for d_site, (i, k) in zip(red.disagreement, sites):
                assert (d_site[table.order[k] == 0] == 0).all()
                if red.entries[k].radius is not None:
                    own = backend_disagreement(
                        table.residue[k], table.quadrature[k], table.quadrature_scale[k]
                    )
                    pole = table.order[k] > 0
                    np.testing.assert_allclose(d_site[pole], own[pole], rtol=1e-15, atol=0)
            for i, pair in enumerate(red.pairs):
                worst = red.disagreement[[k for k, (j, _) in enumerate(sites) if j == i]]
                assert np.array_equal(red.pair_max[i], worst.max(axis=0, initial=0.0))
            assert np.array_equal(red.max, red.disagreement.max(axis=0, initial=0.0))

    def test_maxima_keep_nan_wherever_it_sits(self):
        import numpy as np

        def site(residue, quadrature):
            # one row with a pole, its contour magnitude 1
            return residue, quadrature, 1.0

        nan = complex("nan")
        for first in (True, False):
            sites = [site(nan, 1.0), site(1.0, 1.5)]
            _, red = self._reduction([[], sites if first else sites[::-1], [site(2.0, 2.0)]], 1)
            assert red.pair_max[0, 0] == 0.0 and red.pair_max[2, 0] == 0.0
            assert np.isnan(red.pair_max[1, 0]) and np.isnan(red.max[0])
            assert np.isnan(red.vanish_scales[0]) and np.isnan(red.totals[0])


    def test_running_sums_are_python_sums_in_site_order(self):
        # pair sums add each pair's site residues from 0 in site order, and
        # totals add the pair sums in pair order, as Python's sum does: the
        # same bits with -0.0, NaN and pairs of 0 to 3 sites
        import numpy as np

        nan, neg = complex("nan"), complex(-0.0, -0.0)

        def site(*residues):
            # no quadrature circle: both backend lines are 0
            return np.array(residues, dtype=complex), [0j] * len(residues), [0.0] * len(residues)

        # row 1 depends on the site order, row 4 on the pair order
        pairs, red = self._reduction([
            [site(neg, 1e16, 1.0, neg, 1e16)],
            [],
            [site(neg, 1e16, nan, -1e-300, 1.0), site(neg, 1.0, 2.0, 1e-300, neg),
             site(complex(-0.0, 1.0), 1.0, 0.5, neg, 0.0)],
            [site(1.0 + 1e-17j, 1.0, -2.5, neg, 0.5), site(neg, neg, 1e-17, neg, 0.5)],
        ], 5)
        zero = np.zeros(5, dtype=complex)
        sums = [sum((red.table.residue[k] for k in pair.sites), zero) for pair in pairs]
        assert np.array(sums).tobytes() == red.sums.tobytes()
        assert sum(sums).tobytes() == red.totals.tobytes()
        # a sum from 0 is never -0.0
        parts = np.concatenate([red.sums.real, red.sums.imag])
        assert not (np.signbit(parts) & (parts == 0)).any() and np.isnan(red.totals[2])

    @pytest.mark.parametrize("rows", [1, 126])
    def test_running_sums_add_one_element_after_another(self, rows):
        # pair sums and totals as loops of += from zeros add them, under
        # repr, for 1 to 11 pairs of 0 to 10 sites with +-0, +-inf and NaN
        # parts among values of many magnitudes; a pairwise sum (numpy's
        # add.reduce along a contiguous axis of 8 or more) moves the bits
        import numpy as np

        rng = np.random.default_rng(rows)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]

        def parts(n):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
            special = rng.random(n) < 0.04
            x[special] = rng.choice(specials, special.sum())
            return x

        def site():
            residues = np.empty(rows, dtype=complex)
            residues.real, residues.imag = parts(rows), parts(rows)
            return residues, np.zeros(rows, dtype=complex), np.zeros(rows)

        # inf - inf is NaN, as are the backend disagreements it meets
        with np.errstate(invalid="ignore"):
            for npairs in range(1, 12):
                for _ in range(4):
                    sites = [[site() for _ in range(rng.integers(11))] for _ in range(npairs)]
                    pairs, red = self._reduction(sites, rows)
                    sums = np.zeros((npairs, rows), dtype=complex)
                    for i, pair in enumerate(pairs):
                        for k in pair.sites:
                            sums[i] += red.table.residue[k]
                    totals = np.zeros(rows, dtype=complex)
                    for pair_sum in sums:
                        totals += pair_sum
                    assert repr(red.sums.tolist()) == repr(sums.tolist()), npairs
                    assert repr(red.totals.tolist()) == repr(totals.tolist()), npairs

class TestLocationMaps:
    """The residue engine runs every site and check site of every pair at a
    sample through one apply of a SiteLayout, stacked into blocks by exact
    location, width and order."""

    @staticmethod
    def _counting(monkeypatch) -> list:
        """Records the SiteLayout of every apply the assembly makes."""
        built = []
        apply = SiteLayout.apply

        def counting(layout, *args):
            built.append(layout)
            return apply(layout, *args)

        monkeypatch.setattr(SiteLayout, "apply", counting)
        return built

    @staticmethod
    def _block_keys(site_map) -> list:
        """(location, width, order) of each block, location None at [1:0]."""
        firsts = [site_map.entries[block.index[0]] for block in site_map.blocks]
        return [(None if e.at_infinity else e.location, e.width, e.order) for e in firsts]

    def test_one_site_map_per_pole_location(self, fermat, monkeypatch):
        # on a Fermat line every pole of every pair sits at t = 0 or [1:0]:
        # six live pairs, each with a site and a check site, in one map
        # whose blocks sit at those two locations
        built = self._counting(monkeypatch)
        s = 0.1 + 0.05j
        scan_maps = {1: 0, 2: 0}
        for d in line_families():
            fam = d.family()
            a = min(k for k in range(5) if k not in d.pair)
            exps = [0] * 5
            exps[d.pair[1]], exps[a] = 3, 2
            built.clear()
            period_at(fermat, MultiPoly.monomial(5, 1.0, tuple(exps)), fam, s)
            (site_map,) = built
            assert len(site_map.entries) == 12, d.identifier
            keys = self._block_keys(site_map)
            assert {loc for loc, _, _ in keys} == {0j, None}, d.identifier
            assert len(set(keys)) == len(keys), d.identifier
            # the scan has no check sites: [1:0] only where a live pair's
            # x_{j0} drops degree
            built.clear()
            monomial_scan(fermat, fam, [s], 5)
            (site_map,) = built
            keys = self._block_keys(site_map)
            locations = {None if e.at_infinity else e.location for e in site_map.entries}
            assert locations <= {0j, None}, d.identifier
            assert len(set(keys)) == len(keys), d.identifier
            scan_maps[len(locations)] += 1
        assert scan_maps[2] > 0

    @staticmethod
    def _dropped_jet(seed: int) -> CurveJet:
        """A random degree-2 jet whose x_0 and x_1 drop degree: every pair
        (0, k) and (1, k) has a site at [1:0]."""
        jet = TestDegreeTwoJets._random_jet(seed)
        x = list(jet.x)
        for j in (0, 1):
            x[j] = BinaryForm(2, (*x[j].coeffs[:2], 0.0))
        return CurveJet(jet.s, tuple(x), jet.y, 2)

    def test_mixed_widths_at_infinity_match_the_scalar_oracle(self, fermat, monkeypatch):
        # pairs whose inner factors differ in degree share [1:0] in the map
        # with different numerator widths; each entry there must give the
        # scalar oracle's residue (each pair's pair_numerator over the
        # expanded F_j0(x(t)) F_j1(x(t)), then its residue at [1:0]), the
        # pole order deg + 2 - sum m of the pair integrand, and its exact
        # zeros.  x0^3 x1^2 composes to a low degree, so some pairs have no
        # pole there.  Every finite site of every pair must give the
        # oracle's pole order and exact zeros too, and its residue to 1e-8
        # of the pair's largest.  The oracle is built here from the names
        # perfbench/tracer.py keeps, until ROADMAP item 6's mpmath oracle
        # replaces it.
        from quintic_periods.griffiths import pair_numerator, pair_wedges
        from quintic_periods.numkernel.residues import (
            RationalFunction,
            residue_at_infinity_analytic,
            residues_at_zeros,
        )

        built = self._counting(monkeypatch)
        classes = [MultiPoly.monomial(5, 1.0, e) for e in ((0, 3, 2, 0, 0), (3, 2, 0, 0, 0))]
        mixed = zeros = 0
        for seed in range(11, 21):
            jet = self._dropped_jet(seed)
            for P in classes:
                built.clear()
                rep = period_of_jet(fermat, P, jet)
                (site_map,) = built
                sites = [e for e in site_map.entries if e.at_infinity and e.zero_multiplicity]
                mixed += len({e.width for e in sites}) > 1
                xs = jet.x_chart()
                wedges, p_chart = pair_wedges(jet), P.compose_unipoly(xs)
                partials = [F.compose_unipoly(xs) for F in fermat.partials]
                for (j0, j1), c in rep.per_pair.items():
                    if c.numerator_zero:
                        continue
                    num, _ = pair_numerator(jet, j0, j1, wedges, p_chart)
                    rf = RationalFunction(num, partials[j0] * partials[j1])
                    finite = [site for site in c.sites if not site.at_infinity]
                    refs = residues_at_zeros(rf, jet.x[j0], guard=jet.x[j1]).sites
                    refs = [ref for ref in refs if not ref.at_infinity]
                    assert [s.location for s in finite] == [r.location for r in refs]
                    scale = max(abs(site.residue) for site in c.sites)
                    for site, ref in zip(finite, refs):
                        where = (seed, j0, j1, site.location)
                        assert site.pole_order == ref.pole_order, where
                        assert (site.residue == 0) == (ref.residue == 0), where
                        assert abs(site.residue - ref.residue) <= 1e-8 * scale, where
                    if j0 > 1:
                        continue
                    (site,) = [site for site in c.sites if site.at_infinity]
                    ref = residue_at_infinity_analytic(rf)
                    assert site.pole_order == max(rf.num.degree + 2 - rf.den.degree, 0)
                    assert (site.residue == 0) == (ref == 0) == (site.pole_order == 0)
                    assert abs(site.residue - ref) <= 1e-12 * abs(ref), (seed, j0, j1)
                    zeros += site.residue == 0
        assert mixed >= 10 and zeros > 0

    def test_pole_rule_reads_the_shared_magnitudes(self, fermat, monkeypatch):
        # at t = 0 and [1:0] a block's pole rule reads the magnitudes the
        # numerator-zero test took, reversed at [1:0], and a shifted site
        # those of its shifted rows: each must decide as the rule does on
        # the rows in the local coordinate
        import numpy as np

        from quintic_periods.numkernel.residues import _Block

        apply, seen = _Block.apply, set()

        def checked(block, leads, dens, nums, lives, mags, tops, table):
            apply(block, leads, dens, nums, lives, mags, tops, table)
            num = nums[block.stacks, :, : block.width]
            if block.at_infinity:
                local, kind = num[:, :, ::-1], "[1:0]"
            elif block.shift is None:
                local, kind = num, "t = 0"
            else:
                local, kind = num @ block.shift, "shifted"
            mag = np.abs(local)
            big = mag > 1e-9 * mag.max(axis=-1, keepdims=True)
            has_pole = lives[block.stacks] & (np.argmax(big, axis=2) < block.order)
            assert np.array_equal(table.order[block.index] > 0, has_pole), kind
            assert not table.residue[block.index][~has_pole].any(), kind
            seen.add(kind)

        monkeypatch.setattr(_Block, "apply", checked)
        for d in line_families()[::10]:
            monomial_scan(fermat, d.family(), [0.1 + 0.05j], 5)
        for seed in range(11, 15):
            jet = self._dropped_jet(seed)
            period_of_jet(fermat, MultiPoly.monomial(5, 1.0, (3, 2, 0, 0, 0)), jet)
            monomial_scan(fermat, CurveFamily("dropped", lambda s: jet), [jet.s], 5)
        assert seen == {"t = 0", "[1:0]", "shifted"}

    def test_collision_names_its_own_pair(self, fermat, monkeypatch):
        # the zero of x_0 at t = 0 is a site of pairs (0,1) and (0,2) in one
        # map; x_2 vanishes there too, so only (0,2) collides, and the error
        # must name it, not its neighbour in the map
        import numpy as np

        rng = np.random.default_rng(3)

        def form():
            return BinaryForm(1, tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(2)))

        t = BinaryForm(1, (0.0, 1.0))
        xs = [t, form(), 2.0 * t, form(), form()]
        ys = tuple(form() for _ in range(5))
        P = MultiPoly.monomial(5, 1.0, (1, 1, 1, 1, 1))
        # with x_2 moved off t = 0, pair (0,1) has a pole at the shared site
        apart = CurveJet(0.1 + 0j, tuple(xs[:2] + [BinaryForm(1, (0.5, 2.0))] + xs[3:]), ys, 1)
        (site,) = period_of_jet(fermat, P, apart).pair(0, 1).sites
        assert site.location == 0 and site.pole_order > 0
        built = self._counting(monkeypatch)
        jet = CurveJet(0.1 + 0j, tuple(xs), ys, 1)
        named = r"^pair \(0,2\) at s = 0\.1\+0j: zero of the residue coordinate at 0"
        with pytest.raises(BaseLocusCollisionError, match=named):
            period_of_jet(fermat, P, jet)
        (site_map,) = built
        at_zero = [e for e in site_map.entries if not e.at_infinity and e.location == 0]
        assert sum(e.zero_multiplicity > 0 for e in at_zero) >= 2
        fam = CurveFamily("collision", lambda s: jet)
        with pytest.raises(BaseLocusCollisionError, match=named):
            monomial_scan(fermat, fam, [0.1], 5)


class TestLineData:
    """``Hypersurface.line_data``: what the period assembly reads of the
    partials along a line, kept across samples by the exact coordinate
    charts it depends on, within a constant size, and never a failure."""

    def test_slots_that_do_not_move_are_reused_across_samples(self, fermat, monkeypatch):
        # on a catalog line the x-, -zeta x- and 1-slots do not depend on s:
        # from the third sample on their partials are neither composed nor
        # rooted, as the line data keeps a value from a key's second
        # compute; every report equals the one computed without kept data,
        # to the bit
        from quintic_periods.numkernel import roots

        d = line_families()[13]
        moving = [k for k in range(5) if k not in d.pair][1:]
        fam, P = d.family(), MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        compose, evaluate = MultiPoly.compose_unipoly, MultiPoly.evaluate
        composed, evaluated, rooted = set(), set(), []

        def partial_index(F):
            return next((j for j, Fj in enumerate(fermat.partials) if Fj is F), None)

        def composing(F, polys):
            composed.add(partial_index(F))
            return compose(F, polys)

        def evaluating(F, point):
            evaluated.add(partial_index(F))
            return evaluate(F, point)

        def rooting(p):
            rooted.append(p)
            return roots.poly_roots(p)

        samples = STANDARD_PERIOD_SAMPLES[:4]
        reports = []
        for n, s in enumerate(samples):
            composed.clear()
            evaluated.clear()
            rooted.clear()
            with monkeypatch.context() as patch:
                patch.setattr(MultiPoly, "compose_unipoly", composing)
                patch.setattr(MultiPoly, "evaluate", evaluating)
                patch.setattr(period, "poly_roots", rooting)
                reports.append(period_at(fermat, P, fam, s))
            # the class chart is composed too; it is no partial
            composed.discard(None)
            if n < 2:
                assert composed == evaluated == set(range(5)) and rooted, n
            else:
                assert composed == set(moving) and not rooted, n
        for s, rep in zip(samples, reports):
            fermat.line_data.clear()
            assert repr(rep) == repr(period_at(fermat, P, fam, s)), s

    def test_a_line_that_never_repeats_keeps_only_what_repeats(self, fermat):
        # a catalog family moved by a new t -> t + c at each of 20 samples:
        # no zero list and no site plan repeats, so both stores hold marks
        # only; t -> t + c leaves the 1-slot's chart as it is, so its
        # partial's line is the one value kept
        from quintic_periods.geometry import _MARK

        d = line_families()[13]
        a_slot = min(k for k in range(5) if k not in d.pair)
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        for k in range(20):
            fam = mobius_reparam(d.family(), MobiusMap(1, 0.1 + 0.05j * k, 0, 1))
            period_at(fermat, P, fam, 0.1 + 0.01 * k)
        one = fam.jet_at(0.1 + 0.01 * k).x_chart()[a_slot]
        kept = [key for key, v in fermat.line_data._entries.items() if v is not _MARK]
        assert [key[1:] for key in kept] == [(marshal.dumps(one.coeffs, 2),)]
        assert isinstance(fermat.line_data._entries[kept[0]], period._PartialLine)
        assert len(fermat.site_plans) == 20
        assert all(v is _MARK for v in fermat.site_plans._entries.values())

    def test_random_catalog_traffic_composes_only_the_moving_slots(self, fermat, monkeypatch):
        # after two passes over all 50 families, random (family, s) periods:
        # a partial's record is keyed by its terms and the charts it reads,
        # so the Fermat partials' fixed slots take 13 keys (charts t, 1 and
        # -zeta^k t; the zero lists of t and -zeta^k t).  Each period adds
        # two marks for its moving slots, so a fixed key stays while its
        # zeta index is read again within (LINE_DATA_SIZE - 15) // 2
        # periods (the 13 keys and 2 marks in each of gap + 1 periods fit),
        # and it is kept from its second read on.  A period whose last two
        # gaps are that short composes only its two moving slots' partials
        import numpy as np

        from quintic_periods.geometry import LINE_DATA_SIZE

        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        descriptors = line_families()
        families = [d.family() for d in descriptors]
        for s in STANDARD_PERIOD_SAMPLES[:2]:
            for fam in families:
                period_at(fermat, P, fam, s)
        compose, composed = MultiPoly.compose_unipoly, []

        def composing(F, polys):
            composed.append(next((j for j, Fj in enumerate(fermat.partials) if Fj is F), None))
            return compose(F, polys)

        rng = np.random.default_rng(31)
        room = (LINE_DATA_SIZE - 15) // 2
        reads = {k: [-1, -1] for k in range(5)}
        checked = 0
        monkeypatch.setattr(MultiPoly, "compose_unipoly", composing)
        for n in range(300):
            index = int(rng.integers(50))
            d = descriptors[index]
            s = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.uniform())
            composed.clear()
            period_at(fermat, P, families[index], s)
            before, last = reads[d.zeta_index]
            if n - last <= room and last - before <= room:
                moving = [k for k in range(5) if k not in d.pair][1:]
                assert sorted(j for j in composed if j is not None) == moving, (n, d.identifier)
                checked += 1
            reads[d.zeta_index] = [last, n]
        assert checked >= 290

    def test_the_catalog_fits_across_samples(self, fermat, monkeypatch):
        # one pass over all 50 catalog families per sample: the first leaves
        # 15 entries, 13 of them for the slots that do not move, and each
        # later pass adds 2 for the moving ones; so the later passes keep
        # every entry of the first and root nothing
        from quintic_periods.numkernel import roots

        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        families = [d.family() for d in line_families()]
        rooted = []

        def rooting(p):
            rooted.append(p)
            return roots.poly_roots(p)

        for n, s in enumerate(STANDARD_PERIOD_SAMPLES[:3]):
            with monkeypatch.context() as patch:
                patch.setattr(period, "poly_roots", rooting)
                for fam in families:
                    period_at(fermat, P, fam, s)
            keys = set(fermat.line_data._entries)
            if n == 0:
                first = keys
            else:
                assert first <= keys and not rooted, n
            rooted.clear()

    def test_size_stays_constant(self, fermat):
        # a Moebius-moved catalog family: every sample brings new charts for
        # the moving slots; then jets whose x_4 has a moving zero
        from quintic_periods.geometry import LINE_DATA_SIZE

        d = line_families()[21]
        fam = mobius_reparam(d.family(), MobiusMap(0.7 - 0.2j, 0.3, 1.1 + 0.4j, -0.6))
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        for k in range(1000):
            period_at(fermat, P, fam, 0.1 + 0.15j * k / 1000)
        assert len(fermat.line_data) == LINE_DATA_SIZE
        base = TestDiagnostics._line_jet(11)
        for k in range(100):
            x4 = BinaryForm(1, (-(0.3 + 0.01j * k), 1.0))
            period_of_jet(fermat, P, CurveJet(base.s, (*base.x[:4], x4), base.y, 1))
        assert len(fermat.line_data) == LINE_DATA_SIZE

    def test_a_failure_is_not_kept(self, fermat, monkeypatch):
        # a covering chart that misses the curve, and declared roots one
        # more than the chart's degree: each raises at every sample of the
        # same charts, named for the same first pair
        base = TestDiagnostics._line_jet(0, zero=3)
        P = MultiPoly.monomial(5, 1.0, (5, 0, 0, 0, 0))
        for s in (0.1, 0.2, 0.2):
            jet = CurveJet(complex(s), base.x, base.y, 1)
            with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,3\) at s = "):
                period_of_jet(fermat, P, jet)
        true_roots = period._SampleContext.chart_roots

        def inflated(ctx, j):
            return [(loc, mult + 1) for loc, mult in true_roots(ctx, j)]

        fam = line_families()[0].family()
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        with monkeypatch.context() as patch:
            patch.setattr(period._SampleContext, "chart_roots", inflated)
            for s in STANDARD_PERIOD_SAMPLES[:3]:
                with pytest.raises(PoleMismatchError, match=r"^pair \(0,2\) at s = "):
                    period_at(fermat, P, fam, s)


class TestSitePlans:
    """``Hypersurface.site_plans``: each assembly's site plan, kept by
    every input its planning reads, gives the numbers a plan made afresh
    gives, to the bit."""

    def test_a_failed_sample_raises_again_on_a_kept_plan(self, fermat, monkeypatch):
        # a covering chart that misses the curve: the plan of the pairs
        # that could be planned is kept like any other, from its key's
        # second sample, and each sample of the same charts raises again,
        # named for the same pair; a collision is found on the sample's
        # rows, after the plan, and raises again on the kept plan too
        built = []

        class Counting(period._SitePlan):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(period, "_SitePlan", Counting)
        base = TestDiagnostics._line_jet(0, zero=3)
        P = MultiPoly.monomial(5, 1.0, (5, 0, 0, 0, 0))
        builds = []
        for s in (0.1, 0.2, 0.2):
            built.clear()
            jet = CurveJet(complex(s), base.x, base.y, 1)
            with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,3\) at s = "):
                period_of_jet(fermat, P, jet)
            builds.append(len(built))
        assert builds == [1, 1, 0]
        fam = CurveFamily("missing", lambda s: CurveJet(s, base.x, base.y, 1))
        with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,3\) at s = "):
            monomial_scan(fermat, fam, [0.1, 0.2], 5)
        x, y = BinaryForm(1, (0.0, 1.0)), BinaryForm(1, (1.0, 0.0))
        zero = BinaryForm(1, (0.0, 0.0))
        xs = (x, 1.3 * x, y, BinaryForm(1, (0.2, 1.0)), BinaryForm(1, (0.9, 0.0)))
        shared = CurveFamily("shared-pole", lambda s: CurveJet(s, xs, (zero, zero, zero, y, y), 1))
        builds = []
        for s in (0.1, 0.2, 0.3):
            built.clear()
            with pytest.raises(BaseLocusCollisionError, match=r"^pair \(0,1\) at s = "):
                period_at(fermat, P, shared, s)
            builds.append(len(built))
        assert builds == [1, 1, 0]

    def test_warm_plans_give_cold_plans_bits(self, fermat, monkeypatch):
        # period_at (with check sites) and a one-sample monomial_scan
        # (without) on all 50 catalog families at three samples: every
        # call with the plans of the calls before it kept gives the bits
        # of the same call with no plan kept; the kept calls plan one site
        # layout per pair (j0, j1) of the catalog's moving slots, shared
        # across zeta, s and families, for each of the two assemblies
        built = []

        class Counting(period._SitePlan):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(period, "_SitePlan", Counting)
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        families = [d.family() for d in line_families()]
        calls = [
            (fam, s, run)
            for s in STANDARD_PERIOD_SAMPLES[:3]
            for fam in families
            for run in (lambda f, s: period_at(fermat, P, f, s),
                        lambda f, s: monomial_scan(fermat, f, [s], 5))
        ]
        warm = [repr(run(fam, s)) for fam, s, run in calls]
        # a key's first sample plans without keeping, its second keeps
        assert len(fermat.site_plans) == 20 and len(built) == 40
        for (fam, s, run), kept in zip(calls, warm):
            fermat.site_plans.clear()
            built.clear()
            assert repr(run(fam, s)) == kept, (fam.name, s)
            assert len(built) == 1
        # one random line moved by t -> t + c: the pairs stay as they are
        # and the zeros and roots move, so a plan read for another c shows
        from quintic_periods.geometry import transform_jet

        base = TestDiagnostics._line_jet(0)
        jets = [transform_jet(base, MobiusMap(1, c, 0, 1)) for c in (0, 0.1, 0.2, 0.3)]
        fermat.site_plans.clear()
        warm = [repr(period_of_jet(fermat, P, jet)) for jet in jets]
        for jet, kept in zip(jets, warm):
            fermat.site_plans.clear()
            assert repr(period_of_jet(fermat, P, jet)) == kept
        # the reduction's arrays, to the bit, with and without a kept plan
        for d in line_families()[::7]:
            ctx = period._SampleContext(fermat, d.family().jet_at(STANDARD_PERIOD_SAMPLES[1]))
            p_rows = monomial_charts(ctx.xs, 5, ctx.width)
            fermat.site_plans.clear()
            cold = period._assemble(ctx, p_rows)
            hot = period._assemble(ctx, p_rows)
            for field in ("sums", "totals", "vanish_scales", "disagreement", "max"):
                assert getattr(hot, field).tobytes() == getattr(cold, field).tobytes(), field
            assert all(a.tobytes() == b.tobytes() for a, b in zip(hot.table, cold.table))

    def test_a_kept_plan_builds_no_contour(self, fermat, monkeypatch):
        # each block builds its contour with the layout, from the radii
        # alone: the third and fourth samples of a family read the plan
        # kept at the second and build none, and their reports are those
        # of a plan made afresh
        from quintic_periods.numkernel.residues import _Contour

        init, contours = _Contour.__init__, []

        def counted(self, *args):
            init(self, *args)
            contours.append(self)

        monkeypatch.setattr(_Contour, "__init__", counted)
        fam = line_families()[0].family()
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        samples = STANDARD_PERIOD_SAMPLES[:4]
        built, warm = [], []
        for s in samples:
            contours.clear()
            warm.append(repr(period_at(fermat, P, fam, s)))
            built.append(len(contours))
        assert built[0] > 0 and built[1] > 0 and built[2:] == [0, 0], built
        for s, kept in zip(samples[2:], warm[2:]):
            fermat.site_plans.clear()
            assert repr(period_at(fermat, P, fam, s)) == kept, s

    def test_the_layout_places_each_circle_once(self, fermat, monkeypatch):
        # every plan that period_at of x1^3 x2^2 and a one-sample
        # monomial_scan build, on the 50 catalog lines at the first sample
        # and on the dropped jets of seeds 11-20: each circled entry reads
        # its den on the nodes t = location + u, or t = 1/u at [1:0], with
        # u = r e^(i theta) on the circle of its radius r, to the bit, and
        # the layout places one row of nodes per distinct circle
        import numpy as np

        from quintic_periods.numkernel.residues import QUAD_NODES

        built = []

        class Counting(period._SitePlan):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(period, "_SitePlan", Counting)
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        s = STANDARD_PERIOD_SAMPLES[0]
        for d in line_families():
            period_at(fermat, P, d.family(), s)
            monomial_scan(fermat, d.family(), [s], 5)
        for seed in range(11, 21):
            jet = TestLocationMaps._dropped_jet(seed)
            period_of_jet(fermat, P, jet)
            monomial_scan(fermat, CurveFamily("dropped", lambda s, jet=jet: jet), [jet.s], 5)
        unit = np.exp(1j * (2.0 * np.pi * np.arange(QUAD_NODES) / QUAD_NODES))
        circled = at_infinity = 0
        for plan in built:
            layout, circles = plan.layout, set()
            for n, i in enumerate(layout.circled):
                entry = layout.entries[i]
                u = entry.radius * unit
                nodes = 1.0 / u if entry.at_infinity else entry.location + u
                assert layout.nodes[layout.circle_of[n]].tobytes() == nodes.tobytes()
                circles.add((entry.at_infinity, entry.location, entry.radius))
                at_infinity += entry.at_infinity
            circled += len(layout.circled)
            assert len(layout.nodes) == len(circles) if circles else layout.nodes is None
        assert circled > len(built) and at_infinity > 0


class TestMergeSites:
    """``period._merge_sites``: the declared sites of a pair's denominator,
    each pole once, with the multiplicities of the sites that
    ``coincides`` there added."""

    def test_a_site_merges_past_one_sorted_between(self):
        # sorted by real part, the site at 1 + 2e-8 + 10j lies between two
        # that coincide
        merged = period._merge_sites([(1 + 0j, 4)], [(1 + 5e-8 + 0j, 4), (1 + 2e-8 + 10j, 1)])
        assert merged == [(1 + 0j, 8), (1 + 2e-8 + 10j, 1)]

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.floats(-4e-8, 4e-8), st.integers(1, 5)
    ), max_size=6), min_size=1, max_size=3))
    def test_merged_sites_are_distinct_and_cover_the_input(self, lists):
        # sites jittered by less than the coincidence tolerance about
        # points of a unit grid: no merged site coincides with one before
        # it, the multiplicities add up, and each input coincides with a
        # merged site
        from quintic_periods.numkernel.residues import coincides

        site_lists = [[(complex(a + jitter, b), m) for a, b, jitter, m in sl] for sl in lists]
        merged = period._merge_sites(*site_lists)
        locations = [loc for loc, _ in merged]
        for n, loc in enumerate(locations):
            assert not coincides(loc, locations[:n]), (loc, locations)
        assert sum(m for _, m in merged) == sum(m for sl in site_lists for _, m in sl)
        for sl in site_lists:
            assert all(coincides(loc, locations) for loc, _ in sl)


class TestCatalogIdentity:
    """ROADMAP item 1, ``LineFamilyDescriptor.monomial_period``, measured,
    not derived: on the catalog family
    ``pair=i,j/zeta=k``, whose slots a < b < c hold 1, s and
    c = root5(-1 - s^5), the period of a monomial class is
    (6/25) (-1)^(i+j) zeta^k c^-4 [t^3] P(x(t)), and [t^3] P(x(t)) is
    (-zeta^k)^e_j s^e_b c^e_c when e_i + e_j = 3, else 0."""

    def test_every_catalog_scan_cell_is_the_identity(self, fermat):
        # all 50 families x 126 monomials x 8 samples: the predicted zeros
        # are exact, the other cells within 1e-13 relative (4.5e-15
        # measured)
        samples = list(STANDARD_PERIOD_SAMPLES)
        zeros = nonzero = 0
        for d in line_families():
            table = monomial_scan(fermat, d.family(), samples, 5)
            for n, s in enumerate(samples):
                for row in table.rows:
                    want, total = d.monomial_period(row.exponents, s), row.totals[n]
                    if want == 0:
                        assert total == 0, (d.identifier, s, row.monomial)
                        zeros += 1
                        continue
                    assert abs(total - want) <= 1e-13 * abs(want), (d.identifier, s, row.monomial)
                    nonzero += 1
        assert (nonzero, zeros) == (50 * 24 * 8, 50 * 102 * 8)

    @settings(deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 49),
        st.floats(0.05, 0.3),
        st.floats(0.0, 1.0),
        st.lists(st.complex_numbers(max_magnitude=0.9), min_size=4, max_size=4),
    )
    def test_a_moebius_move_keeps_a_catalog_period(self, fermat, index, radius, turn, n):
        # the workloads' class x_j^3 x_a^2 on a catalog family moved by
        # A = I + 0.5 N, |N_kl| <= 0.9, normalized to determinant 1 (|det|
        # stays above 0.1 before it): its period is the identity's value.
        # Over 7600 draws of this domain (|A|_F^2 up to 8.7) the median
        # relative error was 6e-15 and the worst 5.1e-12, on the rim
        # |N_kl| = 0.9; the bound keeps a factor 20 over that.  The spread
        # comes from poles the move brings close together: ROADMAP item 5
        # is to tighten the bound
        import cmath

        d = line_families()[index]
        s = radius * cmath.exp(2j * cmath.pi * turn)
        a, b, c, e = 1 + 0.5 * n[0], 0.5 * n[1], 0.5 * n[2], 1 + 0.5 * n[3]
        root_det = cmath.sqrt(a * e - b * c)
        A = MobiusMap(*(v / root_det for v in (a, b, c, e)))
        exps = [0] * 5
        exps[d.pair[1]] = 3
        exps[min(k for k in range(5) if k not in d.pair)] = 2
        P = MultiPoly.monomial(5, 1.0, tuple(exps))
        want = d.monomial_period(exps, s)
        got = period_at(fermat, P, mobius_reparam(d.family(), A), s).total
        assert abs(got - want) <= 1e-10 * abs(want), (d.identifier, s, A)
