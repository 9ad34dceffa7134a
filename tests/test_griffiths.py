import itertools

import pytest

from quintic_periods.errors import IndexSelectionError
from quintic_periods.griffiths import (
    contract_bruteforce,
    contraction_sign,
    j2star,
    pair_numerator,
    pair_wedges,
)


class TestJ2Star:
    def test_examples(self):
        assert j2star(4, 1, 2, 5) == 2
        assert j2star(2, 1, 4, 5) == 1
        assert j2star(0, 1, 2, 5) == 0
        assert j2star(0, 3, 4, 5) == 0

    def test_duplicates_rejected(self):
        with pytest.raises(IndexSelectionError):
            j2star(1, 1, 2, 5)
        with pytest.raises(IndexSelectionError):
            j2star(7, 1, 2, 5)


class TestContraction:
    def test_pair_12_m3(self):
        r = contraction_sign((1, 2), 3)
        assert r.sign == 1
        assert r.complement == (0, 3, 4)

    def test_pair_01_m3(self):
        r = contraction_sign((0, 1), 3)
        assert r.sign == 1
        assert r.complement == (2, 3, 4)

    def test_small_case_by_hand(self):
        # m=1, J=(0): contracting x0 dx1^dx2 - x1 dx0^dx2 + x2 dx0^dx1
        # along d/dx0 gives -x1 dx2 + x2 dx1 = -(x1 dx2 - x2 dx1)
        r = contract_bruteforce((0,), 1)
        assert r.sign == -1
        assert r.complement == (1, 2)

    def test_full_contraction_to_scalar(self):
        r = contract_bruteforce((0, 1, 2, 3), 3)
        assert r.complement == (4,)
        assert r.sign == contraction_sign((0, 1, 2, 3), 3).sign

    def test_oracle_agreement_all_shapes(self):
        for m in (2, 3, 4, 5):
            for size in range(1, min(4, m + 1) + 1):
                for J in itertools.combinations(range(m + 2), size):
                    a = contraction_sign(J, m)
                    b = contract_bruteforce(J, m)
                    assert (a.sign, a.complement) == (b.sign, b.complement)

    def test_invalid_tuples(self):
        with pytest.raises(IndexSelectionError):
            contraction_sign((2, 1), 3)
        with pytest.raises(IndexSelectionError):
            contraction_sign((0, 7), 3)
        with pytest.raises(IndexSelectionError):
            contract_bruteforce((0, 1, 2, 3), 2)


class TestPairIntegrand:
    def test_literal_slice_surviving_terms(self, fermat, literal_slice, p_x1cubed_x2sq):
        # only the wedge on (0, 3) survives: x' = e_0, y = e_3
        jet = literal_slice.jet_at(0.1)
        wedges = pair_wedges(jet)
        nonzero = [rest for rest, (w, _) in wedges.items() if not w.is_zero()]
        assert nonzero == [(0, 3)]
        # pairs (1,2), (1,4), (2,4) carry the only nonzero numerators
        p_chart = p_x1cubed_x2sq.compose_unipoly(jet.x_chart())
        live = []
        for j0 in range(5):
            for j1 in range(j0 + 1, 5):
                num, _ = pair_numerator(jet, j0, j1, wedges, p_chart)
                if not num.is_zero():
                    live.append((j0, j1))
        assert live == [(1, 2), (1, 4), (2, 4)]

    def test_numerator_symmetric_in_pair_order(self, fermat, corrected_slice, p_x1cubed_x2sq):
        jet = corrected_slice.jet_at(0.15 + 0.05j)
        wedges, p_chart = pair_wedges(jet), p_x1cubed_x2sq.compose_unipoly(jet.x_chart())
        for (j0, j1) in ((0, 2), (1, 3), (2, 4)):
            a, _ = pair_numerator(jet, j0, j1, wedges, p_chart)
            b, _ = pair_numerator(jet, j1, j0, wedges, p_chart)
            assert a == b

    def test_zero_jet_zero_numerator(self, fermat, corrected_slice, p_x1cubed_x2sq):
        from quintic_periods.geometry import CurveJet
        from quintic_periods.numkernel.unipoly import BinaryForm

        jet = corrected_slice.jet_at(0.1)
        zero = BinaryForm(1, (0.0, 0.0))
        dead = CurveJet(jet.s, jet.x, (zero,) * 5, 1)
        wedges, p_chart = pair_wedges(dead), p_x1cubed_x2sq.compose_unipoly(dead.x_chart())
        for j0 in range(5):
            for j1 in range(j0 + 1, 5):
                num, _ = pair_numerator(dead, j0, j1, wedges, p_chart)
                assert num.is_zero()

    def test_integrand_denominator_is_partial_product(self, fermat, corrected_slice):
        # the engine's declared denominator of a pair, its merged chart roots
        # with the product of both lead factors, expands to
        # F_j0(x(t)) F_j1(x(t)); every pair's leads can be read on these
        # jets (2.6e-14 of its scale measured)
        from test_period import TestDegreeTwoJets

        from quintic_periods.numkernel.unipoly import UniPoly
        from quintic_periods.period import _merge_sites, _SampleContext

        jets = [corrected_slice.jet_at(0.1)]
        jets += [TestDegreeTwoJets._random_jet(seed) for seed in range(20)]
        for jet in jets:
            ctx, xs = _SampleContext(fermat, jet), jet.x_chart()
            for j0, j1 in itertools.combinations(range(5), 2):
                sites = _merge_sites(ctx.chart_roots(j0), ctx.chart_roots(j1))
                roots = [r for r, m in sites for _ in range(m)]
                declared = UniPoly.from_roots(roots, ctx.lead(j0) * ctx.lead(j1))
                expected = fermat.partials[j0].compose_unipoly(xs)
                expected = expected * fermat.partials[j1].compose_unipoly(xs)
                assert (declared - expected).scale() <= 1e-12 * expected.scale(), (jet.s, j0, j1)
