import itertools

import numpy as np
import pytest

from quintic_periods.catalog import fermat_hypersurface
from quintic_periods.errors import DegreeError, IndexSelectionError
from quintic_periods.griffiths import (
    contract_bruteforce,
    contraction_sign,
    gm_monomial_derivative,
    j2star,
    pair_numerator,
    pair_wedges,
    residue_cocycle,
)
from quintic_periods.multipoly import MultiPoly


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


class TestResidueCocycle:
    def test_fermat_pair_pieces(self):
        X = fermat_hypersurface(3, 5)
        P = MultiPoly.monomial(5, 1.0, (0, 3, 2, 0, 0))
        coc = residue_cocycle(P, X, 1)
        assert len(coc.pieces) == 10
        for J, piece in coc.pieces.items():
            assert piece.denominator_indices == J
            # for the Fermat quintic F_{j0} F_{j1} = 25 x_{j0}^4 x_{j1}^4
            prod = X.partials[J[0]] * X.partials[J[1]]
            exps = [0] * 5
            exps[J[0]] += 4
            exps[J[1]] += 4
            assert prod.terms == {tuple(exps): 25.0 + 0j}
            # coefficient = (-1)^m / q! * contraction sign
            assert abs(piece.coefficient) == 1.0
            assert piece.coefficient == -contraction_sign(J, 3).sign

    def test_piece_weights_uniform(self):
        X = fermat_hypersurface(3, 5)
        P = MultiPoly.monomial(5, 1.0, (1, 1, 1, 1, 1))
        coc = residue_cocycle(P, X, 1)
        weights = {p.weight for p in coc.pieces.values()}
        assert len(weights) == 1

    def test_q_zero_constant_class(self):
        X = fermat_hypersurface(3, 5)
        coc = residue_cocycle(MultiPoly.constant(5, 1.0), X, 0)
        assert len(coc.pieces) == 5
        assert all(len(J) == 1 for J in coc.pieces)

    def test_degree_error(self):
        X = fermat_hypersurface(3, 5)
        with pytest.raises(DegreeError):
            residue_cocycle(MultiPoly.monomial(5, 1.0, (4, 0, 0, 0, 0)), X, 1)


class TestGaussManinRule:
    def test_instantiated_rule(self):
        P = MultiPoly.constant(5, 1.0)
        P2, k2 = gm_monomial_derivative(P, 1, (5, 0, 0, 0, 0))
        assert k2 == 2
        assert P2.terms == {(5, 0, 0, 0, 0): -1.0 + 0j}

    def test_double_application_composes(self):
        P = MultiPoly.constant(5, 1.0)
        P1, k1 = gm_monomial_derivative(P, 1, (5, 0, 0, 0, 0))
        P2, k2 = gm_monomial_derivative(P1, k1, (0, 5, 0, 0, 0))
        assert k2 == 3
        # -1 * -2 * x0^5 x1^5
        assert P2.terms == {(5, 5, 0, 0, 0): 2.0 + 0j}

    def test_degree_relation_preserved(self):
        rng = np.random.default_rng(2020)
        from quintic_periods.multipoly import monomials_of_degree

        monos5 = monomials_of_degree(5, 5)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            deg = 5 * k - 5
            if deg == 0:
                P = MultiPoly.constant(5, 1.0)
            else:
                P = MultiPoly.monomial(5, 1.0, monomials_of_degree(5, deg)[int(rng.integers(0, 10))])
            beta = monos5[int(rng.integers(0, len(monos5)))]
            P2, k2 = gm_monomial_derivative(P, k, beta)
            assert P2.total_degree() == k2 * 5 - 5

    def test_wrong_degree_rejected(self):
        with pytest.raises(DegreeError):
            gm_monomial_derivative(MultiPoly.monomial(5, 1.0, (1, 0, 0, 0, 0)), 1, (5, 0, 0, 0, 0))
        with pytest.raises(DegreeError):
            gm_monomial_derivative(MultiPoly.constant(5, 1.0), 1, (4, 0, 0, 0, 0))


class TestPairIntegrand:
    def test_literal_slice_surviving_terms(self, fermat, literal_slice, p_x1cubed_x2sq):
        # only the wedge on (0, 3) survives: x' = e_0, y = e_3
        jet = literal_slice.jet_at(0.1)
        wedges = pair_wedges(jet)
        nonzero = [rest for rest, (w, _) in wedges.items() if not w.is_zero()]
        assert nonzero == [(0, 3)]
        # pairs (1,2), (1,4), (2,4) carry the only nonzero numerators
        live = []
        for j0 in range(5):
            for j1 in range(j0 + 1, 5):
                num, _ = pair_numerator(p_x1cubed_x2sq, jet, j0, j1)
                if not num.is_zero():
                    live.append((j0, j1))
        assert live == [(1, 2), (1, 4), (2, 4)]

    def test_numerator_symmetric_in_pair_order(self, fermat, corrected_slice, p_x1cubed_x2sq):
        jet = corrected_slice.jet_at(0.15 + 0.05j)
        for (j0, j1) in ((0, 2), (1, 3), (2, 4)):
            a, _ = pair_numerator(p_x1cubed_x2sq, jet, j0, j1)
            b, _ = pair_numerator(p_x1cubed_x2sq, jet, j1, j0)
            assert a == b

    def test_zero_jet_zero_numerator(self, fermat, corrected_slice, p_x1cubed_x2sq):
        from quintic_periods.geometry import CurveJet
        from quintic_periods.numkernel.unipoly import BinaryForm

        jet = corrected_slice.jet_at(0.1)
        zero = BinaryForm(1, (0.0, 0.0))
        dead = CurveJet(jet.s, jet.x, (zero,) * 5, 1)
        for j0 in range(5):
            for j1 in range(j0 + 1, 5):
                num, _ = pair_numerator(p_x1cubed_x2sq, dead, j0, j1)
                assert num.is_zero()

    def test_integrand_denominator_is_partial_product(
        self, fermat, corrected_slice, p_x1cubed_x2sq
    ):
        from quintic_periods.verification import reference_integrands

        jet = corrected_slice.jet_at(0.1)
        integrands = {pair: f for pair, f, _ in reference_integrands(fermat, p_x1cubed_x2sq, jet)}
        xs = jet.x_chart()
        expected = fermat.partials[0].compose_unipoly(xs) * fermat.partials[2].compose_unipoly(xs)
        assert (integrands[(0, 2)].den - expected).scale() < 1e-14 * expected.scale()
