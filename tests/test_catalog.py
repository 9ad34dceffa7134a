import cmath
import itertools

import numpy as np
import pytest

from quintic_periods.catalog import (
    STANDARD_PERIOD_SAMPLES,
    ClosedFormRef,
    catalog_entries,
    closed_form_g,
    fermat_hypersurface,
    line_families,
    line_family,
    mustata_conic_equations,
    mustata_residuals,
    paper_line_slice,
    resolve_family,
    resolve_hypersurface,
    root5_neg1_minus_s5,
    shioda_quintic,
    zeta_value,
)
from quintic_periods.errors import ConfigError
from quintic_periods.geometry import containment_residual, smooth_spot_check, tangency_residual
from quintic_periods.numkernel.roots import poly_roots
from quintic_periods.numkernel.unipoly import UniPoly
from quintic_periods.period import monomial_scan


class TestFermat:
    def test_quintic_threefold(self):
        X = fermat_hypersurface(3, 5)
        assert X.nvars == 5 and X.degree == 5
        for i, Fi in enumerate(X.partials):
            exps = [0] * 5
            exps[i] = 4
            assert Fi.terms == {tuple(exps): 5.0 + 0j}
        for j0, j1 in itertools.combinations(range(5), 2):
            exps = [0] * 5
            exps[j0] = exps[j1] = 4
            assert (X.partials[j0] * X.partials[j1]).terms == {tuple(exps): 25.0 + 0j}

    def test_cubic_curve(self):
        X = fermat_hypersurface(1, 3)
        assert X.nvars == 3 and X.degree == 3

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            fermat_hypersurface(0, 5)


class TestShioda:
    def test_term_count_and_homogeneity(self):
        X = shioda_quintic()
        assert len(X.F.terms) == 5
        assert X.F.is_homogeneous() and X.F.total_degree() == 5

    def test_spot_check_solved_points(self):
        X = shioda_quintic()
        rng = np.random.default_rng(31)
        pts = []
        while len(pts) < 20:
            tail = [complex(*rng.uniform(-1, 1, 2)) for _ in range(4)]
            # solve x0^5 = -(x1 x2^4 + x2 x3^4 + x3 x4^4 + x4 x1^4)
            rhs = -(
                tail[0] * tail[1] ** 4
                + tail[1] * tail[2] ** 4
                + tail[2] * tail[3] ** 4
                + tail[3] * tail[0] ** 4
            )
            roots = poly_roots(UniPoly([-rhs, 0, 0, 0, 0, 1]))
            pts.append((roots[0][0], *tail))
        report = smooth_spot_check(X, pts)
        assert report.all_smooth
        assert max(e.on_surface_residual for e in report.entries) < 1e-10


class TestLineFamilies:
    def test_fifty_distinct(self):
        fams = line_families()
        assert len(fams) == 50
        assert len({d.identifier for d in fams}) == 50

    def test_path_residuals(self):
        for d in line_families()[::7]:
            for s in (0.1, 0.2 * cmath.exp(1j * cmath.pi / 7), 0.3):
                assert d.abc_path_residual(s) < 1e-12

    def test_containment_all_families(self):
        X = fermat_hypersurface(3, 5)
        for d in line_families():
            jet = d.family("corrected").jet_at(0.15)
            assert containment_residual(X, jet) < 1e-10

    def test_containment_at_unit_point_s0(self):
        X = fermat_hypersurface(3, 5)
        jet = line_families()[0].family("corrected").jet_at(0j)
        comp = X.F.compose_unipoly(jet.x_chart())
        assert abs(comp(1.0)) < 1e-10

    def test_fermat_group_action_relates_every_scan(self, fermat):
        # fermat-line/pair=i,j/zeta=k is pair (0,1)'s line with its slots
        # moved by sigma = (i, j, the other three in order) and slot j
        # scaled by zeta^k, a symmetry of the Fermat quintic; so each row e
        # is sign(sigma) zeta^k zeta^(k e_j) times the base row of e o sigma,
        # (e o sigma)_n = e_sigma(n).  On these samples rounding reaches
        # 6.5e-16 of the largest |period|, and flipping pair (0,2)'s
        # contraction sign 0.5: the bound 1e-13 keeps 150x above rounding
        samples = STANDARD_PERIOD_SAMPLES[:2]
        base = monomial_scan(fermat, line_family((0, 1), 0), samples, 5)
        base_rows = {row.exponents: np.array(row.totals) for row in base.rows}
        largest = max(np.abs(totals).max() for totals in base_rows.values())
        zeta = zeta_value(1)
        for d in line_families():
            (i, j), k = d.pair, d.zeta_index
            sigma = (i, j, *(n for n in range(5) if n not in (i, j)))
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
            table = monomial_scan(fermat, d.family("corrected"), samples, 5)
            for row in table.rows:
                e = row.exponents
                want = sign * zeta ** (k + k * e[j]) * base_rows[tuple(e[n] for n in sigma)]
                err = np.abs(np.array(row.totals) - want).max()
                assert err <= 1e-13 * largest, (d.identifier, row.monomial, err / largest)


class TestSlice:
    def test_corrected_jets(self):
        fam = paper_line_slice(1, "corrected")
        jet = fam.jet_at(0.1)
        zeta = zeta_value(1)
        assert jet.x[0].coeffs == (0.0, 1.0)
        assert jet.x[1].coeffs == (0.0, -zeta)
        assert jet.x[2].coeffs == (1.0, 0.0)
        assert jet.x[3].coeffs == (0.1, 0.0)
        w = root5_neg1_minus_s5(0.1)
        assert abs(jet.x[4].coeffs[0] - w) < 1e-12
        # analytic jet in the last slot: -s^4 / w^4
        assert abs(jet.y[4].coeffs[0] - (-(0.1**4) / w**4)) < 1e-12

    def test_literal_jets_as_printed(self):
        fam = paper_line_slice(1, "literal")
        jet = fam.jet_at(0.1)
        zeta = zeta_value(1)
        assert jet.x[1].coeffs == (-zeta, 0.0)
        assert jet.y[3].coeffs == (1.0, 0.0)
        assert jet.y[4].is_zero()
        derivs = jet.x_derivative_chart()
        assert [not d.is_zero() for d in derivs] == [True, False, False, False, False]

    def test_literal_tangency_nonzero_off_origin(self):
        X = fermat_hypersurface(3, 5)
        fam = paper_line_slice(1, "literal")
        assert tangency_residual(X, fam.jet_at(0.2)) > 1e-6

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            paper_line_slice(1, "verbatim")


class TestClosedForm:
    def test_value_at_origin(self):
        ref = ClosedFormRef(zeta=1.0 + 0j)
        expect = cmath.exp(1j * cmath.pi / 5) + cmath.exp(-4j * cmath.pi / 5)
        assert abs(closed_form_g(0j, ref) - expect) < 1e-12

    def test_branch_identity(self):
        zeta = zeta_value(1)
        ref = ClosedFormRef(zeta=zeta)
        for s in (0.1, 0.25j, 0.2 * cmath.exp(1j * cmath.pi / 7)):
            w = root5_neg1_minus_s5(s)
            g = closed_form_g(s, ref)
            assert abs(g * zeta**2 - w - zeta**5 / w**4) < 1e-12

    def test_continuity_on_disk(self):
        ref = ClosedFormRef(zeta=zeta_value(2))
        for k in range(10):
            s = 0.28 * cmath.exp(2j * cmath.pi * k / 10)
            delta = 1e-4 * cmath.exp(0.3j)
            jump = abs(closed_form_g(s + delta, ref) - closed_form_g(s, ref))
            assert jump < 1e-2

    def test_zeta_scaling_changes_value(self):
        s = 0.1 + 0.05j
        a = closed_form_g(s, ClosedFormRef(zeta=zeta_value(1)))
        b = closed_form_g(s, ClosedFormRef(zeta=zeta_value(2)))
        assert abs(a - b) > 0.1 * max(abs(a), abs(b))

    def test_invalid_zeta(self):
        with pytest.raises(ConfigError):
            ClosedFormRef(zeta=1.1 + 0j)


class TestMustata:
    def test_equation_count(self):
        assert len(mustata_conic_equations()) == 5

    def test_random_point_fails(self):
        res = mustata_residuals(
            {"x0": 1.0, "x1": 0.5, "x2": -0.3, "x3": 2.0, "x4": 0.1, "a": 1.0, "b": 1.0, "c": 1.0}
        )
        assert all(r > 1e-8 for r in res)

    def test_parameter_relation_roots(self):
        # a = 0, b = 1: relation becomes 1 - 4 c^5 = 0
        roots = poly_roots(UniPoly([1, 0, 0, 0, 0, -4]))
        assert len(roots) == 5
        rel = mustata_conic_equations()[4]
        for c, _ in roots:
            assert abs(abs(c) ** 5 - 0.25) < 1e-12
            val = rel.evaluate([0, 0, 0, 0, 0, 0.0, 1.0, c])
            assert abs(val) < 1e-12


class TestRegistry:
    def test_entries_listing(self):
        entries = catalog_entries()
        assert len(entries["line-families"]) == 50
        assert len(entries["hypersurfaces"]) == 2
        assert entries["null-families"]

    def test_resolution_round_trip(self):
        fam = resolve_family("fermat-line/pair=0,1/zeta=1/corrected")
        assert fam.jet_at(0.1).x[0].coeffs == (0.0, 1.0)
        X = resolve_hypersurface("fermat/m=3,d=5")
        assert X.degree == 5
        assert resolve_hypersurface("shioda-quintic").F.terms
        null = resolve_family("mobius-null/zeta=1/seed=0")
        assert null.name == "mobius-null/zeta=1/seed=0"

    def test_unknown_identifiers(self):
        with pytest.raises(ConfigError):
            resolve_hypersurface("fermat/m=x")
        with pytest.raises(ConfigError):
            resolve_family("fermat-line/pair=0,1/zeta=9/corrected")

    def test_identifiers_that_match_no_pattern(self):
        with pytest.raises(ConfigError, match="unknown hypersurface identifier 'quartic'") as exc:
            resolve_hypersurface("quartic")
        assert exc.value.field == "hypersurface"
        with pytest.raises(ConfigError, match="unknown family identifier 'conic/seed=0'") as exc:
            resolve_family("conic/seed=0")
        assert exc.value.field == "family"
