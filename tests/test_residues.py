from functools import partial

import numpy as np
import pytest

from quintic_periods.errors import BaseLocusCollisionError, PoleMismatchError
from quintic_periods.numkernel.residues import (
    QUAD_NODES,
    RationalFunction,
    SiteEntry,
    SiteLayout,
    quadrature_radius,
    residue_analytic,
    residue_at_infinity_analytic,
    residue_sum_check,
    residues_at_zeros,
)
from quintic_periods.numkernel.unipoly import BinaryForm, UniPoly


def rf(num, den):
    return RationalFunction(UniPoly(num), UniPoly(den))


def built(entries, leads, dens, stacks):
    """The SiteLayout of ``entries`` on ``stacks``, and its ``apply`` bound
    to each entry's lead and its den, ``dens[i]``, at the layout's nodes of
    its circle; an entry without a circle reads no den."""
    layout = SiteLayout(entries, stacks)
    circled = [dens[i](layout.nodes[n]) for i, n in zip(layout.circled, layout.circle_of)]
    return layout, partial(layout.apply, leads, np.array(circled) if circled else None)


def site_map(den, location, zero_multiplicity, sites, width, contour=False):
    """The layout, and its bound ``apply``, of den alone at one site,
    declared by its leading coefficient and sites; with ``contour``, its
    contour backend evaluates den as it stands."""
    entry = SiteEntry(location, zero_multiplicity, sites, width, contour)
    return built([entry], [den.coeffs[-1]], [den], [0])


def apply(run, nums, lives):
    """A bound ``apply``, ``run``, on the stacks ``nums[k]``, zero-padded to
    the widest, with the magnitudes of the rows and their maxima, as the
    period assembly passes them."""
    stacked = np.zeros((len(nums), len(nums[0]), max(n.shape[1] for n in nums)), dtype=complex)
    for k, n in enumerate(nums):
        stacked[k, :, : n.shape[1]] = n
    mags = np.abs(stacked)
    return run(stacked, np.array(lives), mags, mags.max(axis=2))


def one_row(den, location, sites, num):
    """The entry, and its table, of the one row num over den at one of its
    declared sites, a simple pole, with both backends."""
    layout, site = site_map(den, location, 1, sites, len(num.coeffs), contour=True)
    table = apply(site, [np.array([num.coeffs])], [np.array([True])])
    assert table.order[0, 0] == 1
    return layout.entries[0], table


class TestAnalytic:
    def test_simple_pole_at_origin(self):
        assert abs(residue_analytic(rf([1], [0, 1]), 0j, 1) - 1.0) < 1e-15

    def test_double_pole_even_tail(self):
        assert abs(residue_analytic(rf([1], [0, 0, 1]), 0j, 2)) < 1e-15

    def test_partial_fractions_value(self):
        # (3t+2)/((t-1)(t+2)) at t=1: (3+2)/(1+2) = 5/3
        f = RationalFunction(UniPoly([2, 3]), UniPoly([-1, 1]) * UniPoly([2, 1]))
        assert abs(residue_analytic(f, 1.0 + 0j, 1) - 5.0 / 3.0) < 1e-14

    def test_numerator_vanishing_at_pole(self):
        # t/(t^2): reduces to 1/t
        f = rf([0, 1], [0, 0, 1])
        assert abs(residue_analytic(f, 0j, 2) - 1.0) < 1e-15

    def test_order_mismatch_raises(self):
        with pytest.raises(PoleMismatchError):
            residue_analytic(rf([1], [0, 1]), 0j, 2)
        with pytest.raises(PoleMismatchError):
            residue_analytic(rf([1], [0, 1]), 1.0 + 0j, 1)


class TestQuadrature:
    def test_unit_residue(self):
        # no other site: the circle has radius 0.5
        entry, table = one_row(UniPoly([0, 1]), 0j, [(0j, 1)], UniPoly([1]))
        assert entry.radius == 0.5
        assert abs(table.quadrature[0, 0] - 1.0) < 1e-12

    def test_partial_fraction_value(self):
        den = UniPoly([-1, 1]) * UniPoly([2, 1])
        entry, table = one_row(den, 1.0 + 0j, [(1.0 + 0j, 1), (-2.0 + 0j, 1)], UniPoly([2, 3]))
        assert entry.radius == 0.5
        assert abs(table.quadrature[0, 0] - 5.0 / 3.0) < 1e-10

    def test_radius_rule(self):
        assert quadrature_radius(0j, [2.0 + 0j]) == 0.5
        assert abs(quadrature_radius(0j, [0.2 + 0j]) - 0.1) < 1e-15


class TestBackendAgreement:
    def test_seeded_cross_check(self):
        rng = np.random.default_rng(515151)
        for _ in range(60):
            poles = []
            while len(poles) < 5:
                z = complex(*rng.uniform(-2, 2, 2))
                if all(abs(z - p) >= 5e-2 for p in poles):
                    poles.append(z)
            den = UniPoly.from_roots(poles)
            num = UniPoly([complex(*rng.uniform(-1, 1, 2)) for _ in range(5)])
            for p in poles:
                _, table = one_row(den, p, [(q, 1) for q in poles], num)
                ra, rq = table.residue[0, 0], table.quadrature[0, 0]
                assert abs(ra - rq) <= 1e-8 * max(abs(ra), abs(rq), 1e-12)


class TestResidueTheorem:
    def test_one_over_t(self):
        f = rf([1], [0, 1])
        assert abs(residue_at_infinity_analytic(f) + 1.0) < 1e-15
        assert residue_sum_check(f) < 1e-12

    def test_polynomial_has_no_residue(self):
        f = rf([0, 1], [1])
        assert residue_sum_check(f) < 1e-15

    def test_agreement_at_millimeter_separation(self):
        # poles 1e-3 apart: the radius rule shrinks the contour, agreement
        # must still reach 1e-8 relative
        poles = [0.2 + 0j, 0.2 + 1e-3j, -1.0 + 0.5j]
        den = UniPoly.from_roots(poles)
        num = UniPoly([0.3, -1.0, 0.7j])
        for p in poles:
            entry, table = one_row(den, p, [(q, 1) for q in poles], num)
            assert entry.radius == quadrature_radius(p, [q for q in poles if q != p])
            ra, rq = table.residue[0, 0], table.quadrature[0, 0]
            assert abs(ra - rq) <= 1e-8 * max(abs(ra), abs(rq))

    def test_infinity_backends_agree(self):
        # the analytic and contour residues of the engine's site map at [1:0]
        rng = np.random.default_rng(818)
        for _ in range(20):
            roots = [complex(*rng.uniform(-2, 2, 2)) for _ in range(4)]
            den = UniPoly.from_roots(roots)
            num = UniPoly([complex(*rng.uniform(-1, 1, 2)) for _ in range(4)])
            if num.is_zero():
                num = UniPoly.one()
            _, site = site_map(den, None, 1, [(r, 1) for r in roots], len(num.coeffs), contour=True)
            table = apply(site, [np.array([num.coeffs])], [np.array([True])])
            assert table.order[0, 0] > 0
            ra, rq = table.residue[0, 0], table.quadrature[0, 0]
            assert abs(ra - rq) <= 1e-8 * max(abs(ra), abs(rq), 1e-10)

    def test_seeded_global_sums(self):
        rng = np.random.default_rng(909)
        for _ in range(60):
            poles = []
            while len(poles) < int(rng.integers(3, 8)):
                z = complex(*rng.uniform(-2, 2, 2))
                if all(abs(z - p) >= 1e-2 for p in poles):
                    poles.append(z)
            den = UniPoly.from_roots(poles, lead=complex(*rng.uniform(0.5, 1.5, 2)))
            num = UniPoly([complex(*rng.uniform(-1, 1, 2)) for _ in range(int(rng.integers(1, 9)))])
            if num.is_zero():
                num = UniPoly.one()
            f = RationalFunction(num, den)
            assert residue_sum_check(f) < 1e-8

    def test_factored_sites_of_fourth_powers(self):
        # the shape of a degree-2 pair on the Fermat quintic: a numerator of
        # degree 15 over 5 q0^4 * 5 q1^4.  Re-rooting the expanded degree-16
        # denominator splits its 4-fold roots on this seed; the site maps at
        # the factored sites (roots of q0 and q1, each of multiplicity 4),
        # plus the one at infinity, cover every pole.
        rng = np.random.default_rng(36)

        def c():
            return complex(*rng.uniform(-1, 1, 2))

        qs = [UniPoly([c(), c(), c()]) for _ in range(2)]
        num = np.array([[c() for _ in range(16)]])
        den = 5 * qs[0] ** 4 * (5 * qs[1] ** 4)
        sites = [(complex(r), 4) for q in qs for r in np.roots(q.coeffs[::-1])]
        maps = [site_map(den, loc, 0, sites, 16)[1] for loc, _ in sites]
        maps.append(site_map(den, None, 0, sites, 16)[1])
        tables = [apply(site, [num], [np.array([True])]) for site in maps]
        assert [int(t.order[0, 0]) for t in tables[:4]] == [4, 4, 4, 4]
        residues = [t.residue[0, 0] for t in tables]
        assert abs(sum(residues)) < 1e-8 * max(map(abs, residues))


class TestResiduesAtZeros:
    def test_zero_at_origin(self):
        f = rf([1], [0, 1])
        z = BinaryForm(1, (0.0, 1.0))  # the form x
        out = residues_at_zeros(f, z)
        assert abs(out.total - 1.0) < 1e-14

    def test_constant_form_contributes_nothing(self):
        f = rf([1], [0, 1])
        out = residues_at_zeros(f, BinaryForm.constant(1.0))
        assert out.total == 0
        assert out.sites == []

    def test_cancelling_pair(self):
        # 1/(t(t-1)) summed over zeros of x(x - y): residues -1 and +1
        f = RationalFunction(UniPoly([1]), UniPoly([0, 1]) * UniPoly([-1, 1]))
        z = BinaryForm(2, (0.0, -1.0, 1.0))  # x(x - y)
        out = residues_at_zeros(f, z)
        assert abs(out.total) < 1e-12
        assert len(out.sites) == 2

    def test_infinity_zero_collects_residue_at_infinity(self):
        f = rf([1], [0, 1])
        z = BinaryForm(1, (1.0, 0.0))  # the form y, zero at [1:0]
        out = residues_at_zeros(f, z)
        assert len(out.sites) == 1 and out.sites[0].at_infinity
        assert abs(out.total + 1.0) < 1e-14

    def test_zero_numerator_short_circuits(self):
        f = rf([], [0, 1])
        out = residues_at_zeros(f, BinaryForm(1, (0.0, 1.0)))
        assert out.total == 0

    def test_guard_collision_on_shared_pole(self):
        # pole at the shared zero t=0, guard also vanishing there
        f = rf([1], [0, 0, 1])
        z = BinaryForm(1, (0.0, 1.0))
        guard = BinaryForm(1, (0.0, 2.0))
        with pytest.raises(BaseLocusCollisionError):
            residues_at_zeros(f, z, guard=guard)

    def test_guard_without_pole_is_fine(self):
        # numerator kills the pole: residue contribution is 0, no error
        f = rf([0, 0, 1], [0, 0, 1])
        z = BinaryForm(1, (0.0, 1.0))
        guard = BinaryForm(1, (0.0, 2.0))
        out = residues_at_zeros(f, z, guard=guard)
        assert out.total == 0

    def test_backend_reports_on_sites(self):
        # the oracle reports the analytic residue alone
        f = RationalFunction(UniPoly([2, 3]), UniPoly([-1, 1]) * UniPoly([2, 1]))
        z = BinaryForm(1, (-1.0, 1.0))  # x - y: zero at t=1
        out = residues_at_zeros(f, z)
        (site,) = out.sites
        assert site.pole_order == 1
        assert abs(site.residue - 5.0 / 3.0) < 1e-14
        assert site.residue_quadrature is None


class TestContourBackend:
    """The site maps' trapezoid rule, folded into a covector per site, against
    the scalar rule _quadrature on each row's own rational function at the
    same centre, radius and nodes."""

    @staticmethod
    def _rows(rng, width, count):
        g = rng.uniform(-1, 1, (count, width, 2))
        return g[..., 0] + 1j * g[..., 1]

    @staticmethod
    def _with_monomials(rows, has_pole, monomials):
        """rows and has_pole with rows c t^k, given as (k, c, pole), placed
        among the dense rows of the same entry."""
        at = [2, 5, 9, 14][: len(monomials)]
        extra = np.zeros((len(monomials), rows.shape[1]), dtype=complex)
        for r, (k, c, _) in enumerate(monomials):
            extra[r, k] = c
        rows = np.insert(rows, at, extra, axis=0)
        for i, (_, _, pole) in zip(at[::-1], monomials[::-1]):
            has_pole.insert(i, pole)
        return rows, has_pole

    def _check(self, rows, table, has_pole, scalar):
        # the one entry's line of each field
        order, quadrature, scale = table.order[0], table.quadrature[0], table.quadrature_scale[0]
        assert (order > 0).tolist() == has_pole
        for r, pole in enumerate(has_pole):
            if not pole:
                assert quadrature[r] == 0 and scale[r] == 0
                continue
            value, magnitude = scalar(rows[r])
            assert abs(quadrature[r] - value) <= 1e-13 * magnitude
            assert abs(scale[r] - magnitude) <= 1e-13 * magnitude

    @pytest.mark.parametrize("location", [0.3 - 0.2j, 0j])
    def test_finite_site_matches_scalar_rule(self, location):
        from quintic_periods.numkernel.residues import _quadrature

        rng = np.random.default_rng(1414)
        others = [1.1 + 0.4j, -0.7 - 0.9j]
        den = UniPoly.from_roots([location, location] + others, lead=0.8 - 0.3j)
        sites = [(location, 2)] + [(p, 1) for p in others]
        _, site = site_map(den, location, 1, sites, 6, contour=True)
        radius = quadrature_radius(location, others)
        rows = self._rows(rng, 6, 20)
        # rows divisible by (t - location)^2 have no pole at the site
        square = UniPoly.from_roots([location, location])
        for r in range(0, 20, 3):
            rows[r] = (UniPoly(rows[r][:4]) * square).coeffs
        has_pole = [r % 3 != 0 for r in range(20)]
        # rows of one term in u = t - location take the closed-form contour
        # magnitude: constants at either site, c t at 0j (two terms in u at
        # the shifted site)
        rows, has_pole = self._with_monomials(
            rows, has_pole, [(0, 0.7 - 1.2j, True), (1, -0.4 + 0.9j, True), (0, 1.3, True)]
        )
        table = apply(site, [rows], [np.ones(len(rows), dtype=bool)])

        def scalar(row):
            f = RationalFunction(UniPoly(row), den)
            return _quadrature(f, location, radius, QUAD_NODES)

        self._check(rows, table, has_pole, scalar)

    def test_infinity_site_matches_scalar_rule(self):
        from quintic_periods.numkernel.residues import _quadrature

        rng = np.random.default_rng(1515)
        roots = [0.4 + 0.1j, -0.8 + 0.6j, 1.3 - 0.2j, -0.3 - 1.1j]
        den = UniPoly.from_roots(roots, lead=1.2 + 0.5j)
        _, site = site_map(den, None, 1, [(p, 1) for p in roots], 6, contour=True)
        radius = quadrature_radius(0j, [1.0 / p for p in roots])
        rows = self._rows(rng, 6, 20)
        # below degree deg(den) - 1 the form is regular at [1:0]
        rows[::4, 3:] = 0
        has_pole = [r % 4 != 0 for r in range(20)]
        # rows c t^k of one term: a pole at [1:0] from k = 3 on
        rows, has_pole = self._with_monomials(
            rows, has_pole,
            [(5, 0.7 - 1.2j, True), (3, -0.4 + 0.9j, True), (1, 1.3, False), (4, -2j, True)],
        )
        table = apply(site, [rows], [np.ones(len(rows), dtype=bool)])

        def scalar(row):
            g = RationalFunction(UniPoly(row), den).at_infinity_chart()
            return _quadrature(g, 0j, radius, QUAD_NODES)

        self._check(rows, table, has_pole, scalar)


    def test_one_term_magnitude_is_the_largest_scaled_term(self):
        # a row of at most one term takes |sum of its scaled terms| times the
        # factor's maximum: the same bits as its largest |scaled term|, also
        # for an all-zero row with a pole and a lone NaN term; a row of two
        # terms is still evaluated at the nodes
        from quintic_periods.numkernel.residues import _Contour

        rng = np.random.default_rng(77)
        den = self._rows(rng, QUAD_NODES, 2) + 2.0
        contour = _Contour([0.3, 0.45], 6, False)
        factor_abs = np.abs(contour.u / den)
        factor_max = factor_abs.max(axis=1)
        rows = np.zeros((2, 7, 6), dtype=complex)
        for k, c in enumerate([0.7 - 1.2j, -0.4 + 0.9j, 1.3, -2j, complex("nan"), 0.0]):
            rows[k % 2, k, k] = c
        rows[:, 6, 1:3] = 1.0, 0.5j
        has_pole = np.ones((2, 7), dtype=bool)
        has_pole[1, 2] = False
        _, scale = contour.trapezoid(rows, has_pole, den)
        one = np.abs(rows * contour.radius_powers[:, None]).max(axis=2) * factor_max[:, None]
        expect = np.where(has_pole, one, 0.0)
        np.testing.assert_array_equal(scale[:, :6], expect[:, :6])
        assert np.isnan(scale[0, 4]) and scale[1, 5] == 0.0 and scale[1, 2] == 0.0
        for b in range(2):
            on_nodes = np.abs((rows[b, 6] * contour.radius_powers[b]) @ contour.powers)
            worst = (on_nodes * factor_abs[b]).max()
            assert abs(scale[b, 6] - worst) <= 1e-14 * worst


class TestStackedEntries:
    """A SiteLayout stacks the entries at its location; every number an
    entry reports must be the one its own single-entry layout gives, to the
    bit."""

    def test_entries_match_each_alone(self):
        rng = np.random.default_rng(2024)

        def c():
            return complex(*rng.uniform(-1, 1, 2))

        location = 0.3 - 0.2j
        entries, leads, dens, nums, lives = [], [], [], [], []
        # widths 6 and 7, poles of order 1 and 2 at the location, with and
        # without a contour, and one entry without a pole there
        for width, order, contour in [(6, 2, True), (7, 2, True), (6, 2, False), (6, 1, True),
                                      (7, 2, True), (6, 0, True), (None, 2, True)]:
            others = [(c() + 1.5, 1), (c() - 1.5, 2)]
            sites = ([(location, order)] if order else []) + others
            den = UniPoly.from_roots([r for r, m in sites for _ in range(m)], lead=c())
            at = None if width is None else location
            entry = SiteEntry(at, 1, sites, width or 6, contour)
            entries.append(entry)
            leads.append(den.coeffs[-1])
            dens.append(den)
            rows = rng.uniform(-1, 1, (5, entry.width)) + 1j * rng.uniform(-1, 1, (5, entry.width))
            rows[0] = 0
            nums.append(rows)
            lives.append(np.array([False, True, True, True, True]))
        layout, run = built(entries, leads, dens, list(range(len(entries))))
        stacked = apply(run, nums, lives)
        assert len(layout.blocks) == 4
        for i in range(len(entries)):
            alone = apply(built([entries[i]], [leads[i]], [dens[i]], [0])[1], [nums[i]], [lives[i]])
            assert layout.entries[i] is entries[i]
            for field in ("order", "residue", "quadrature", "quadrature_scale"):
                a, b = getattr(stacked, field)[i], getattr(alone, field)[0]
                assert np.array_equal(a, b), (i, field)
            assert (stacked.order[i] > 0).any() == (entries[i].order > 0)

    def test_entries_read_their_own_stack(self):
        # entries name their stacks out of order, and two share a stack;
        # each reads the first ``width`` coefficients of its stack's rows,
        # to the bit what it reads alone on that stack
        rng = np.random.default_rng(31)

        def c():
            return complex(*rng.uniform(-1, 1, 2))

        location = -0.2 + 0.4j
        nums = rng.uniform(-1, 1, (3, 4, 7)) + 1j * rng.uniform(-1, 1, (3, 4, 7))
        nums[1, 0] = 0
        lives = np.array([[True, True, False, True]] * 3)
        mags = np.abs(nums)
        tops = mags.max(axis=2)
        entries, leads, dens = [], [], []
        for at, width in [(location, 6), (None, 7), (location, 6), (location, 7)]:
            sites = [(location, 2), (c() + 1.5, 1), (c() - 1.5, 1)]
            den = UniPoly.from_roots([r for r, m in sites for _ in range(m)], lead=c())
            entry = SiteEntry(at, 1, sites, width, True)
            entries.append(entry)
            leads.append(den.coeffs[-1])
            dens.append(den)
        stacks = [2, 0, 2, 1]
        layout, run = built(entries, leads, dens, stacks)
        table = run(nums, lives, mags, tops)
        assert len(layout.blocks) == 3
        for i, k in enumerate(stacks):
            one = slice(k, k + 1)
            alone = built([entries[i]], [leads[i]], [dens[i]], [0])[1](
                nums[one], lives[one], mags[one], tops[one]
            )
            for field in ("order", "residue", "quadrature", "quadrature_scale"):
                a, b = getattr(table, field)[i], getattr(alone, field)[0]
                assert np.array_equal(a, b), (i, field)
            assert (table.order[i] > 0).any()
        # the two entries on stack 2 declare different denominators
        assert not np.array_equal(table.residue[0], table.residue[2])

    def test_table_is_zero_without_a_pole(self):
        # every field is an exact 0 at an entry of order <= 0 ([1:0] with
        # width + 1 <= sum m) and in a row that is not live, and the backend
        # fields are at an entry without a circle, stacked in one block with
        # an entry that has one
        rng = np.random.default_rng(7)
        location = 0.4 + 0.1j
        sites = [(location, 2), (-1.0 + 0.5j, 3), (0.8 - 0.6j, 1)]
        den = UniPoly.from_roots([r for r, m in sites for _ in range(m)], lead=1.5)
        entries = [
            SiteEntry(None, 1, sites, 5, True),
            SiteEntry(location, 1, sites, 5, False),
            SiteEntry(location, 1, sites, 5, True),
        ]
        assert entries[0].order <= 0 and entries[1].radius is None
        dens = [None, None, den]
        rows = rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-1, 1, (3, 5))
        live = np.array([True, False, True])
        layout, run = built(entries, [1.5] * 3, dens, [0, 1, 2])
        assert len(layout.blocks) == 1
        table = apply(run, [rows] * 3, [live] * 3)
        fields = (table.order, table.residue, table.quadrature, table.quadrature_scale)
        for field in fields:
            assert (field[0] == 0).all() and (field[:, 1] == 0).all()
        assert (table.quadrature[1] == 0).all() and (table.quadrature_scale[1] == 0).all()
        # the live rows have a pole at the finite site, seen by both backends
        # where there is a circle
        assert (table.order[1:, ::2] == 2).all() and (table.residue[1:, ::2] != 0).all()
        assert (table.quadrature[2, ::2] != 0).all() and (table.quadrature_scale[2, ::2] > 0).all()
        # without entries, the table still has the caller's rows
        rows, flags = np.zeros((0, 3, 1)), np.zeros((0, 3))
        assert built([], [], [], [])[1](rows, flags > 0, rows, flags).residue.shape == (0, 3)
