"""The four benchmark workloads: seeded inputs, the timed operation, the oracle.

Each workload is built once (its set-up: hypersurface and families), then
turns a seed into an endless, reproducible stream of operation specs. A spec
is plain data; the library sees only what ``run`` builds from it.

``check`` returns ``None`` when the output passes its oracle, otherwise the
name of the breached check. The oracles do not call the library except to
evaluate the period being checked against (the scan's combination check):

* Fermat lines: for the family with slots (x, -zeta x) at the pair (i, j)
  and the remaining slots (a, b, c), the class P = x_j^3 x_a^2 has period
  exactly +-(6 zeta^4 / 25) w^-4 with w = root5(-1 - s^5) continued from the
  principal value at s = 0. Since -1 - s^5 = e^(i pi) (1 + s^5) and
  |s^5| < 1 on the sample annulus, w = e^(i pi/5) (1 + s^5)^(1/5) with the
  principal root, computed here without the library.
* Shioda lines have no closed form; the oracle enforces the tolerances the
  tool declares: backend disagreement and the per-pair residue theorem.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from quintic_periods import catalog, cli, geometry, period
from quintic_periods.multipoly import MultiPoly, monomials_of_degree
from quintic_periods.numkernel.unipoly import BinaryForm

RATIO_TOL = 1e-8  # |period / closed form - (+-1)|
COMBO_TOL = 1e-9  # scan rows against one period_at of their combination
BACKEND_TOL = 1e-8  # declared backend agreement
RESIDUE_THEOREM_TOL = 1e-8  # declared residue-theorem tolerance, per site scale
# Share of failed inputs a run still calls correct. Rooting 4-fold poles
# (reparametrized lines, Shioda's x_j^4 partials) fails about 2.5% and 10%
# of inputs at the seed commit; those failures are counted, not hidden. The
# ceiling is three times the larger share.
MAX_DEFECT_SHARE = 0.3
S_RADII = (0.06, 0.27)  # annulus of catalog.STANDARD_PERIOD_SAMPLES
PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]
MONOMIALS = monomials_of_degree(5, 5)


def zeta(k: int) -> complex:
    return cmath.exp(2j * math.pi * k / 5)


def closed_form(zeta_index: int, s: complex) -> complex:
    """(6 zeta^4 / 25) w^-4 with w = root5(-1 - s^5) on the branch at s = 0."""
    w = cmath.exp(1j * math.pi / 5) * (1.0 + s**5) ** 0.2
    return 6.0 * zeta(zeta_index) ** 4 / 25.0 * w**-4


def unit_ratio_breached(total: complex, zeta_index: int, s: complex) -> bool:
    r = total / closed_form(zeta_index, s)
    return abs(r - (1.0 if r.real >= 0 else -1.0)) > RATIO_TOL


def oracle_exponents(pair: tuple[int, int]) -> tuple[int, ...]:
    """Exponents of x_j^3 x_a^2, a the first slot outside the pair (i, j)."""
    i, j = pair
    a = min(k for k in range(5) if k not in pair)
    exps = [0] * 5
    exps[j] = 3
    exps[a] = 2
    return tuple(exps)


def _annulus_sample(rng: np.random.Generator) -> complex:
    return rng.uniform(*S_RADII) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    g = rng.standard_normal((*shape, 2))
    return g[..., 0] + 1j * g[..., 1]


@dataclass(frozen=True)
class LineOp:
    pair: tuple[int, int]
    zeta: int
    s: complex
    expr: bool = False  # the same line written as coordinate expressions
    mobius: tuple[complex, complex, complex, complex] | None = None


@dataclass(frozen=True)
class ScanOp:
    pair: tuple[int, int]
    zeta: int
    s: complex
    combo: tuple[tuple[int, complex], ...]  # (monomial index, coefficient)


@dataclass(frozen=True)
class JetOp:
    s: complex
    x: tuple[tuple[complex, complex], ...]
    y: tuple[tuple[complex, complex], ...]
    monomial: tuple[int, ...]


def expression_family(pair: tuple[int, int], zeta_index: int) -> geometry.CurveFamily:
    """The catalog line written as coordinate expressions, built by the CLI."""
    i, j = pair
    a, b, c = (k for k in range(5) if k not in pair)
    coords = [""] * 5
    coords[i], coords[j] = "t", "-zeta*t"
    coords[a], coords[b], coords[c] = "1", "s", "root5(-1-s^5)"
    cfg = cli.RunConfig.from_dict(
        {
            "hypersurface": "fermat/m=3,d=5",
            "family": {"coordinates": coords, "zeta_index": zeta_index, "jets": "analytic"},
            # only probes the t-degree, which is 1 at every s
            "samples": [[S_RADII[0], 0.0]],
        }
    )
    return cli.build_family(cfg)


class _FermatLines:
    """Shared set-up of the three Fermat workloads: X, 50 catalog families, and
    the oracle class of each."""

    def __init__(self, with_expressions: bool):
        self.X = catalog.fermat_hypersurface(3, 5)
        self.families = {}
        self.expr_families = {}
        self.oracle_P = {}
        for d in catalog.line_families():
            key = (d.pair, d.zeta_index)
            self.families[key] = d.family()
            self.oracle_P[key] = MultiPoly.monomial(5, 1.0, oracle_exponents(d.pair))
            if with_expressions:
                self.expr_families[key] = expression_family(d.pair, d.zeta_index)

    def line_family(self, op: LineOp) -> geometry.CurveFamily:
        key = (op.pair, op.zeta)
        fam = self.expr_families[key] if op.expr else self.families[key]
        if op.mobius is not None:
            fam = geometry.mobius_reparam(fam, geometry.MobiusMap(*op.mobius))
        return fam

    def run(self, op: LineOp):
        P = self.oracle_P[(op.pair, op.zeta)]
        return period.period_at(self.X, P, self.line_family(op), op.s)

    def check(self, op: LineOp, report) -> str | None:
        return "ratio" if unit_ratio_breached(report.total, op.zeta, op.s) else None


class CatalogPeriods(_FermatLines):
    """Each op is two periods: one seeded line through its catalog family and
    one through the CLI's expression family. Alternating single periods would
    mix two latency modes half and half, and their median would jump between
    the modes."""

    name = "catalog-periods"
    periods_per_op = 2
    max_failed_share = 0.0

    def __init__(self):
        super().__init__(with_expressions=True)

    def inputs(self, seed: int) -> Iterator[tuple[LineOp, LineOp]]:
        rng = np.random.default_rng(seed)
        while True:
            yield tuple(
                LineOp(
                    PAIRS[rng.integers(len(PAIRS))], int(rng.integers(5)), _annulus_sample(rng), expr
                )
                for expr in (False, True)
            )

    def run(self, ops: tuple[LineOp, LineOp]):
        return [_FermatLines.run(self, op) for op in ops]

    def check(self, ops: tuple[LineOp, LineOp], reports) -> str | None:
        breaches = (_FermatLines.check(self, op, rep) for op, rep in zip(ops, reports))
        return next(filter(None, breaches), None)


class ReparamPeriods(_FermatLines):
    name = "reparam-periods"
    periods_per_op = 1
    max_failed_share = MAX_DEFECT_SHARE

    def __init__(self):
        super().__init__(with_expressions=True)

    def inputs(self, seed: int) -> Iterator[LineOp]:
        rng = np.random.default_rng(seed)
        k = 0
        while True:
            pair = PAIRS[rng.integers(len(PAIRS))]
            zeta_index, s = int(rng.integers(5)), _annulus_sample(rng)
            a, b, c, d = _complex_normal(rng, 4)
            root_det = cmath.sqrt(a * d - b * c)  # normalize into PSL(2, C)
            mobius = tuple(complex(v / root_det) for v in (a, b, c, d))
            yield LineOp(pair, zeta_index, s, expr=k % 2 == 1, mobius=mobius)
            k += 1


class MonomialScan(_FermatLines):
    name = "monomial-scan"
    periods_per_op = len(MONOMIALS)
    max_failed_share = 0.0

    def __init__(self):
        super().__init__(with_expressions=False)

    def inputs(self, seed: int) -> Iterator[ScanOp]:
        rng = np.random.default_rng(seed)
        while True:
            pair = PAIRS[rng.integers(len(PAIRS))]
            zeta_index, s = int(rng.integers(5)), _annulus_sample(rng)
            idx = rng.choice(len(MONOMIALS), size=3, replace=False)
            coeffs = _complex_normal(rng, 3)
            combo = tuple((int(i), complex(c)) for i, c in zip(idx, coeffs))
            yield ScanOp(pair, zeta_index, s, combo)

    def run(self, op: ScanOp):
        return period.monomial_scan(self.X, self.families[(op.pair, op.zeta)], [op.s], 5)

    def check(self, op: ScanOp, table) -> str | None:
        rows = {row.exponents: row.totals[0] for row in table.rows}
        if len(rows) != len(MONOMIALS):
            return "rows"
        if unit_ratio_breached(rows[oracle_exponents(op.pair)], op.zeta, op.s):
            return "ratio"
        P = MultiPoly(5, {MONOMIALS[i]: c for i, c in op.combo})
        direct = period.period_at(self.X, P, self.families[(op.pair, op.zeta)], op.s).total
        combined = sum(c * rows[MONOMIALS[i]] for i, c in op.combo)
        scale = max(
            sum(abs(c * rows[MONOMIALS[i]]) for i, c in op.combo),
            abs(closed_form(op.zeta, op.s)),
        )
        return "combination" if abs(direct - combined) > COMBO_TOL * scale else None


class ShiodaLines:
    name = "shioda-lines"
    periods_per_op = 1
    max_failed_share = MAX_DEFECT_SHARE

    def __init__(self):
        self.X = catalog.shioda_quintic()

    def inputs(self, seed: int) -> Iterator[JetOp]:
        rng = np.random.default_rng(seed)
        while True:
            x, y = (tuple(map(tuple, a.tolist())) for a in _complex_normal(rng, 2, 5, 2))
            s = complex(_complex_normal(rng))
            yield JetOp(s, x, y, MONOMIALS[rng.integers(len(MONOMIALS))])

    def run(self, op: JetOp):
        jet = geometry.CurveJet(
            op.s,
            tuple(BinaryForm(1, c) for c in op.x),
            tuple(BinaryForm(1, c) for c in op.y),
            1,
        )
        return period.period_of_jet(self.X, MultiPoly.monomial(5, 1.0, op.monomial), jet)

    def check(self, op: JetOp, report) -> str | None:
        if report.max_backend_disagreement >= BACKEND_TOL:
            return "backend"
        # jets have unit-normal coefficients, so a period whose every residue
        # vanishes is judged on an absolute scale of 1
        scale = max(
            [1.0, report.vanish_scale]
            + [abs(site.residue) for c in report.per_pair.values() for site in c.sites]
        )
        worst = max(c.residue_theorem_check for c in report.per_pair.values())
        return "residue_theorem" if worst >= RESIDUE_THEOREM_TOL * scale else None


WORKLOADS = {w.name: w for w in (CatalogPeriods, ReparamPeriods, MonomialScan, ShiodaLines)}
