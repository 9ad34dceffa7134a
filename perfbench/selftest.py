"""Self-tests of the benchmark: inputs, oracles, and span accounting.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import unittest

import run

run.import_library()

import workloads  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

PERTURBATION = 1e-6
_BUILT = {}


def workload(name):
    if name not in _BUILT:
        _BUILT[name] = workloads.WORKLOADS[name]()
    return _BUILT[name]


def first_passing(w, seed=3, tries=20):
    """The first generated op that runs and passes its oracle, with its output."""
    for op in itertools.islice(w.inputs(seed), tries):
        try:
            out = w.run(op)
        except Exception:
            continue
        if w.check(op, out) is None:
            return op, out
    raise AssertionError(f"no passing op among the first {tries} of {w.name}")


def scaled(report, factor):
    return dataclasses.replace(report, total=report.total * factor)


class InputsTest(unittest.TestCase):
    def test_one_seed_regenerates_identical_inputs(self):
        for name in workloads.WORKLOADS:
            w = workload(name)
            first = list(itertools.islice(w.inputs(11), 25))
            self.assertEqual(first, list(itertools.islice(w.inputs(11), 25)), name)
            self.assertNotEqual(first, list(itertools.islice(w.inputs(12), 25)), name)


class OracleTest(unittest.TestCase):
    def test_line_oracles(self):
        for name in ("catalog-periods", "reparam-periods"):
            w = workload(name)
            op, out = first_passing(w)
            if name == "catalog-periods":  # an op is two lines; perturb the second
                bad = [out[0], scaled(out[1], 1 + PERTURBATION)]
                wrong_zeta = (op[0], dataclasses.replace(op[1], zeta=(op[1].zeta + 1) % 5))
            else:
                bad = scaled(out, 1 + PERTURBATION)
                wrong_zeta = dataclasses.replace(op, zeta=(op.zeta + 1) % 5)
            self.assertEqual(w.check(op, bad), "ratio", name)
            self.assertEqual(w.check(wrong_zeta, out), "ratio", name)

    def test_scan_oracle(self):
        w = workload("monomial-scan")
        op, table = first_passing(w)
        oracle_row = workloads.oracle_exponents(op.pair)

        def perturbed(exps, delta):
            rows = [
                dataclasses.replace(r, totals=[r.totals[0] + delta]) if r.exponents == exps else r
                for r in table.rows
            ]
            return dataclasses.replace(table, rows=rows)

        ref = abs(workloads.closed_form(op.zeta, op.s))
        self.assertEqual(w.check(op, perturbed(oracle_row, PERTURBATION * ref)), "ratio")
        combo_row = workloads.MONOMIALS[op.combo[0][0]]
        if combo_row != oracle_row:
            self.assertEqual(w.check(op, perturbed(combo_row, PERTURBATION * ref)), "combination")
        wrong_zeta = dataclasses.replace(op, zeta=(op.zeta + 1) % 5)
        self.assertEqual(w.check(wrong_zeta, table), "ratio")

    def test_shioda_oracle(self):
        # no zeta on this workload: the oracle is the declared tolerances
        w = workload("shioda-lines")
        op, report = first_passing(w)
        key, pair = next(
            (k, c) for k, c in report.per_pair.items() if any(s.pole_order for s in c.sites)
        )
        sites = [
            dataclasses.replace(s, residue=s.residue * (1 + PERTURBATION)) if s.pole_order else s
            for s in pair.sites
        ]
        bad = {**report.per_pair, key: dataclasses.replace(pair, sites=sites)}
        bad_report = dataclasses.replace(
            report, per_pair=bad, max_backend_disagreement=max(
                c.max_backend_disagreement for c in bad.values()
            )
        )
        self.assertEqual(w.check(op, bad_report), "backend")
        scale = max(
            [1.0, report.vanish_scale]
            + [abs(s.residue) for c in report.per_pair.values() for s in c.sites]
        )
        broken = dataclasses.replace(pair, residue_theorem_check=PERTURBATION * scale)
        self.assertEqual(
            w.check(op, dataclasses.replace(report, per_pair={**report.per_pair, key: broken})),
            "residue_theorem",
        )


class TracerTest(unittest.TestCase):
    def traced_ops(self, name, count):
        w = workload(name)
        tracer = Tracer()
        walls = []
        tracer.install()
        try:
            for k, op in enumerate(itertools.islice(w.inputs(5), count)):
                t0 = time.perf_counter_ns()
                try:
                    with tracer.op(k):
                        w.run(op)
                except Exception:
                    pass  # failed ops still leave closed spans
                walls.append(time.perf_counter_ns() - t0)
        finally:
            tracer.uninstall()
        return tracer, walls

    def test_self_times_add_up_to_op_wall_time(self):
        for name, count in (("catalog-periods", 5), ("reparam-periods", 2)):
            tracer, walls = self.traced_ops(name, count)
            c = tracer.columns()
            self_ns = tracer.self_ns()
            roots = c["name"] == tracer.names.index(OP_SPAN)
            self.assertEqual(int(roots.sum()), count)
            self.assertTrue((c["end_ns"] >= c["start_ns"]).all())
            for k, wall in enumerate(walls):
                in_op = c["op"] == k
                self.assertGreater(int(in_op.sum()), 1, name)
                root_ns = float((c["end_ns"] - c["start_ns"])[in_op & roots][0])
                self.assertAlmostEqual(float(self_ns[in_op].sum()), root_ns, delta=1.0)
                # the root span misses only the context manager's own entry and exit
                self.assertLessEqual(root_ns, wall)
                self.assertLess(wall - root_ns, 1e6)

    def test_iterative_roots_only_off_fermat_charts(self):
        tracer, _ = self.traced_ops("catalog-periods", 3)
        self.assertGreater(tracer.counts["roots.calls"], 0)
        self.assertEqual(tracer.counts["roots.iterative_calls"], 0)
        tracer, _ = self.traced_ops("reparam-periods", 1)
        self.assertGreater(tracer.counts["roots.iterative_calls"], 0)

    def test_uninstall_restores_the_library(self):
        from quintic_periods import period

        before = period.poly_roots
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(period.poly_roots, before)
        tracer.uninstall()
        self.assertIs(period.poly_roots, before)


if __name__ == "__main__":
    unittest.main()
