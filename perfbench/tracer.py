"""Span tracer for the benchmark's traced run.

The tracer replaces each traced library function, in the namespace the
pipeline looks it up in, by a wrapper that records one span per call: name,
start, end, parent span and op id. Spans are kept in flat integer arrays in
memory and written out once, after measuring. Outside an op (set-up, oracle
checks) the wrappers only forward the call.

Counters come from the wrapped calls' inputs and outputs, never from inside
the library: root-finder degrees, raised errors, and the public
``ZeroSiteReport`` fields of each residue sum.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from quintic_periods.errors import NonConvergenceError, PoleMismatchError

# (owner, attribute): owner is the module or class the pipeline looks the
# name up in, so one function imported into two modules is traced twice.
# pole_sites and residue_at_infinity_analytic feed no metric; they split the
# residue-theorem diagnostic's time in the span file.
TARGETS = [
    ("quintic_periods.period", "period_at"),
    ("quintic_periods.period", "period_of_jet"),
    ("quintic_periods.period", "monomial_scan"),
    ("quintic_periods.period", "pair_numerator"),
    ("quintic_periods.period", "pair_wedges"),
    ("quintic_periods.period", "poly_roots"),
    ("quintic_periods.period", "residues_at_zeros"),
    ("quintic_periods.period", "residue_sum_check"),
    ("quintic_periods.period", "residue_at_infinity_analytic"),
    ("quintic_periods.numkernel.residues", "poly_roots"),
    ("quintic_periods.numkernel.residues", "residue_analytic"),
    ("quintic_periods.numkernel.residues:RationalFunction", "__call__"),
    ("quintic_periods.numkernel.residues:RationalFunction", "pole_sites"),
    ("quintic_periods.geometry:CurveFamily", "jet_at"),
    ("quintic_periods.geometry", "transform_jet"),
    ("quintic_periods.multipoly:MultiPoly", "compose_unipoly"),
    ("quintic_periods.catalog", "root5_neg1_minus_s5"),
    ("quintic_periods.catalog", "d_root5_neg1_minus_s5"),
    ("quintic_periods.catalog", "continued_root5"),
    ("quintic_periods.cli", "eval_on_path"),
]

OP_SPAN = "bench.op"

# per-layer self time: metric -> traced attributes whose self time it sums
SELF_MS = {
    "catalog.self_ms": ("root5_neg1_minus_s5", "d_root5_neg1_minus_s5"),
    "geometry.jet_self_ms": ("jet_at", "transform_jet"),
    "numkernel.parser.eval_self_ms": ("continued_root5", "eval_on_path"),
    "multipoly.compose_self_ms": ("compose_unipoly",),
    "griffiths.numerator_self_ms": ("pair_numerator",),
    "griffiths.wedges_self_ms": ("pair_wedges",),
    "numkernel.roots.self_ms": ("poly_roots",),
    "numkernel.residues.zeros_self_ms": ("residues_at_zeros",),
    "numkernel.residues.analytic_self_ms": ("residue_analytic",),
    "numkernel.residues.quad_eval_self_ms": ("__call__",),
    "period.self_ms": ("period_at", "period_of_jet", "monomial_scan"),
}
INCLUSIVE_MS = {"numkernel.residues.sum_check_incl_ms": ("residue_sum_check",)}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _roots_hook(counts, args, kwargs, result, exc):
    p = args[0]
    zero_mult = 0
    while zero_mult < len(p.coeffs) and p.coeffs[zero_mult] == 0:
        zero_mult += 1
    counts["roots.calls"] += 1
    counts["roots.degree_sum"] += p.degree
    # degree <= 2 after stripping roots at 0 is solved in closed form
    counts["roots.iterative_calls"] += p.degree - zero_mult >= 3
    counts["roots.nonconvergence"] += isinstance(exc, NonConvergenceError)


def _analytic_hook(counts, args, kwargs, result, exc):
    counts["residues.pole_mismatch"] += isinstance(exc, PoleMismatchError)


def _zeros_hook(counts, args, kwargs, result, exc):
    # the assembly passes the companion coordinate as guard; the dual-sum
    # diagnostic passes None and never runs quadrature
    if kwargs.get("guard") is None:
        return
    counts["residues.assembly_calls"] += 1
    if result is None:
        return
    nodes = kwargs.get("nodes", 256)
    for site in result.sites:
        counts["residues.pole_sites"] += site.pole_order > 0
        counts["residues.quad_evals"] += nodes if site.residue_quadrature is not None else 0
    counts["residues.max_backend_disagreement"] = max(
        counts["residues.max_backend_disagreement"], result.max_backend_disagreement
    )


def _numerator_hook(counts, args, kwargs, result, exc):
    counts["griffiths.numerator_calls"] += 1


HOOKS = {
    "poly_roots": _roots_hook,
    "residue_analytic": _analytic_hook,
    "residues_at_zeros": _zeros_hook,
    "pair_numerator": _numerator_hook,
}


class Tracer:
    """Records spans of the traced library calls made inside ``op`` blocks."""

    def __init__(self):
        self.names: list[str] = []
        self.attrs: list[str] = []
        self.name_col = array("q")
        self.op_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._op_name = self._name_id(OP_SPAN, OP_SPAN)

    def _name_id(self, name: str, attr: str) -> int:
        self.names.append(name)
        self.attrs.append(attr)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.op_col.append(self._op)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end_col[idx] = perf_counter_ns()
        self._stack.pop()

    def install(self) -> None:
        for owner, attr in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr)
            name = f"{owner.replace(':', '.')}.{attr}"
            setattr(obj, attr, self._wrap(fn, self._name_id(name, attr), HOOKS.get(attr)))
            self._saved.append((obj, attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def _wrap(self, fn, nid: int, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._close(idx)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; library spans inside it get op_id."""
        self._op = op_id
        idx = self._open(self._op_name)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def columns(self) -> dict[str, np.ndarray]:
        cols = {
            "name": self.name_col,
            "op": self.op_col,
            "parent": self.parent_col,
            "start_ns": self.start_col,
            "end_ns": self.end_col,
        }
        return {k: np.frombuffer(v, dtype=np.int64) for k, v in cols.items()}

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the part its child spans cover."""
        c = self.columns()
        dur = (c["end_ns"] - c["start_ns"]).astype(np.float64)
        child = c["parent"] >= 0
        covered = np.bincount(c["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Per-op self times (ms) and counts over the whole run; the times of
        op k are multiplied by scales[k], its host-speed normalization."""
        ops = len(scales)
        c = self.columns()
        scale = np.asarray(scales)[c["op"]]
        dur = (c["end_ns"] - c["start_ns"]) * scale
        n = len(self.names)
        by_name_self = np.bincount(c["name"], weights=self.self_ns() * scale, minlength=n)
        by_name_incl = np.bincount(c["name"], weights=dur, minlength=n)

        def ms_per_op(totals, attrs):
            ids = [i for i, a in enumerate(self.attrs) if a in attrs]
            return float(totals[ids].sum()) / 1e6 / ops

        out = {m: ms_per_op(by_name_self, a) for m, a in SELF_MS.items()}
        out.update({m: ms_per_op(by_name_incl, a) for m, a in INCLUSIVE_MS.items()})
        k = self.counts
        for key in (
            "roots.calls",
            "roots.iterative_calls",
            "roots.degree_sum",
            "roots.nonconvergence",
            "residues.pole_mismatch",
            "residues.pole_sites",
            "residues.quad_evals",
        ):
            out[f"numkernel.{key}"] = k[key] / ops
        numerators = k["griffiths.numerator_calls"]
        skipped = numerators - k["residues.assembly_calls"]
        out["griffiths.numerator_zero_share"] = skipped / numerators if numerators else 0.0
        out["numkernel.residues.max_backend_disagreement"] = k["residues.max_backend_disagreement"]
        out["trace.spans_per_op"] = len(dur) / ops
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
