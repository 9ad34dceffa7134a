"""Command line: verification suite, period evaluation, scans, catalog listing.

Subcommands::

    quintic-periods verify  [--filter NAME] [--report-dir DIR] [--refreeze]
    quintic-periods period  --config FILE [--s RE,IM] [--out-csv F] [--out-json F]
    quintic-periods scan    --config FILE --degree N [--out-csv F] [--out-json F]
    quintic-periods catalog

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 numerical
non-convergence.

Config files are JSON.  Numbers may be written as plain floats, as
``[re, im]`` pairs, or as exact rational strings ``"p/q"``; normalization
converts everything to ``[re, im]`` so that parse -> normalize -> serialize
-> parse is a fixed point.  CSV output uses scientific notation with 17
significant digits and a fixed column order, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import catalog as cat
from .errors import ConfigError, NonConvergenceError, QuinticPeriodsError
from .geometry import CurveFamily, Hypersurface
from .multipoly import MultiPoly
from .numkernel.parser import (
    differentiate,
    eval_on_path,
    expr_to_multipoly,
    parse_expression,
)
from .numkernel.unipoly import UniPoly
from .period import PeriodReport, ScanTable, monomial_scan, period_at


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _fmt_pair(z: complex) -> list[str]:
    return [_fmt(z.real), _fmt(z.imag)]


# ---------------------------------------------------------------------------
# configuration


def _parse_number(v: Any, where: str) -> complex:
    if isinstance(v, bool):
        raise ConfigError(f"cannot read {v!r} as a number", where)
    if isinstance(v, (int, float)):
        return complex(float(v), 0.0)
    if isinstance(v, str):
        try:
            return complex(float(Fraction(v)), 0.0)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot read {v!r} as a rational p/q", where) from None
    if isinstance(v, list) and len(v) == 2:
        return complex(_parse_number(v[0], where).real, _parse_number(v[1], where).real)
    raise ConfigError(f"cannot read {v!r} as a number", where)


@dataclass
class RunConfig:
    hypersurface: str | dict
    family: dict
    p_text: str
    samples: list[complex]
    tolerances: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        hyper = raw.get("hypersurface")
        if hyper is None:
            raise ConfigError("missing hypersurface", "hypersurface")
        if not isinstance(hyper, (str, dict)):
            raise ConfigError("hypersurface must be an identifier or a term table", "hypersurface")
        family = raw.get("family")
        if family is None:
            raise ConfigError("missing family", "family")
        if isinstance(family, str):
            family = {"catalog": family}
        if not isinstance(family, dict):
            raise ConfigError("family must be an identifier or an object", "family")
        p_text = raw.get("p", "x1^3*x2^2")
        if not isinstance(p_text, str):
            raise ConfigError("p must be expression text", "p")
        samples_raw = raw.get("samples")
        samples = _parse_samples(samples_raw)
        tol = raw.get("tolerances", {})
        out = raw.get("output", {})
        if not isinstance(tol, dict):
            raise ConfigError("tolerances must be an object", "tolerances")
        if not isinstance(out, dict):
            raise ConfigError("output must be an object", "output")
        return cls(hyper, family, p_text, samples, tol, out)

    def normalized(self) -> dict:
        """Canonical JSON-ready form; a fixed point of parse -> serialize."""
        fam = dict(self.family)
        if "coordinates" in fam:
            fam["coordinates"] = list(fam["coordinates"])
            fam.setdefault("jets", "analytic")
            fam.setdefault("zeta_index", 1)
        return {
            "family": fam,
            "hypersurface": self.hypersurface,
            "output": dict(sorted(self.output.items())),
            "p": self.p_text,
            "samples": [[z.real, z.imag] for z in self.samples],
            "tolerances": dict(sorted(self.tolerances.items())),
        }

    def serialize(self) -> str:
        return json.dumps(self.normalized(), sort_keys=True, indent=2) + "\n"


def _parse_samples(raw: Any) -> list[complex]:
    if raw is None:
        raise ConfigError("missing samples", "samples")
    if isinstance(raw, dict):
        kind = raw.get("kind")
        if kind != "segment":
            raise ConfigError(f"unknown path descriptor kind {kind!r}", "samples.kind")
        start = _parse_number(raw.get("start", 0.0), "samples.start")
        stop = _parse_number(raw.get("stop"), "samples.stop")
        count = raw.get("count")
        if not isinstance(count, int) or count < 1:
            raise ConfigError("segment count must be a positive integer", "samples.count")
        return [start + (stop - start) * (k + 1) / count for k in range(count)]
    if isinstance(raw, list) and raw:
        return [_parse_number(v, f"samples[{i}]") for i, v in enumerate(raw)]
    raise ConfigError("samples must be a nonempty list or a path descriptor", "samples")


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_dict(raw)


def build_hypersurface(cfg: RunConfig) -> Hypersurface:
    if isinstance(cfg.hypersurface, str):
        return cat.resolve_hypersurface(cfg.hypersurface)
    terms_raw = cfg.hypersurface.get("terms")
    nvars = cfg.hypersurface.get("nvars")
    if not isinstance(terms_raw, list) or not isinstance(nvars, int):
        raise ConfigError("explicit hypersurface needs nvars and a terms list", "hypersurface")
    terms = {}
    for i, item in enumerate(terms_raw):
        where = f"hypersurface.terms[{i}]"
        if not isinstance(item, dict) or "exponents" not in item or "coeff" not in item:
            raise ConfigError("term needs coeff and exponents", where)
        exps = tuple(int(e) for e in item["exponents"])
        terms[exps] = terms.get(exps, 0j) + _parse_number(item["coeff"], where)
    return Hypersurface(MultiPoly(nvars, terms))


def build_family(cfg: RunConfig) -> CurveFamily:
    fam = cfg.family
    if "catalog" in fam:
        return cat.resolve_family(str(fam["catalog"]))
    coords = fam.get("coordinates")
    if not isinstance(coords, list) or not coords:
        raise ConfigError("family needs a catalog id or coordinate expressions", "family")
    zeta_index = int(fam.get("zeta_index", 1))
    zeta = cat.zeta_value(zeta_index)
    exprs = [parse_expression(str(c)) for c in coords]
    jets_mode = fam.get("jets", "analytic")
    fd_step = float(fam.get("fd_step", 1e-5))
    t_poly = UniPoly.variable()

    def coords_at(s: complex) -> list[UniPoly]:
        out = []
        for e in exprs:
            v = eval_on_path(e, "s", s, env={"t": t_poly, "zeta": zeta})
            out.append(v if isinstance(v, UniPoly) else UniPoly.constant(v))
        return out

    if jets_mode == "analytic":
        derivs = [differentiate(e, "s") for e in exprs]

        def jets_at(s: complex) -> list[UniPoly]:
            out = []
            for e in derivs:
                v = eval_on_path(e, "s", s, env={"t": t_poly, "zeta": zeta})
                out.append(v if isinstance(v, UniPoly) else UniPoly.constant(v))
            return out

    elif jets_mode == "fd":
        jets_at = None
    else:
        raise ConfigError(f"unknown jets mode {jets_mode!r}", "family.jets")

    # the t-degree may vary with s (leading coefficients can vanish at
    # special samples), so probe every requested sample
    d_curve = -1
    for s in cfg.samples:
        d_curve = max(d_curve, max(p.degree for p in coords_at(s)))
    if d_curve < 0:
        raise ConfigError("all coordinates vanish at every sample", "family.coordinates")
    from .geometry import family_from_charts

    return family_from_charts(
        str(fam.get("name", "config-family")),
        coords_at,
        d_curve,
        jets_at=jets_at,
        fd_step=fd_step,
        metadata={"source": "config"},
    )


def build_p(cfg: RunConfig, X: Hypersurface) -> MultiPoly:
    expr = parse_expression(cfg.p_text)
    return expr_to_multipoly(expr, nvars=X.nvars, constants={"zeta": cat.zeta_value(1)})


# ---------------------------------------------------------------------------
# report writers


def period_csv_lines(reports: Sequence[PeriodReport]) -> list[str]:
    header = [
        "s_re",
        "s_im",
        "total_re",
        "total_im",
        "abs",
        "phase",
        "min_pole_separation",
        "max_backend_disagreement",
        "max_residue_theorem_check",
    ]
    lines = [",".join(header)]
    for r in reports:
        theorem = max(
            (c.residue_theorem_check for c in r.per_pair.values()), default=0.0
        )
        row = (
            _fmt_pair(r.s)
            + _fmt_pair(r.total)
            + [
                _fmt(abs(r.total)),
                _fmt(cmath.phase(r.total) if r.total != 0 else 0.0),
                _fmt(r.min_pole_separation if r.min_pole_separation != float("inf") else 0.0),
                _fmt(r.max_backend_disagreement),
                _fmt(theorem),
            ]
        )
        lines.append(",".join(row))
    return lines


DEFAULT_TOLERANCES = {
    "backend_agreement": 1e-8,
    "residue_theorem": 1e-8,
    "vanish_rel": 1e-9,
}


def period_json_payload(reports: Sequence[PeriodReport], tolerances: dict) -> dict:
    out = []
    for r in reports:
        pairs = {}
        for (j0, j1), c in sorted(r.per_pair.items()):
            pairs[f"{j0},{j1}"] = {
                "residue_sum": [c.residue_sum.real, c.residue_sum.imag],
                "numerator_zero": c.numerator_zero,
                "residue_theorem_check": c.residue_theorem_check,
                "dual_sum_check": c.dual_sum_check,
                "sites": [
                    {
                        "location": None if s.at_infinity else [s.location.real, s.location.imag],
                        "at_infinity": s.at_infinity,
                        "pole_order": s.pole_order,
                        "residue": [s.residue.real, s.residue.imag],
                        "backend_disagreement": s.backend_disagreement,
                    }
                    for s in c.sites
                ],
            }
        out.append(
            {
                "s": [r.s.real, r.s.imag],
                "total": [r.total.real, r.total.imag],
                "vanish_scale": r.vanish_scale,
                "vanishes": r.vanishes,
                "max_backend_disagreement": r.max_backend_disagreement,
                "per_pair": pairs,
            }
        )
    return {"samples": out, "tolerances": {**DEFAULT_TOLERANCES, **tolerances}}


def scan_csv_lines(table: ScanTable) -> list[str]:
    header = ["monomial"]
    for k in range(len(table.s_list)):
        header += [f"abs_{k}", f"phase_{k}"]
    header.append("vanishes")
    lines = [",".join(header)]
    for row in table.rows:
        cells = [row.monomial]
        for t in row.totals:
            cells.append(_fmt(abs(t)))
            cells.append(_fmt(cmath.phase(t) if t != 0 else 0.0))
        cells.append("VANISHES" if row.vanishes else "NONZERO")
        lines.append(",".join(cells))
    return lines


def scan_json_payload(table: ScanTable) -> dict:
    return {
        "family": table.family_name,
        "degree": table.degree,
        "samples": [[s.real, s.imag] for s in table.s_list],
        "tolerances": {"vanish_rel": DEFAULT_TOLERANCES["vanish_rel"]},
        "rows": [
            {
                "monomial": r.monomial,
                "exponents": list(r.exponents),
                "totals": [[t.real, t.imag] for t in r.totals],
                "vanish_scales": r.vanish_scales,
                "max_backend_disagreements": r.max_backend_disagreements,
                "vanishes": r.vanishes,
            }
            for r in table.rows
        ],
    }


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# commands


def cmd_period(args) -> int:
    cfg = load_config(args.config)
    X = build_hypersurface(cfg)
    fam = build_family(cfg)
    P = build_p(cfg, X)
    samples = cfg.samples
    if args.s:
        re_s, im_s = (args.s.split(",") + ["0"])[:2]
        samples = [complex(float(re_s), float(im_s))]
    reports = [period_at(X, P, fam, s) for s in samples]
    csv_text = "\n".join(period_csv_lines(reports)) + "\n"
    json_text = (
        json.dumps(period_json_payload(reports, cfg.tolerances), sort_keys=True, indent=2) + "\n"
    )
    _write(args.out_csv or cfg.output.get("csv"), csv_text)
    _write(args.out_json or cfg.output.get("json"), json_text)
    sys.stdout.write(csv_text)
    return 0


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    X = build_hypersurface(cfg)
    fam = build_family(cfg)
    table = monomial_scan(X, fam, cfg.samples, args.degree)
    csv_text = "\n".join(scan_csv_lines(table)) + "\n"
    json_text = json.dumps(scan_json_payload(table), sort_keys=True, indent=2) + "\n"
    _write(args.out_csv or cfg.output.get("csv"), csv_text)
    _write(args.out_json or cfg.output.get("json"), json_text)
    nonzero = sum(1 for r in table.rows if not r.vanishes)
    sys.stdout.write(
        f"{len(table.rows)} monomials x {len(table.s_list)} samples; "
        f"{nonzero} non-vanishing rows\n"
    )
    return 0


def cmd_catalog(_args) -> int:
    entries = cat.catalog_entries()
    for group in sorted(entries):
        sys.stdout.write(f"[{group}]\n")
        for ident in entries[group]:
            sys.stdout.write(f"  {ident}\n")
    return 0


def cmd_verify(args) -> int:
    from . import verification

    results = verification.run_all(
        name_filter=args.filter, refreeze=args.refreeze
    )
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        line = f"{status}  {r.name}: {r.summary}"
        lines.append(line)
        sys.stdout.write(line + "\n")
    payload = {
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "summary": r.summary,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "runtime_seconds": r.runtime_seconds,
            }
            for r in results
        ],
        "all_passed": ok,
    }
    (report_dir / "verify.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    (report_dir / "verify.txt").write_text("\n".join(lines) + "\n")
    if not results:
        sys.stdout.write(f"no checks match filter {args.filter!r}\n")
        return 1
    return 0 if ok else 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quintic-periods",
        description="Residue-cocycle periods of first-order curve families",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--filter", default=None, help="run only checks whose name contains this")
    v.add_argument("--report-dir", default="reports", help="where to write verify.{json,txt}")
    v.add_argument(
        "--refreeze",
        action="store_true",
        help="regenerate the golden regression fixture (maintainer use)",
    )
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("period", help="evaluate the period on config samples")
    p.add_argument("--config", required=True)
    p.add_argument("--s", default=None, help="override samples with one value RE,IM")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_period)

    s = sub.add_parser("scan", help="period of every monomial class of the given degree")
    s.add_argument("--config", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--out-csv", default=None)
    s.add_argument("--out-json", default=None)
    s.set_defaults(func=cmd_scan)

    c = sub.add_parser("catalog", help="list built-in hypersurfaces and families")
    c.set_defaults(func=cmd_catalog)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except NonConvergenceError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 3
    except QuinticPeriodsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
