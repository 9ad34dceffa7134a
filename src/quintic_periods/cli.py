"""Command line: verification suite, period evaluation, scans, catalog listing.

Subcommands::

    quintic-periods verify  [--filter NAME] [--report-dir DIR] [--refreeze]
    quintic-periods period  --config FILE [--s RE,IM] [--out-csv F] [--out-json F]
    quintic-periods scan    --config FILE --degree N [--out-csv F] [--out-json F]
    quintic-periods catalog

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 numerical
non-convergence or a sample that breaks a declared tolerance (its outputs
are still written).

Config files are JSON.  Numbers may be written as plain floats, as
``[re, im]`` pairs, or as exact rational strings ``"p/q"``.  CSV output uses
scientific notation with 17 significant digits and a fixed column order, so
identical configs produce byte-identical files.  JSON output is standard
JSON: a NaN or infinite number is written as null.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import catalog as cat
from .errors import (
    ConfigError,
    EvaluationError,
    NonConvergenceError,
    ParseError,
    QuinticPeriodsError,
)
from .geometry import CurveFamily, CurveJet, Hypersurface
from .multipoly import MultiPoly
from .numkernel.parser import (
    Expr,
    differentiate,
    eval_on_path,
    expr_to_multipoly,
    parse_expression,
)
from .numkernel.unipoly import BinaryForm, UniPoly
from .period import VANISH_REL_TOL, PeriodReport, ScanTable, monomial_scan, period_at, vanishes


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _fmt_pair(z: complex) -> list[str]:
    return [_fmt(z.real), _fmt(z.imag)]


def _json_text(payload: Any) -> str:
    """Standard JSON (RFC 8259) of a payload: a NaN or infinite number is
    written as null."""
    return json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite(value: Any) -> Any:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# configuration


def _parse_number(v: Any, where: str) -> complex:
    """A JSON number, an exact rational string "p/q", or a ``[re, im]`` pair
    of them; every part finite."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    try:
        if any(isinstance(part, bool) for part in parts):
            raise TypeError
        return complex(*(float(Fraction(part)) for part in parts))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        # Fraction refuses NaN and infinities, float a rational too large
        raise ConfigError(f"cannot read {v!r} as a finite number", where) from None


def _converted(convert, value: Any, where: str, what: str):
    """convert(value), or a ConfigError naming the field if it cannot."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot read {value!r} as {what}", where) from None


def _whole(value: Any) -> int:
    """int(value), refusing a boolean and a float with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _known_keys(obj: dict, keys: Sequence[str], where: str) -> None:
    """Refuse a key of obj that the loader does not read: it would have no
    effect.  ``where`` is obj's field path, "" at the root."""
    for key in obj:
        if key not in keys:
            raise ConfigError(
                f"unknown key {key!r} (expected one of {', '.join(keys)})",
                f"{where}.{key}" if where else str(key),
            )


def _expression(text: Any, where: str) -> Expr:
    """The parsed expression, or a ConfigError naming the field."""
    try:
        return parse_expression(str(text))
    except ParseError as exc:
        raise ConfigError(str(exc), where) from None


DEFAULT_TOLERANCES = {
    "backend_agreement": 1e-8,
    "residue_theorem": 1e-8,
    "vanish_rel": VANISH_REL_TOL,
}
# the keys of a family given by coordinate expressions
EXPRESSION_KEYS = ("coordinates", "zeta_index", "jets", "name")


@dataclass
class RunConfig:
    hypersurface: str | dict
    family: dict
    p_text: str
    samples: list[complex]
    tolerances: dict  # every tolerance by name, declared or default
    output: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _known_keys(raw, ("hypersurface", "family", "p", "samples", "tolerances", "output"), "")
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
        _known_keys(family, ("catalog",) if "catalog" in family else EXPRESSION_KEYS, "family")
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
        _known_keys(tol, tuple(DEFAULT_TOLERANCES), "tolerances")
        tol = {**DEFAULT_TOLERANCES, **{name: _tolerance(raw, name) for name, raw in tol.items()}}
        _known_keys(out, ("csv", "json"), "output")
        for key, path in out.items():
            if not isinstance(path, str):
                raise ConfigError(f"an output path must be text, got {path!r}", f"output.{key}")
        return cls(hyper, family, p_text, samples, tol, out)


def _parse_samples(raw: Any) -> list[complex]:
    if raw is None:
        raise ConfigError("missing samples", "samples")
    if isinstance(raw, dict):
        kind = raw.get("kind")
        if kind != "segment":
            raise ConfigError(f"unknown path descriptor kind {kind!r}", "samples.kind")
        _known_keys(raw, ("kind", "start", "stop", "count"), "samples")
        start = _parse_number(raw.get("start", 0.0), "samples.start")
        stop = _parse_number(raw.get("stop"), "samples.stop")
        count = raw.get("count")
        if type(count) is not int or count < 1:
            raise ConfigError("segment count must be a positive integer", "samples.count")
        samples = [start + (stop - start) * (k + 1) / count for k in range(count)]
        # finite ends can still overflow in between
        if not all(map(cmath.isfinite, samples)):
            raise ConfigError(
                f"segment from {start} to {stop} overflows to non-finite samples", "samples"
            )
        return samples
    if isinstance(raw, list) and raw:
        return [_parse_number(v, f"samples[{i}]") for i, v in enumerate(raw)]
    raise ConfigError("samples must be a nonempty list or a path descriptor", "samples")


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, bytes that are not UTF-8 text
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {p}: {reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return RunConfig.from_dict(raw)


def build_hypersurface(cfg: RunConfig) -> Hypersurface:
    if isinstance(cfg.hypersurface, str):
        return cat.resolve_hypersurface(cfg.hypersurface)
    terms_raw = cfg.hypersurface.get("terms")
    nvars = cfg.hypersurface.get("nvars")
    if not isinstance(terms_raw, list) or type(nvars) is not int or nvars < 1:
        raise ConfigError("explicit hypersurface needs nvars >= 1 and a terms list", "hypersurface")
    _known_keys(cfg.hypersurface, ("nvars", "terms"), "hypersurface")
    terms = {}
    for i, item in enumerate(terms_raw):
        where = f"hypersurface.terms[{i}]"
        if not isinstance(item, dict) or "exponents" not in item or "coeff" not in item:
            raise ConfigError("term needs coeff and exponents", where)
        _known_keys(item, ("coeff", "exponents"), where)
        exps = _converted(
            lambda es: tuple(_whole(e) for e in es),
            item["exponents"],
            f"{where}.exponents",
            "a list of integer exponents",
        )
        if len(exps) != nvars or min(exps) < 0:
            raise ConfigError(
                f"exponents must be {nvars} nonnegative integers, got {list(exps)}",
                f"{where}.exponents",
            )
        terms[exps] = terms.get(exps, 0j) + _parse_number(item["coeff"], where)
        if not cmath.isfinite(terms[exps]):
            raise ConfigError(
                f"coefficients on exponents {list(exps)} sum to a non-finite number", where
            )
    try:
        return Hypersurface(MultiPoly(nvars, terms))
    except ValueError as exc:
        raise ConfigError(str(exc), "hypersurface") from None


def build_family(cfg: RunConfig) -> CurveFamily:
    fam = cfg.family
    if "catalog" in fam:
        return cat.resolve_family(str(fam["catalog"]))
    coords = fam.get("coordinates")
    if not isinstance(coords, list) or not coords:
        raise ConfigError("family needs a catalog id or coordinate expressions", "family")
    # jets are the symbolic s-derivatives of the coordinates
    if fam.get("jets", "analytic") != "analytic":
        raise ConfigError(
            f"unknown jets mode {fam['jets']!r} (the one mode is 'analytic')", "family.jets"
        )
    zeta_index = _converted(_whole, fam.get("zeta_index", 1), "family.zeta_index", "an integer")
    try:
        zeta = cat.zeta_value(zeta_index)
    except ConfigError as exc:
        raise ConfigError(str(exc), "family.zeta_index") from None
    exprs = [_expression(c, f"family.coordinates[{i}]") for i, c in enumerate(coords)]
    env = {"t": UniPoly.variable(), "zeta": zeta}

    def charts(trees: list[Expr], s: complex) -> list[UniPoly]:
        """The trees at s as polynomials in t, in one evaluation; tree i
        belongs to coordinate i modulo the coordinate count."""
        try:
            values = eval_on_path(trees, s, env)
        except EvaluationError:
            # a tree that parses but is no polynomial in t: the first that
            # fails on its own is the one the evaluation stopped at
            for i, tree in enumerate(trees):
                try:
                    eval_on_path([tree], s, env)
                except EvaluationError as exc:
                    raise ConfigError(str(exc), f"family.coordinates[{i % len(exprs)}]") from None
            raise
        return [v if isinstance(v, UniPoly) else UniPoly.constant(v) for v in values]

    # the t-degree may vary with s (leading coefficients can vanish at
    # special samples), so probe every requested sample
    d_curve = max(p.degree for s in cfg.samples for p in charts(exprs, s))
    if d_curve < 0:
        raise ConfigError("all coordinates vanish at every sample", "family.coordinates")
    # the coordinates, then their s-derivatives: one evaluation per jet
    trees = exprs + [differentiate(e) for e in exprs]

    def jet(s: complex) -> CurveJet:
        out = charts(trees, s)
        for i, p in enumerate(out):
            if p.degree > d_curve:
                raise ConfigError(
                    f"t-degree {p.degree} at s = {s:.6g} exceeds the family's degree "
                    f"{d_curve}, read at the config's samples",
                    f"family.coordinates[{i % len(exprs)}]",
                )
        forms = tuple(BinaryForm.from_unipoly(p, d_curve) for p in out)
        return CurveJet(s, forms[: len(exprs)], forms[len(exprs) :], d_curve)

    return CurveFamily(str(fam.get("name", "config-family")), jet)


def build_p(cfg: RunConfig, X: Hypersurface) -> MultiPoly:
    expr = _expression(cfg.p_text, "p")
    try:
        return expr_to_multipoly(expr, X.nvars, {"zeta": cat.zeta_value(1)})
    except EvaluationError as exc:
        raise ConfigError(str(exc), "p") from None


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
        # NaN if any check is, as the report's own maxima
        theorem = np.max([c.residue_theorem_check for c in r.per_pair.values()], initial=0.0)
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


def period_json_payload(reports: Sequence[PeriodReport], tolerances: dict) -> dict:
    vanish_rel = tolerances["vanish_rel"]
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
                "vanishes": vanishes([r.total], [r.vanish_scale], vanish_rel),
                "max_backend_disagreement": r.max_backend_disagreement,
                "per_pair": pairs,
            }
        )
    return {"samples": out, "tolerances": tolerances}


def _tolerance(raw: Any, name: str) -> float:
    """A declared tolerance: a positive real number (no result meets 0)."""
    value = _parse_number(raw, f"tolerances.{name}")
    if value.imag or value.real <= 0:
        raise ConfigError(
            f"a tolerance must be a positive real number, got {raw!r}", f"tolerances.{name}"
        )
    return value.real


def period_breach(r: PeriodReport, tolerances: dict) -> str | None:
    """The declared tolerances one period sample breaks, as one line.

    A non-finite total, residue or backend disagreement breaks them all.
    Backend agreement bounds the sample's largest backend disagreement.  The
    residue theorem bounds each live pair's check relative to the largest
    |residue| summed into it; a check over no nonzero residue holds.
    """
    backend, theorem = tolerances["backend_agreement"], tolerances["residue_theorem"]
    found = []
    pairs = r.per_pair.values()
    # the total sums every site residue, and the maximum keeps a NaN
    if not (cmath.isfinite(r.total) and cmath.isfinite(r.max_backend_disagreement)):
        found.append("non-finite total, residue or backend disagreement")
    worst = max(pairs, key=lambda c: c.max_backend_disagreement, default=None)
    if worst is not None and worst.max_backend_disagreement >= backend:
        found.append(
            f"backend_agreement {backend:g} in pair ({worst.j0},{worst.j1}): "
            f"disagreement {worst.max_backend_disagreement:.3g}"
        )
    for c in pairs:
        scale = c.residue_theorem_scale
        if not c.numerator_zero and scale > 0 and c.residue_theorem_check >= theorem * scale:
            found.append(
                f"residue_theorem {theorem:g} in pair ({c.j0},{c.j1}): "
                f"check {c.residue_theorem_check:.3g} of residue scale {scale:.3g}"
            )
    return f"tolerance breached at s = {r.s:.6g}: " + "; ".join(found) if found else None


def scan_breaches(table: ScanTable, tolerances: dict) -> list[str]:
    """One line per sample with a non-finite total or backend disagreement,
    or whose largest one breaks the declared backend agreement."""
    backend = tolerances["backend_agreement"]
    out = []
    for k, (s, (worst, pair, monomial)) in enumerate(zip(table.s_list, table.worst_backend)):
        found = []
        if not all(map(cmath.isfinite, [worst, *(r.totals[k] for r in table.rows)])):
            found.append("non-finite total or backend disagreement")
        if pair is not None and worst >= backend:
            found.append(
                f"backend_agreement {backend:g} in pair ({pair[0]},{pair[1]}), "
                f"monomial {monomial}: disagreement {worst:.3g}"
            )
        if found:
            out.append(f"tolerance breached at s = {s:.6g}: " + "; ".join(found))
    return out


def scan_csv_lines(table: ScanTable, vanish_rel: float = VANISH_REL_TOL) -> list[str]:
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
        cells.append(
            "VANISHES" if vanishes(row.totals, row.vanish_scales, vanish_rel) else "NONZERO"
        )
        lines.append(",".join(cells))
    return lines


def scan_json_payload(table: ScanTable, vanish_rel: float) -> dict:
    return {
        "family": table.family_name,
        "degree": table.degree,
        "samples": [[s.real, s.imag] for s in table.s_list],
        "tolerances": {"vanish_rel": vanish_rel},
        "rows": [
            {
                "monomial": r.monomial,
                "exponents": list(r.exponents),
                "totals": [[t.real, t.imag] for t in r.totals],
                "vanish_scales": r.vanish_scales,
                "max_backend_disagreements": r.max_backend_disagreements,
                "vanishes": vanishes(r.totals, r.vanish_scales, vanish_rel),
            }
            for r in table.rows
        ],
    }


def _output_paths(args, cfg: RunConfig) -> dict[str, tuple[str, str]]:
    """Each output ("csv", "json") to write, as the field that names its path
    (a flag before the config) and the path.  A path that is a directory
    is refused here, before any period is computed."""
    out = {}
    for key in ("csv", "json"):
        flag = getattr(args, f"out_{key}")
        field, path = (f"--out-{key}", flag) if flag else (f"output.{key}", cfg.output.get(key))
        if path:
            if Path(path).is_dir():
                raise ConfigError(f"output path {path} is a directory", field)
            out[key] = field, path
    return out


def _make_dir(path: Path, field: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror or exc}", field) from None


def _write(target: tuple[str, str | Path] | None, text: str) -> None:
    """Write text to the path of ``target`` = (field, path), if given; an
    OSError is a ConfigError naming the field."""
    if target:
        field, path = target
        _make_dir(Path(path).parent, field)
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}", field) from None


# ---------------------------------------------------------------------------
# commands


def _parse_s(text: str) -> complex:
    re_s, comma, im_s = text.partition(",")
    s = complex(float(re_s), float(im_s) if comma else 0.0)
    if not cmath.isfinite(s):
        raise ValueError(f"{text!r} is not finite")
    return s


def cmd_period(args) -> int:
    cfg = load_config(args.config)
    if args.s:
        # before the family is built: it reads its t-degree at the samples
        cfg = replace(cfg, samples=[_converted(_parse_s, args.s, "--s", "RE,IM")])
    outputs = _output_paths(args, cfg)
    X = build_hypersurface(cfg)
    fam = build_family(cfg)
    P = build_p(cfg, X)
    reports = [period_at(X, P, fam, s) for s in cfg.samples]
    csv_text = "\n".join(period_csv_lines(reports)) + "\n"
    json_text = _json_text(period_json_payload(reports, cfg.tolerances))
    _write(outputs.get("csv"), csv_text)
    _write(outputs.get("json"), json_text)
    sys.stdout.write(csv_text)
    breaches = [line for r in reports if (line := period_breach(r, cfg.tolerances))]
    return _report_breaches(breaches)


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    outputs = _output_paths(args, cfg)
    X = build_hypersurface(cfg)
    fam = build_family(cfg)
    table = monomial_scan(X, fam, cfg.samples, args.degree)
    vanish_rel = cfg.tolerances["vanish_rel"]
    csv_text = "\n".join(scan_csv_lines(table, vanish_rel)) + "\n"
    json_text = _json_text(scan_json_payload(table, vanish_rel))
    _write(outputs.get("csv"), csv_text)
    _write(outputs.get("json"), json_text)
    nonzero = sum(1 for r in table.rows if not vanishes(r.totals, r.vanish_scales, vanish_rel))
    sys.stdout.write(
        f"{len(table.rows)} monomials x {len(table.s_list)} samples; "
        f"{nonzero} non-vanishing rows\n"
    )
    return _report_breaches(scan_breaches(table, cfg.tolerances))


def _report_breaches(lines: list[str]) -> int:
    for line in lines:
        sys.stderr.write(line + "\n")
    return 3 if lines else 0


def cmd_catalog(_args) -> int:
    entries = cat.catalog_entries()
    for group in sorted(entries):
        sys.stdout.write(f"[{group}]\n")
        for ident in entries[group]:
            sys.stdout.write(f"  {ident}\n")
    return 0


def cmd_verify(args) -> int:
    from . import verification

    report_dir = Path(args.report_dir)
    # before the checks, so that a directory that cannot be made costs none
    _make_dir(report_dir, "--report-dir")
    if args.refreeze:
        verification.refreeze_golden()
    results = verification.run_all(name_filter=args.filter)
    lines = []
    ok = bool(results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        line = f"{status}  {r.name}: {r.summary}"
        lines.append(line)
        sys.stdout.write(line + "\n")
    payload = {"results": [asdict(r) for r in results], "all_passed": ok}
    _write(("--report-dir", report_dir / "verify.json"), _json_text(payload))
    _write(("--report-dir", report_dir / "verify.txt"), "\n".join(lines) + "\n")
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
        help="rewrite the golden regression fixture before any check runs (maintainer use)",
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
        # a non-finite value is reported on its own line, not by numpy warnings
        with np.errstate(all="ignore"):
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
