import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quintic_periods.cli import (
    build_family,
    build_hypersurface,
    load_config,
    main,
)
from quintic_periods.errors import ConfigError
from quintic_periods.period import period_at


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "hypersurface": "fermat/m=3,d=5",
        "family": "fermat-line/pair=0,1/zeta=1/corrected",
        "p": "x1^3*x2^2",
        "samples": [[0.1, 0.0], [0.0, 0.12], [0.15, 0.05]],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# the coordinates of the paper's line as an expression family
LINE = ["t", "-zeta*t", "1", "s", "root5(-1-s^5)"]
# write_config's samples as a breach line prints them
SAMPLES_AS_PRINTED = ("0.1+0j", "0+0.12j", "0.15+0.05j")
# the line with x3 = s t^2: degree 1 at s = 0, degree 2 elsewhere
RISING = {"coordinates": ["t", "-zeta*t", "1", "s*t^2", "root5(-1-s^5)"]}
# JSON as Python writes and reads it: NaN and Infinity
NAN, INF = float("nan"), float("inf")
FIFTH = [5, 0, 0, 0, 0]
BAD_EXPONENTS = ["a", 0, 0, 0, 0]
FRACTIONAL = [5.7, 0, 0, 0, 0]
NEGATIVE = [-1, 6, 0, 0, 0]
NON_HOMOGENEOUS = [
    {"coeff": 1, "exponents": [5, 0, 0, 0, 0]},
    {"coeff": 1, "exponents": [0, 4, 0, 0, 0]},
]


class TestConfig:
    def test_rational_and_pair_numbers(self, tmp_path):
        path = write_config(tmp_path, samples=["1/10", [0.0, 0.12]])
        cfg = load_config(path)
        assert cfg.samples[0] == 0.1 + 0j
        assert cfg.samples[1] == 0.12j

    def test_segment_descriptor(self, tmp_path):
        path = write_config(
            tmp_path, samples={"kind": "segment", "start": 0.0, "stop": [0.2, 0.0], "count": 4}
        )
        cfg = load_config(path)
        assert len(cfg.samples) == 4
        assert abs(cfg.samples[-1] - 0.2) < 1e-15
        assert all(abs(s) > 0 for s in cfg.samples)

    def test_declared_tolerances_parse_at_load(self, tmp_path):
        path = write_config(tmp_path, tolerances={"vanish_rel": "x"})
        with pytest.raises(ConfigError, match=r"\(field: tolerances\.vanish_rel\)"):
            load_config(path)

    def test_declared_tolerances_echo_as_numbers(self, tmp_path):
        # a rational string and a [re, im] pair are read once, as numbers;
        # the config holds them with the default of the undeclared one,
        # and the period JSON echoes those numbers
        out = {"json": str(tmp_path / "p.json")}
        tolerances = {"backend_agreement": "1/100000000", "residue_theorem": [1e-8, 0]}
        path = write_config(tmp_path, tolerances=tolerances, output=out)
        resolved = {"backend_agreement": 1e-8, "residue_theorem": 1e-8, "vanish_rel": 1e-9}
        assert load_config(path).tolerances == resolved
        assert main(["period", "--config", str(path)]) == 0
        assert json.loads((tmp_path / "p.json").read_text())["tolerances"] == resolved

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": "x"}))
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("not json {")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_explicit_hypersurface_terms(self, tmp_path):
        terms = [{"coeff": 1, "exponents": [5, 0, 0, 0, 0]}] + [
            {"coeff": [1, 0], "exponents": [0, 0, 0, 0, 0][:i] + [5] + [0] * (4 - i)}
            for i in range(1, 5)
        ]
        path = write_config(tmp_path, hypersurface={"nvars": 5, "terms": terms})
        X = build_hypersurface(load_config(path))
        assert X.degree == 5 and len(X.F.terms) == 5


class TestExpressionFamilies:
    def test_expression_family_matches_catalog(self, tmp_path, fermat, p_x1cubed_x2sq):
        path = write_config(
            tmp_path,
            family={
                "coordinates": ["t", "-zeta*t", "1", "s", "root5(-1-s^5)"],
                "zeta_index": 1,
                "jets": "analytic",
            },
        )
        cfg = load_config(path)
        fam = build_family(cfg)
        from quintic_periods.catalog import paper_line_slice

        ref = paper_line_slice(1, "corrected")
        for s in (0.1 + 0j, 0.12j):
            a = period_at(fermat, p_x1cubed_x2sq, fam, s).total
            b = period_at(fermat, p_x1cubed_x2sq, ref, s).total
            assert abs(a - b) < 1e-9 * abs(b)

    def test_a_jet_is_one_evaluation(self, tmp_path, monkeypatch):
        # the benchmark's tracer times the parser layer through this name
        import quintic_periods.cli as cli

        fam = build_family(load_config(write_config(tmp_path, family={"coordinates": LINE})))
        calls = []
        evaluate = cli.eval_on_path

        def counted(trees, *args, **kwargs):
            calls.append(len(trees))
            return evaluate(trees, *args, **kwargs)

        monkeypatch.setattr(cli, "eval_on_path", counted)
        fam.jet_at(0.1 + 0.05j)
        # the five coordinates and their five s-derivatives
        assert calls == [10]

    def test_s_override_reads_the_degree_at_its_sample(self, tmp_path, capsys):
        # the family's degree is read at the samples, so --s replaces them
        # before the family is built: the run is that of the config with
        # the sample written in
        runs = []
        for samples, extra in (([[0, 0]], ["--s", "0.1,0"]), ([[0.1, 0]], [])):
            cfg = write_config(tmp_path, family=RISING, samples=samples)
            code = main(["period", "--config", str(cfg), *extra])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]

    def test_finite_difference_jets_are_config_errors(self, tmp_path, capsys):
        # jets are the coordinates' symbolic s-derivatives: there is no
        # finite-difference mode and no step
        for extra, field in (
            ({"jets": "fd"}, "family.jets"),
            ({"fd_step": 1e-5}, "family.fd_step"),
        ):
            cfg = write_config(tmp_path, family={"coordinates": LINE, **extra})
            for argv in (["period"], ["scan", "--degree", "5"]):
                assert main([*argv, "--config", str(cfg)]) == 2
                assert capsys.readouterr().err.endswith(f"(field: {field})\n")

    def test_degree_above_the_samples_is_a_config_error(self, tmp_path):
        fam = build_family(load_config(write_config(tmp_path, family=RISING, samples=[[0, 0]])))
        with pytest.raises(ConfigError) as err:
            fam.jet_at(0.1)
        assert err.value.field == "family.coordinates[3]"


class TestDeclaredTolerances:
    """period and scan write their outputs, then exit 3 with one stderr line
    per sample that breaks a declared tolerance."""

    SAMPLES = ("0.1+0j", "0+0.12j", "0.15+0.05j")
    PREFIX = "tolerance breached at s = "

    def test_readme_config_holds(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["period", "--config", str(cfg)]) == 0
        assert main(["scan", "--config", str(cfg), "--degree", "5"]) == 0
        assert capsys.readouterr().err == ""

    def test_backend_agreement_breach(self, tmp_path, capsys):
        out = {"csv": str(tmp_path / "p.csv"), "json": str(tmp_path / "p.json")}
        cfg = write_config(tmp_path, tolerances={"backend_agreement": 1e-30}, output=out)
        assert main(["period", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, s in zip(err, self.SAMPLES):
            assert line.startswith(f"{self.PREFIX}{s}: backend_agreement 1e-30 in pair (")
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 4
        payload = json.loads((tmp_path / "p.json").read_text())
        assert payload["tolerances"]["backend_agreement"] == 1e-30
        assert main(["scan", "--config", str(cfg), "--degree", "5"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, s in zip(err, self.SAMPLES):
            assert line.startswith(f"{self.PREFIX}{s}: backend_agreement 1e-30 in pair (")
            assert ", monomial x" in line

    def test_residue_theorem_breach(self, tmp_path, capsys):
        # on a catalog line every pair's check is exactly 0
        cfg = write_config(tmp_path, tolerances={"residue_theorem": 1e-30})
        assert main(["period", "--config", str(cfg)]) == 0
        # a line off the quintic has rounding-sized checks
        family = {"coordinates": ["t", "1+s*t", "2-t", "s+3*t", "1+2*t"]}
        cfg = write_config(tmp_path, family=family, tolerances={"residue_theorem": 1e-30})
        assert main(["period", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, s in zip(err, self.SAMPLES):
            assert line.startswith(f"{self.PREFIX}{s}: residue_theorem 1e-30 in pair (")
            assert "backend_agreement" not in line
        cfg = write_config(tmp_path, family=family)
        assert main(["period", "--config", str(cfg)]) == 0


    def test_vanish_rel_sets_the_verdict(self, tmp_path):
        # on the corrected slice six pairs contribute equally, so each total
        # is six times its vanish scale: NONZERO at the default vanish_rel,
        # VANISHES at 10, in the period JSON and the scan CSV and JSON
        out = {"csv": str(tmp_path / "out.csv"), "json": str(tmp_path / "out.json")}
        for tolerances, rel, verdict in (({}, 1e-9, False), ({"vanish_rel": 10}, 10, True)):
            cfg = write_config(tmp_path, tolerances=tolerances, output=out)
            assert main(["period", "--config", str(cfg)]) == 0
            payload = json.loads((tmp_path / "out.json").read_text())
            assert [s["vanishes"] for s in payload["samples"]] == [verdict] * 3
            assert main(["scan", "--config", str(cfg), "--degree", "5"]) == 0
            payload = json.loads((tmp_path / "out.json").read_text())
            assert payload["tolerances"] == {"vanish_rel": rel}
            (row,) = [r for r in payload["rows"] if r["monomial"] == "x1^3*x2^2"]
            assert row["vanishes"] is verdict
            (line,) = [
                line
                for line in (tmp_path / "out.csv").read_text().splitlines()
                if line.startswith("x1^3*x2^2,")
            ]
            assert line.endswith(",VANISHES" if verdict else ",NONZERO")


class TestCommands:
    def test_period_command_writes_deterministic_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output={"csv": str(tmp_path / "a.csv")})
        assert main(["period", "--config", str(cfg)]) == 0
        first = (tmp_path / "a.csv").read_bytes()
        assert main(["period", "--config", str(cfg)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == first
        out = capsys.readouterr().out
        assert "total_re" in out

    def test_period_json_mirrors_diagnostics(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            samples=[[0.1, 0.0]],
            output={"json": str(tmp_path / "p.json")},
        )
        assert main(["period", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "p.json").read_text())
        assert payload["tolerances"]["backend_agreement"] == 1e-8
        (sample,) = payload["samples"]
        assert sample["vanishes"] is False
        live = [p for p in sample["per_pair"].values() if not p["numerator_zero"]]
        assert len(live) == 6
        for pair in live:
            assert pair["residue_theorem_check"] < 1e-8
            for site in pair["sites"]:
                assert site["backend_disagreement"] < 1e-8

    def test_period_single_sample_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["period", "--config", str(cfg), "--s", "0.1,0.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + one row

    def test_scan_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples=[[0.1, 0.0], [0.0, 0.12]])
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code = main(
            [
                "scan",
                "--config",
                str(cfg),
                "--degree",
                "5",
                "--out-csv",
                str(csv_path),
                "--out-json",
                str(json_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 127  # header + 126 rows
        assert lines[0].startswith("monomial,abs_0,phase_0")
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 126
        for row in payload["rows"]:
            assert len(row["max_backend_disagreements"]) == 2
            assert max(row["max_backend_disagreements"]) < 1e-8
        # byte-stable rerun
        first = csv_path.read_bytes()
        assert main(["scan", "--config", str(cfg), "--degree", "5", "--out-csv", str(csv_path)]) == 0
        assert csv_path.read_bytes() == first

    def test_nonfinite_values_exit_3_naming_the_sample(self, tmp_path, capsys):
        # 1e80^4 overflows: the sample's residues and total are NaN
        family = {"coordinates": ["1e80*t"] + LINE[1:], "zeta_index": 1}
        cfg = write_config(tmp_path, family=family, samples=[[0.1, 0.0]])
        for argv in (["period"], ["scan", "--degree", "5"]):
            with np.errstate(all="ignore"):
                assert main([*argv, "--config", str(cfg)]) == 3
            err = capsys.readouterr().err
            assert "at s = 0.1+0j" in err and "non-finite" in err

    def test_nonfinite_maxima_read_nan(self, tmp_path, capsys):
        # pairs (0,2)-(0,4) have NaN residues and backend disagreements on
        # this config, while pairs (1,2)-(1,4) stay finite: every maximum
        # over them is NaN, in the period CSV as in the scan; the JSON
        # writes a NaN as null
        family = {"coordinates": ["1e80*t"] + LINE[1:], "zeta_index": 1}
        cfg = write_config(tmp_path, family=family)
        csv, js = tmp_path / "period.csv", tmp_path / "period.json"
        argv = ["period", "--config", str(cfg), "--out-csv", str(csv), "--out-json", str(js)]
        assert main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"tolerance breached at s = {s}: non-finite total, residue or backend disagreement"
            for s in SAMPLES_AS_PRINTED
        ]
        header, *rows = csv.read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert cells["max_backend_disagreement"] == "nan"
            assert cells["max_residue_theorem_check"] == "nan"
        for sample in json.loads(js.read_text())["samples"]:
            pairs = sample["per_pair"].values()
            sites = [site["backend_disagreement"] for p in pairs for site in p["sites"]]
            assert None in sites and any(d is not None for d in sites)
            assert sample["max_backend_disagreement"] is None
            assert sample["vanish_scale"] is None
        scan_json = tmp_path / "scan.json"
        argv = ["scan", "--config", str(cfg), "--degree", "5", "--out-json", str(scan_json)]
        assert main(argv) == 3
        rows = json.loads(scan_json.read_text())["rows"]
        (row,) = [r for r in rows if r["monomial"] == "x1^3*x2^2"]
        assert row["max_backend_disagreements"] == [None] * 3
        assert row["vanish_scales"] == [None] * 3

    def test_json_is_standard_on_nonfinite_values(self, tmp_path, capsys):
        # RFC 8259 has no NaN or Infinity: both files parse strictly, with
        # the keys of a finite run and null where it has a number
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        def nulls(value):
            if isinstance(value, (dict, list)):
                return sum(map(nulls, value.values() if isinstance(value, dict) else value))
            return value is None

        finite = tmp_path / "finite.json"
        finite.write_text(write_config(tmp_path).read_text())
        family = {"coordinates": ["1e80*t"] + LINE[1:], "zeta_index": 1}
        nonfinite = write_config(tmp_path, family=family)
        for argv, records in ((["period"], "samples"), (["scan", "--degree", "5"], "rows")):
            written = []
            for cfg, code in ((nonfinite, 3), (finite, 0)):
                js = tmp_path / f"{argv[0]}-{code}.json"
                assert main([*argv, "--config", str(cfg), "--out-json", str(js)]) == code
                written.append(json.loads(js.read_text(), parse_constant=refuse))
            bad, good = written
            assert sorted(bad) == sorted(good)
            assert [sorted(r) for r in bad[records]] == [sorted(r) for r in good[records]]
            assert nulls(bad) > nulls(good)

    def test_stderr_holds_only_the_breach_lines(self, tmp_path):
        # in a process of its own, so numpy's warnings reach its stderr
        family = {"coordinates": ["1e80*t"] + LINE[1:], "zeta_index": 1}
        cfg = write_config(tmp_path, family=family)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv, found in (
            (["period"], "non-finite total, residue or backend disagreement"),
            (["scan", "--degree", "5"], "non-finite total or backend disagreement"),
        ):
            run = subprocess.run(
                [sys.executable, "-m", "quintic_periods.cli", *argv, "--config", str(cfg)],
                capture_output=True, text=True, env=env,
            )
            assert run.returncode == 3
            assert run.stderr.splitlines() == [
                f"tolerance breached at s = {s}: {found}" for s in SAMPLES_AS_PRINTED
            ]

    def test_scan_wrong_degree_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["scan", "--config", str(cfg), "--degree", "4"]) == 1

    @pytest.mark.parametrize(
        "overrides, degree, line",
        [
            (
                {"hypersurface": "fermat/m=2,d=4", "p": "x1^3*x2"},
                "4",
                "error: period assembly is implemented for 5 coordinates, got 4",
            ),
            (
                {"family": {"coordinates": LINE[:4]}},
                "5",
                "error: jet does not match the hypersurface dimensions",
            ),
        ],
        ids=["four-coordinate-hypersurface", "four-coordinate-family"],
    )
    def test_scan_rejects_a_shape_as_period_does(self, tmp_path, capsys, overrides, degree, line):
        cfg = str(write_config(tmp_path, **overrides))
        for argv in (["period", "--config", cfg], ["scan", "--config", cfg, "--degree", degree]):
            assert main(argv) == 1
            assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"family": "mobius-null/zeta=7/seed=0"},
                "zeta index must lie in 0..4, got 7 in 'mobius-null/zeta=7/seed=0' (field: family)",
            ),
            (
                {"hypersurface": "fermat/m=0,d=5"},
                "need m >= 1 and d >= 2, got (m, d) = (0, 5) in 'fermat/m=0,d=5' "
                "(field: hypersurface)",
            ),
        ],
        ids=["null-family-zeta", "fermat-m-zero"],
    )
    def test_catalog_identifier_errors_name_the_id_and_field(
        self, tmp_path, capsys, overrides, message
    ):
        cfg = str(write_config(tmp_path, **overrides))
        for argv in (["period", "--config", cfg], ["scan", "--config", cfg, "--degree", "5"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_catalog_lists_everything(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.count("fermat-line/") == 50
        assert "shioda-quintic" in out
        assert "mobius-null" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["period", "--config", str(missing)]) == 2

    @pytest.mark.parametrize(
        "overrides, argv, field",
        [
            ({}, ["--s", "abc"], "--s"),
            ({}, ["--s", "0.1,x"], "--s"),
            ({"family": {"coordinates": LINE, "zeta_index": "one"}}, [], "family.zeta_index"),
            (
                {"family": {"coordinates": LINE, "jets": "fd", "fd_step": "x"}},
                [],
                "family.fd_step",
            ),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"coeff": 1, "exponents": BAD_EXPONENTS}]}},
                [],
                "hypersurface.terms[0].exponents",
            ),
            ({"p": "x1^^2"}, [], "p"),
            ({"p": "root5(x0)"}, [], "p"),
            ({"p": "s*x0^4"}, [], "p"),
            ({"p": "x7^5"}, [], "p"),
            (
                {"family": {"coordinates": LINE[:4] + ["root5(-1-s^5"]}},
                [],
                "family.coordinates[4]",
            ),
            ({"family": {"coordinates": LINE, "zeta_index": 1.9}}, [], "family.zeta_index"),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"coeff": 1, "exponents": FRACTIONAL}]}},
                [],
                "hypersurface.terms[0].exponents",
            ),
            ({}, ["--s", "0.1,0.2,0.3"], "--s"),
            ({"tolerance": 1e-9}, [], "tolerance"),
            ({"family": {"coordinates": LINE, "zeta": 2}}, [], "family.zeta"),
            ({"tolerances": {"backend_agrement": 1e-30}}, [], "tolerances.backend_agrement"),
            ({"output": {"cvs": "period.csv"}}, [], "output.cvs"),
            (
                {"family": {"coordinates": LINE[:4] + ["root5(t-1-s^5)"]}},
                [],
                "family.coordinates[4]",
            ),
            (
                {"family": {"coordinates": LINE[:4] + ["root5(-1-s^5)/t"]}},
                [],
                "family.coordinates[4]",
            ),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"coeff": 1, "exponents": NEGATIVE}]}},
                [],
                "hypersurface.terms[0].exponents",
            ),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"coeff": 1, "exponents": [5, 0, 0]}]}},
                [],
                "hypersurface.terms[0].exponents",
            ),
            (
                {"hypersurface": {"nvars": 5, "terms": NON_HOMOGENEOUS}},
                [],
                "hypersurface",
            ),
            (
                {"hypersurface": {"nvars": True, "terms": [{"coeff": 1, "exponents": [5]}]}},
                [],
                "hypersurface",
            ),
            (
                {"family": {"coordinates": LINE, "jets": "fd", "fd_step": 0}},
                [],
                "family.fd_step",
            ),
            (
                {"samples": {"kind": "segment", "stop": 0.2, "count": True}},
                [],
                "samples.count",
            ),
            ({"family": {"coordinates": LINE, "zeta_index": True}}, [], "family.zeta_index"),
            ({"family": {"coordinates": LINE, "zeta_index": 7}}, [], "family.zeta_index"),
            (
                {"family": {"coordinates": LINE, "jets": "fd", "fd_step": True}},
                [],
                "family.fd_step",
            ),
            ({"tolerances": {"residue_theorem": NAN}}, [], "tolerances.residue_theorem"),
            ({"tolerances": {"residue_theorem": INF}}, [], "tolerances.residue_theorem"),
            ({"tolerances": {"backend_agreement": [1e-8, 5]}}, [], "tolerances.backend_agreement"),
            ({"tolerances": {"vanish_rel": -1e-9}}, [], "tolerances.vanish_rel"),
            ({"tolerances": {"backend_agreement": 0}}, [], "tolerances.backend_agreement"),
            ({"tolerances": {"residue_theorem": 0}}, [], "tolerances.residue_theorem"),
            ({"tolerances": {"vanish_rel": 0}}, [], "tolerances.vanish_rel"),
            ({"samples": [[0.1, 0.0], [NAN, 0.0]]}, [], "samples[1]"),
            ({"samples": {"kind": "segment", "stop": INF, "count": 2}}, [], "samples.stop"),
            ({}, ["--s", "nan"], "--s"),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"coeff": NAN, "exponents": FIFTH}]}},
                [],
                "hypersurface.terms[0]",
            ),
            ({"family": "fermat-line/pair=1,1/zeta=1/corrected"}, [], "family"),
            ({"family": "fermat-line/pair=0,7/zeta=1/corrected"}, [], "family"),
            ({"family": "fermat-line/pair=3,1/zeta=1/corrected"}, [], "family"),
            (
                {"samples": {"kind": "segment", "start": -1e308, "stop": 1e308, "count": 2}},
                [],
                "samples",
            ),
            (
                {
                    "hypersurface": {
                        "nvars": 5,
                        "terms": [{"coeff": 1e308, "exponents": FIFTH}] * 2,
                    }
                },
                [],
                "hypersurface.terms[1]",
            ),
            ({"output": {"csv": 5}}, [], "output.csv"),
            ({"hypersurface": 5}, [], "hypersurface"),
            ({"family": None}, [], "family"),
            ({"family": 5}, [], "family"),
            ({"p": 5}, [], "p"),
            ({"tolerances": []}, [], "tolerances"),
            ({"output": []}, [], "output"),
            ({"samples": None}, [], "samples"),
            ({"samples": []}, [], "samples"),
            ({"samples": {"kind": "line"}}, [], "samples.kind"),
            ({"samples": [[True, 0]]}, [], "samples[0]"),
            (
                {"hypersurface": {"nvars": 5, "terms": [{"exponents": FIFTH}]}},
                [],
                "hypersurface.terms[0]",
            ),
            ({"family": {"coordinates": []}}, [], "family"),
            ({"family": {"coordinates": ["0"] * 5}}, [], "family.coordinates"),
        ],
        ids=[
            "s-word",
            "s-imaginary-part",
            "zeta-index",
            "fd-step",
            "exponents",
            "p-syntax",
            "p-root5",
            "p-free-s",
            "p-unknown-variable",
            "coordinate-syntax",
            "zeta-index-fraction",
            "exponents-fraction",
            "s-three-parts",
            "unknown-top-level-key",
            "unknown-family-key",
            "unknown-tolerance",
            "unknown-output-key",
            "coordinate-root5-of-t",
            "coordinate-division-by-t",
            "exponents-negative",
            "exponents-wrong-length",
            "non-homogeneous",
            "nvars-bool",
            "fd-step-zero",
            "count-bool",
            "zeta-index-bool",
            "zeta-index-out-of-range",
            "fd-step-bool",
            "tolerance-nan",
            "tolerance-infinite",
            "tolerance-complex",
            "tolerance-negative",
            "backend-agreement-zero",
            "residue-theorem-zero",
            "vanish-rel-zero",
            "sample-nan",
            "segment-stop-infinite",
            "s-nan",
            "coeff-nan",
            "line-pair-repeated",
            "line-pair-out-of-range",
            "line-pair-reversed",
            "segment-overflow",
            "coeff-sum-overflow",
            "output-path-not-text",
            "hypersurface-not-text-or-object",
            "family-null",
            "family-number",
            "p-not-text",
            "tolerances-not-object",
            "output-not-object",
            "samples-null",
            "samples-empty",
            "samples-unknown-kind",
            "sample-bool",
            "term-without-coeff",
            "coordinates-empty",
            "coordinates-all-zero",
        ],
    )
    def test_malformed_input_exits_2_naming_its_field(
        self, tmp_path, capsys, overrides, argv, field
    ):
        path = write_config(tmp_path, **overrides)
        assert main(["period", "--config", str(path), *argv]) == 2
        assert f"(field: {field})" in capsys.readouterr().err

    def test_config_root_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["period", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "configuration error: config root must be an object\n"

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2_naming_its_path(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"p": "x1\xff"}')
        assert main(["period", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config file {path}: ")

    @pytest.mark.parametrize(
        "command, field",
        [(["scan", "--degree", "5"], "output.json"), (["period"], "--out-csv")],
        ids=["scan-config", "period-flag"],
    )
    def test_output_directory_exits_2_before_any_period(
        self, tmp_path, capsys, monkeypatch, command, field
    ):
        import quintic_periods.cli as cli

        def no_period(*args):
            raise AssertionError("a period ran before the output path was checked")

        monkeypatch.setattr(cli, "period_at", no_period)
        monkeypatch.setattr(cli, "monomial_scan", no_period)
        out = tmp_path / "out"
        out.mkdir()
        if field.startswith("--"):
            path, argv = write_config(tmp_path), [*command, field, str(out)]
        else:
            path, argv = write_config(tmp_path, output={field[len("output.") :]: str(out)}), command
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output path") and f"(field: {field})" in err

    def test_output_that_cannot_be_written_exits_2_naming_its_field(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, output={"csv": str(tmp_path / "file" / "period.csv")})
        assert main(["period", "--config", str(path)]) == 2
        assert capsys.readouterr().err.endswith("(field: output.csv)\n")

    def test_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        import quintic_periods.cli as cli
        from quintic_periods.errors import NonConvergenceError

        def diverge(*args):
            raise NonConvergenceError("no root after 100 iterations")

        monkeypatch.setattr(cli, "period_at", diverge)
        assert main(["period", "--config", str(write_config(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert err == "numerical non-convergence: no root after 100 iterations\n"

    def test_verify_report_dir_that_cannot_be_made_exits_2_before_any_check(
        self, tmp_path, capsys, monkeypatch
    ):
        import quintic_periods.verification as ver

        def no_check(*args, **kwargs):
            raise AssertionError("a check ran before the report directory was made")

        monkeypatch.setattr(ver, "run_all", no_check)
        (tmp_path / "file").write_text("")
        report_dir = tmp_path / "file" / "sub"
        assert main(["verify", "--report-dir", str(report_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot create directory")
        assert err.endswith("(field: --report-dir)\n")

    def test_verify_filter_contraction(self, tmp_path, capsys):
        assert main(["verify", "--filter", "contraction", "--report-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS  contraction" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["results"]) == 1

    def test_verify_filter_without_a_match_fails(self, tmp_path, capsys):
        assert main(["verify", "--filter", "nomatch", "--report-dir", str(tmp_path)]) == 1
        assert "no checks match filter 'nomatch'" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is False
        assert report["results"] == []

    def test_verify_refreeze_writes_the_regression_payload(self, tmp_path, capsys, monkeypatch):
        import quintic_periods.verification as ver

        golden = tmp_path / "goldens" / "line_slice_regression.json"
        monkeypatch.setattr(ver, "GOLDEN_PATH", golden)
        argv = ["verify", "--filter", "regression", "--refreeze", "--report-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "PASS  regression" in capsys.readouterr().out
        payload = json.loads(json.dumps(ver._regression_run()))
        assert json.loads(golden.read_text()) == payload

    def test_verify_refreeze_rewrites_the_golden_whatever_the_filter(self, tmp_path, monkeypatch):
        # the golden is rewritten once, before the checks, also when the
        # filter leaves the regression check out
        import quintic_periods.verification as ver

        golden = tmp_path / "line_slice_regression.json"
        monkeypatch.setattr(ver, "GOLDEN_PATH", golden)
        monkeypatch.setattr(ver, "_regression_run", lambda: {"frozen": [1.5, -2.0]})
        argv = ["verify", "--filter", "contraction", "--refreeze", "--report-dir", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads(golden.read_text()) == {"frozen": [1.5, -2.0]}

    def test_verify_corrupted_golden_fixture(self, tmp_path, capsys, monkeypatch):
        import quintic_periods.verification as ver

        bad = tmp_path / "line_slice_regression.json"
        bad.write_text("{ corrupted")
        monkeypatch.setattr(ver, "GOLDEN_PATH", bad)
        assert main(["verify", "--filter", "regression", "--report-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "line_slice_regression.json" in out
