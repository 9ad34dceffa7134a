import json
from pathlib import Path

import pytest

from quintic_periods.cli import (
    RunConfig,
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


class TestConfig:
    def test_round_trip_is_fixed_point(self, tmp_path):
        path = write_config(tmp_path, tolerances={"vanish": 1e-9})
        cfg = load_config(path)
        text1 = cfg.serialize()
        cfg2 = RunConfig.from_dict(json.loads(text1))
        assert cfg2.serialize() == text1

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

    def test_fd_jets_close_to_analytic(self, tmp_path, fermat, p_x1cubed_x2sq):
        path = write_config(
            tmp_path,
            family={
                "coordinates": ["t", "-zeta*t", "1", "s", "root5(-1-s^5)"],
                "zeta_index": 1,
                "jets": "fd",
            },
        )
        fam = build_family(load_config(path))
        from quintic_periods.catalog import paper_line_slice

        ref = paper_line_slice(1, "corrected")
        a = period_at(fermat, p_x1cubed_x2sq, fam, 0.1 + 0j).total
        b = period_at(fermat, p_x1cubed_x2sq, ref, 0.1 + 0j).total
        assert abs(a - b) < 1e-7 * abs(b)


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

    def test_scan_wrong_degree_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["scan", "--config", str(cfg), "--degree", "4"]) == 1

    def test_catalog_lists_everything(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert out.count("fermat-line/") == 50
        assert "shioda-quintic" in out
        assert "mobius-null" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["period", "--config", str(missing)]) == 2

    def test_verify_filter_contraction(self, tmp_path, capsys):
        assert main(["verify", "--filter", "contraction", "--report-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS  contraction" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["results"]) == 1

    def test_verify_corrupted_golden_fixture(self, tmp_path, capsys, monkeypatch):
        import quintic_periods.verification as ver

        bad = tmp_path / "line_slice_regression.json"
        bad.write_text("{ corrupted")
        monkeypatch.setattr(ver, "GOLDEN_PATH", bad)
        assert main(["verify", "--filter", "regression", "--report-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "line_slice_regression.json" in out
