"""Sweep machinery and CLI behavior: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from crpla import cli, hybrid
from crpla.errors import ConfigParseError, NarrowMarginWarning
from crpla.params import params_from_config
from crpla.sweep import (
    SweepSpec,
    apply_swept_value,
    load_sweep_spec,
    run_sweep,
    write_csv,
)

BASE_PARAMS = {
    "n": 10,
    "F": 100,
    "alpha": 0.1,
    "b_M": 600,
    "p_FA": 1e-7,
    "lambda_B_dB": 50,
    "lambda_T_over_lambda_B": 0.3,
    "h_min": 0.9,
    "h_max": 1.0,
}


@pytest.fixture(autouse=True)
def _quiet_margin_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NarrowMarginWarning)
        yield


def spec_dict(**overrides):
    spec = {
        "sweep": {"variable": "h_min", "values": [0.0, 0.5, 0.9]},
        "mechanisms": ["CH", "CD", "HYBRID"],
        "params": dict(BASE_PARAMS),
    }
    spec.update(overrides)
    return spec


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


class TestSweepSpec:
    def test_loads(self, tmp_path):
        spec = load_sweep_spec(write_json(tmp_path / "s.json", spec_dict()))
        assert spec.variable == "h_min"
        assert spec.values == (0.0, 0.5, 0.9)

    def test_rejects_unknown_variable(self, tmp_path):
        bad = spec_dict(sweep={"variable": "n", "values": [10]})
        with pytest.raises(ConfigParseError):
            load_sweep_spec(write_json(tmp_path / "s.json", bad))

    def test_rejects_empty_values(self, tmp_path):
        bad = spec_dict(sweep={"variable": "h_min", "values": []})
        with pytest.raises(ConfigParseError):
            load_sweep_spec(write_json(tmp_path / "s.json", bad))

    def test_rejects_unknown_mechanism(self, tmp_path):
        bad = spec_dict(mechanisms=["CH", "QKD"])
        with pytest.raises(ConfigParseError):
            load_sweep_spec(write_json(tmp_path / "s.json", bad))

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            load_sweep_spec(str(path))


class TestApplySweptValue:
    def test_lambda_db_preserves_ratio(self):
        params = params_from_config(BASE_PARAMS)
        moved = apply_swept_value(params, "lambda_B_dB", 20.0)
        assert moved.lambda_B == pytest.approx(100.0, rel=1e-12)
        assert moved.lambda_T / moved.lambda_B == pytest.approx(0.3, rel=1e-12)

    def test_lambda_ratio(self):
        params = params_from_config(BASE_PARAMS)
        moved = apply_swept_value(params, "lambda_ratio", 0.6)
        assert moved.lambda_T == pytest.approx(0.6 * params.lambda_B, rel=1e-15)

    def test_fractional_frames_rejected(self):
        params = params_from_config(BASE_PARAMS)
        with pytest.raises(ConfigParseError):
            apply_swept_value(params, "F", 10.5)

    def test_alpha_integrality_enforced(self):
        params = params_from_config(BASE_PARAMS)
        assert apply_swept_value(params, "alpha", 0.5).pilot_count == 5
        with pytest.raises(Exception):
            apply_swept_value(params, "alpha", 0.25)


class TestRunSweep:
    def test_single_value_matches_direct_evaluation(self):
        spec = SweepSpec(
            variable="h_min",
            values=(0.9,),
            mechanisms=("CH", "CD", "HYBRID"),
            params=params_from_config(BASE_PARAMS),
        )
        rows = run_sweep(spec)
        by_label = {label: report for _v, label, report in rows}
        params = params_from_config(BASE_PARAMS)
        assert by_label["CH"] == hybrid.evaluate(params, "CH").report
        assert by_label["CD"] == hybrid.evaluate(params, "CD").report
        assert by_label["HYBRID"] == hybrid.evaluate(params, "HYBRID").report

    def test_opt_rows_pin_swept_h_min(self):
        spec = SweepSpec(
            variable="h_min",
            values=(0.85,),
            mechanisms=("HYBRID_OPT",),
            params=params_from_config(BASE_PARAMS),
        )
        ((_value, label, report),) = run_sweep(spec)
        assert label == "HYBRID_OPT"
        assert report.h_min_used == 0.85

    def test_row_order_is_value_major(self):
        spec = SweepSpec(
            variable="lambda_ratio",
            values=(0.3, 0.6),
            mechanisms=("CH", "CD"),
            params=params_from_config(BASE_PARAMS),
        )
        rows = run_sweep(spec)
        assert [(v, label) for v, label, _ in rows] == [
            (0.3, "CH"),
            (0.3, "CD"),
            (0.6, "CH"),
            (0.6, "CD"),
        ]


class TestCsv:
    def test_header_and_formatting(self, tmp_path):
        spec = SweepSpec(
            variable="h_min",
            values=(0.9,),
            mechanisms=("CH",),
            params=params_from_config(BASE_PARAMS),
        )
        out = tmp_path / "out.csv"
        write_csv(run_sweep(spec), spec.variable, str(out))
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "swept_var,value,mechanism,alpha_used,h_min_used,b_ch,b_key,b_tot"
        assert lines[1].startswith("h_min,0.9,CH,1,0,")
        assert text.endswith("\n") and "\r" not in text

    def test_atomic_on_failure(self, tmp_path):
        spec = SweepSpec(
            variable="h_min",
            values=(0.5, 2.0),  # second value violates h_min <= h_max
            mechanisms=("CH",),
            params=params_from_config(BASE_PARAMS),
        )
        out = tmp_path / "out.csv"
        with pytest.raises(Exception):
            write_csv(run_sweep(spec), spec.variable, str(out))
        assert not out.exists()
        assert not list(tmp_path.glob(".crpla-*"))


class TestCli:
    def test_analyze_prints_all_mechanisms(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", BASE_PARAMS)
        assert cli.main(["analyze", "--config", cfg]) == 0
        out = capsys.readouterr().out
        for tag in ("CH", "CD", "HYBRID", "geometry", "rates"):
            assert tag in out

    def test_analyze_json_document(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", BASE_PARAMS)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", cfg, "--quiet", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["reports"]["HYBRID"]["b_tot"] == pytest.approx(
            doc["reports"]["HYBRID"]["b_ch"] + doc["reports"]["HYBRID"]["b_key"]
        )

    def test_analyze_json_is_strict(self, tmp_path):
        # h_min = h_max: the cube volume is 0, so log2_v_cube is -inf, written as null
        cfg = write_json(tmp_path / "p.json", dict(BASE_PARAMS, h_min=1.0))
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", cfg, "--quiet", "--out", str(out)]) == 0

        def reject_constant(name):
            raise ValueError(f"non-finite number {name} in the analyze JSON")

        doc = json.loads(out.read_text(), parse_constant=reject_constant)
        assert doc["channel_geometry"]["log2_v_cube"] is None

    def test_analyze_degenerate_pilots_still_reports_baselines(self, tmp_path, capsys):
        cfg = dict(BASE_PARAMS)
        cfg["alpha"] = 1.0
        path = write_json(tmp_path / "p.json", cfg)
        assert cli.main(["analyze", "--config", path]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_malformed_config_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_exit_1(self):
        assert cli.main(["analyze", "--bogus"]) == 1

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_too_few_trials_is_exit_1(self, tmp_path, capsys, trials):
        cfg = write_json(tmp_path / "p.json", _small_f_config())
        assert cli.main(["simulate", "--config", cfg, "--trials", trials]) == 1
        assert "trials" in capsys.readouterr().err

    def test_sweep_consistent_with_analyze(self, tmp_path):
        spec = spec_dict()
        spec["sweep"]["values"] = [0.9]
        spec_path = write_json(tmp_path / "s.json", spec)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec_path, "--out", str(out), "--quiet", "--jobs", "1"]) == 0
        row = out.read_text().splitlines()[3]  # HYBRID row
        b_tot = float(row.split(",")[-1])
        direct = hybrid.evaluate(params_from_config(BASE_PARAMS), "HYBRID").report
        assert b_tot == pytest.approx(direct.b_tot, rel=1e-12)

    def test_sweep_byte_identical_across_jobs(self, tmp_path):
        spec_path = write_json(tmp_path / "s.json", spec_dict())
        outputs = []
        for jobs, name in ((1, "a.csv"), (2, "b.csv"), (1, "c.csv")):
            out = tmp_path / name
            assert (
                cli.main(
                    ["sweep", "--config", spec_path, "--out", str(out), "--quiet", "--jobs", str(jobs)]
                )
                == 0
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_simulate_passes_and_is_deterministic(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", _small_f_config())
        argv = ["simulate", "--config", cfg, "--trials", "50000", "--seed", "1"]
        assert cli.main(argv + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert cli.main(argv + ["--jobs", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "PASS" in first and "FAIL" not in first

    def test_simulate_flags_regime_violation(self, tmp_path, capsys):
        # narrow amplitude span: the sphere is not small next to the cube,
        # so the boundary-free analytic value overshoots the empirical one
        cfg = dict(_small_f_config())
        cfg["h_min"] = 0.95
        path = write_json(tmp_path / "p.json", cfg)
        with pytest.warns(NarrowMarginWarning):
            code = cli.main(
                ["simulate", "--config", path, "--trials", "200000", "--seed", "1", "--jobs", "1"]
            )
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CRPLA_SEED", "777")
        cfg = write_json(tmp_path / "p.json", _small_f_config())
        assert cli.main(["simulate", "--config", cfg, "--trials", "2048", "--jobs", "1"]) in (0, 3)
        assert "seed 777" in capsys.readouterr().out

    def test_optimize_grid_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", BASE_PARAMS)
        grid_out = tmp_path / "grid.csv"
        assert cli.main(["optimize", "--config", cfg, "--grid-csv", str(grid_out)]) == 0
        stdout = capsys.readouterr().out
        assert "OPTIMUM" in stdout
        lines = grid_out.read_text().splitlines()
        assert len(lines) == 1 + 9 * 101 + 1  # header + interior cells + endpoint

    def test_optimize_matches_library(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", BASE_PARAMS)
        assert cli.main(["optimize", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        best = hybrid.optimize(params_from_config(BASE_PARAMS))
        assert f"{best.b_tot:16.6f}".strip() in stdout


def _one_line_error(capsys, prefix="error: ") -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


class TestInputErrors:
    """Malformed inputs end in exit 1 and a one-line message, never a traceback."""

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_sweep_value(self, tmp_path, capsys, constant):
        spec = spec_dict(sweep={"variable": "F", "values": [2, "@"]})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec).replace('"@"', constant))
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv"), "--jobs", "1"]
        assert cli.main(argv) == 1
        assert constant in _one_line_error(capsys)

    def test_overflowing_sweep_value(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        spec = spec_dict(sweep={"variable": "F", "values": [2]})
        path.write_text(json.dumps(spec).replace("[2]", "[1e400]"))  # parses as inf
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv"), "--jobs", "1"]
        assert cli.main(argv) == 1
        _one_line_error(capsys)

    def test_non_finite_config_value(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(BASE_PARAMS, h_min="@")).replace('"@"', "NaN"))
        assert cli.main(["analyze", "--config", str(path)]) == 1
        assert "NaN" in _one_line_error(capsys)

    def test_db_overflow_in_config(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", dict(BASE_PARAMS, lambda_B_dB=4000))
        assert cli.main(["analyze", "--config", path]) == 1
        assert "lambda_B_dB" in _one_line_error(capsys)

    def test_db_overflow_in_sweep(self, tmp_path, capsys):
        spec = spec_dict(sweep={"variable": "lambda_B_dB", "values": [40, 4000]})
        path = write_json(tmp_path / "s.json", spec)
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "o.csv"), "--jobs", "1"]
        assert cli.main(argv) == 1
        assert "lambda_B_dB" in _one_line_error(capsys)

    def test_cd_report_finite_near_float_limit(self, tmp_path, capsys):
        # (S + 1)^2 would overflow a float at these SNRs; the CD dispersion must not
        point = write_json(tmp_path / "p.json", dict(BASE_PARAMS, lambda_B_dB=1542))
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--config", point, "--quiet", "--out", str(out)]) == 0
        assert all(math.isfinite(v) for v in json.loads(out.read_text())["cd_rate_report"].values())
        spec = spec_dict(sweep={"variable": "lambda_B_dB", "values": [40, 2000]}, mechanisms=["CD"])
        csv = tmp_path / "o.csv"
        argv = ["sweep", "--config", write_json(tmp_path / "s.json", spec), "--out", str(csv)]
        assert cli.main(argv + ["--quiet"]) == 0
        assert all(map(math.isfinite, map(float, csv.read_text().split()[-1].split(",")[3:])))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["optimize", "analyze"])
    def test_non_finite_key_bits_are_numeric_failures(self, tmp_path, capsys, command):
        # h_max^2 lambda_B overflows: the moments and the CD rate turn inf or nan
        point = write_json(tmp_path / "p.json", dict(BASE_PARAMS, h_max=1e160))
        assert cli.main([command, "--config", point]) == 2
        assert "not finite" in _one_line_error(capsys, prefix="numeric failure: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, params, mechanisms",
        [
            ("analyze", dict(BASE_PARAMS, F=1, p_FA=0.9, lambda_B_dB=20), None),
            ("optimize", dict(BASE_PARAMS, F=1, p_FA=0.9, lambda_B_dB=20), None),
            ("sweep", dict(BASE_PARAMS, F=1, p_FA=0.9, lambda_B_dB=20), ["CH", "HYBRID_OPT"]),
            ("sweep", dict(BASE_PARAMS, h_max=1e308), ["CH"]),
        ],
        ids=["analyze", "optimize", "sweep", "sweep_span_overflow"],
    )
    def test_infinite_channel_bits_are_numeric_failures(
        self, tmp_path, capsys, command, params, mechanisms
    ):
        # chi = sqrt(2F) tau + F < 0 at F = 1, p_FA = 0.9 gives a radius-0 sphere, and
        # 2 (h_max - h_min) overflows at h_max = 1e308: both make b_ch infinite
        if command == "sweep":
            cfg = write_json(tmp_path / "s.json", spec_dict(params=params, mechanisms=mechanisms))
            extra = ["--out", str(tmp_path / "o.csv")]
        else:
            cfg, extra = write_json(tmp_path / "p.json", params), []
        assert cli.main([command, "--config", cfg, *extra]) == 2
        assert "CH key bits" in _one_line_error(capsys, prefix="numeric failure: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "{spec}", "--out", "{missing}/o.csv", "--jobs", "1"],
            ["analyze", "--config", "{point}", "--out", "{missing}/o.json"],
            ["optimize", "--config", "{point}", "--grid-csv", "{missing}/g.csv"],
        ],
        ids=["sweep", "analyze", "optimize"],
    )
    def test_unwritable_output(self, tmp_path, capsys, argv):
        paths = {
            "spec": write_json(tmp_path / "s.json", spec_dict()),
            "point": write_json(tmp_path / "p.json", BASE_PARAMS),
            "missing": str(tmp_path / "no-such-dir"),
        }
        assert cli.main([a.format(**paths) for a in argv]) == 1
        assert "cannot write" in _one_line_error(capsys)

    def test_analyze_out_is_atomic(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(tmp_path / "p.json", BASE_PARAMS)
        out = tmp_path / "report.json"

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.replace", failing_replace)
        assert cli.main(["analyze", "--config", cfg, "--quiet", "--out", str(out)]) == 1
        assert "cannot write" in _one_line_error(capsys)
        assert not out.exists()
        assert not list(tmp_path.glob(".crpla-*"))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, command, jobs):
        if command == "sweep":
            cfg = write_json(tmp_path / "s.json", spec_dict())
            extra = ["--out", str(tmp_path / "o.csv")]
        else:
            cfg = write_json(tmp_path / "p.json", _small_f_config())
            extra = ["--trials", "100"]
        assert cli.main([command, "--config", cfg, *extra, "--jobs", jobs]) == 1
        assert "--jobs" in _one_line_error(capsys)
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_quiet_prints_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", _small_f_config())
        argv = ["simulate", "--config", cfg, "--trials", "20000", "--seed", "1", "--jobs", "1"]
        assert cli.main(argv + ["--quiet"]) == 0
        assert capsys.readouterr().out == ""


def _small_f_config():
    return {
        "n": 10,
        "F": 2,
        "alpha": 1.0,
        "b_M": 0,
        "p_FA": 0.05,
        "lambda_B_dB": 40,
        "lambda_T_over_lambda_B": 1.0,
        "h_min": 0.5,
        "h_max": 1.0,
    }


ROOT = Path(__file__).resolve().parent.parent
MARGIN_LINE = (
    "warning: sphere radius exceeds 10% of the amplitude span; the boundary-free "
    "volume ratio is a coarse approximation in this regime"
)


def _cli_stderr(tmp_path, *argv) -> str:
    """Standard error of a fresh ``python -m crpla.cli`` process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "crpla.cli", *argv]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stderr


class TestWarningLines:
    """A run prints each crpla warning as one line, once per distinct message."""

    def test_sweep_prints_margin_warning_once(self, tmp_path):
        config = str(ROOT / "configs" / "sweep_hmin.json")
        stderr = _cli_stderr(tmp_path, "sweep", "--config", config, "--out", "o.csv")
        assert stderr == MARGIN_LINE + "\n"

    def test_simulate_prints_each_message_once(self, tmp_path):
        config = str(ROOT / "configs" / "point_high_snr.json")
        argv = ["simulate", "--config", config, "--trials", "2048", "--seed", "1", "--jobs", "1"]
        lines = _cli_stderr(tmp_path, *argv).splitlines()
        assert lines[0] == MARGIN_LINE
        assert lines[1].startswith("warning: no successes in 2048 trials")
        assert len(lines) == 2


class TestShippedConfigs:
    CONFIGS = ROOT / "configs"

    def test_point_configs_parse(self):
        from crpla.params import load_params

        point = load_params(str(self.CONFIGS / "point_high_snr.json"))
        assert point.lambda_B == pytest.approx(1e5)
        small = load_params(str(self.CONFIGS / "validate_small_f.json"))
        assert small.F == 2 and small.pilot_count == 10

    def test_sweep_specs_parse_and_cover_range(self):
        hmin = load_sweep_spec(str(self.CONFIGS / "sweep_hmin.json"))
        assert hmin.variable == "h_min"
        assert len(hmin.values) == 101
        assert hmin.values[0] == 0.0 and hmin.values[-1] == 1.0
        assert set(hmin.mechanisms) == {"CH", "CD", "HYBRID", "HYBRID_OPT"}
        ratio = load_sweep_spec(str(self.CONFIGS / "sweep_snr_ratio.json"))
        assert ratio.variable == "lambda_ratio"
        assert min(ratio.values) == 0.05 and max(ratio.values) == 0.95

    def test_hmin_spec_first_point_runs(self):
        spec = load_sweep_spec(str(self.CONFIGS / "sweep_hmin.json"))
        trimmed = SweepSpec(
            variable=spec.variable,
            values=spec.values[:1],
            mechanisms=spec.mechanisms,
            params=spec.params,
        )
        rows = run_sweep(trimmed)
        assert len(rows) == len(spec.mechanisms)
