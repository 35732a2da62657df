"""Sweep machinery and CLI behavior: schemas, determinism, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_digest import map_digests

from crpla import channel, cli, hybrid
from crpla.errors import ConfigParseError, CrplaError
from crpla.params import params_from_config
from crpla.sweep import (
    SweepSpec,
    apply_swept_value,
    evaluate_point,
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
    @pytest.mark.parametrize(
        "variable, value, optimum",
        [
            ("h_min", 0.9, ("HYBRID", 0.1, 0.9, 1620.821)),
            # an F sweep searches the whole grid, channel-only endpoint included
            ("F", 2.0, ("CH", 1.0, 0.0, 16.648)),
            ("F", 100.0, ("HYBRID", 0.1, 0.9, 1620.821)),
        ],
        ids=["h_min", "F=2", "F=100"],
    )
    def test_single_value_matches_direct_evaluation(self, variable, value, optimum):
        spec = SweepSpec(
            variable=variable,
            values=(value,),
            mechanisms=("CH", "CD", "HYBRID", "HYBRID_OPT"),
            params=params_from_config(BASE_PARAMS),
        )
        rows = run_sweep(spec)
        by_label = {label: report for _v, label, report in rows}
        params = apply_swept_value(spec.params, variable, value)
        assert by_label["CH"] == hybrid.evaluate(params, "CH").report
        assert by_label["CD"] == hybrid.evaluate(params, "CD").report
        assert by_label["HYBRID"] == hybrid.evaluate(params, "HYBRID").report
        opt = by_label["HYBRID_OPT"]
        *labels, b_tot = optimum
        assert (opt.mechanism, opt.alpha_used, opt.h_min_used) == tuple(labels)
        assert opt.b_tot == pytest.approx(b_tot, abs=5e-4)

    # h_min = -0.0 passes validation, and its row prints h_min_used as -0
    @pytest.mark.parametrize(
        "h_min", [0.9, 0.905, -0.0], ids=["on_grid", "off_grid", "negative_zero"]
    )
    @pytest.mark.parametrize(
        "variable, values",
        [
            ("h_min", None),  # the swept value is the configured h_min
            ("lambda_ratio", (0.05, 0.3, 0.95)),
            ("lambda_B_dB", (10.0, 33.3, 50.0)),
            ("F", (2.0, 100.0)),
            ("alpha", (0.1, 0.5, 0.9)),
        ],
    )
    def test_hybrid_row_is_the_single_point_report(self, variable, values, h_min):
        params = params_from_config(dict(BASE_PARAMS, h_min=h_min))
        spec = SweepSpec(
            variable=variable,
            values=values or (h_min,),
            mechanisms=("CH", "HYBRID", "CD", "HYBRID_OPT"),
            params=params,
        )
        rows = [(v, report) for v, label, report in run_sweep(spec) if label == "HYBRID"]
        assert len(rows) == len(spec.values)
        for value, report in rows:
            direct = hybrid.evaluate(apply_swept_value(params, variable, value), "HYBRID").report
            assert repr(report) == repr(direct)

    @pytest.mark.parametrize(
        "variable, value, mechanisms, h_min, checks",
        [
            ("lambda_B_dB", 40.0, ("CH", "CD", "HYBRID", "HYBRID_OPT"), 0.9, 1),
            ("lambda_B_dB", 40.0, ("HYBRID_OPT", "CD", "HYBRID"), 0.9, 1),
            ("lambda_B_dB", 40.0, ("CH", "CD", "HYBRID", "HYBRID_OPT"), 0.905, 2),
            ("lambda_B_dB", 40.0, ("CH", "CD", "HYBRID"), 0.9, 1),
            ("lambda_B_dB", 40.0, ("CH", "CD", "HYBRID_OPT"), 0.9, 1),
            ("h_min", 0.9, ("CH", "CD", "HYBRID", "HYBRID_OPT"), 0.9, 1),
        ],
        ids=["on_grid", "opt_first", "off_grid", "hybrid_alone", "opt_alone", "h_min_pinned"],
    )
    def test_hybrid_checks_run_once_per_point_on_the_grid(
        self, monkeypatch, variable, value, mechanisms, h_min, checks
    ):
        # one _hybrid_checks call evaluates a whole grid or one cell, CH and
        # CD make none; the channel is evaluated once, for the CH row or the
        # grid's channel-only candidate, and a pinned (h_min) search has no
        # such candidate, so there its CH row is a single-point evaluation
        counts = {"_hybrid_checks": 0, "equivalent_key_bits": 0}

        def counting(module, name):
            function = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(hybrid, "_hybrid_checks")
        counting(channel, "equivalent_key_bits")
        params = params_from_config(dict(BASE_PARAMS, h_min=h_min))
        evaluate_point(params, variable, value, mechanisms, exact_threshold=False)
        assert counts == {"_hybrid_checks": checks, "equivalent_key_bits": 1}

    @pytest.mark.parametrize(
        "variable, values, field",
        [("h_min", (0.85,), "h_min_used"), ("alpha", (0.1, 0.5, 0.9), "alpha_used")],
        ids=["h_min", "alpha"],
    )
    def test_opt_rows_pin_swept_value(self, variable, values, field):
        spec = SweepSpec(
            variable=variable,
            values=values,
            mechanisms=("HYBRID_OPT",),
            params=params_from_config(BASE_PARAMS),
        )
        rows = run_sweep(spec)
        assert [label for _v, label, _r in rows] == ["HYBRID_OPT"] * len(values)
        assert [getattr(report, field) for _v, _l, report in rows] == list(values)
        # a pinned search leaves the channel-only endpoint out
        assert all(report.mechanism == "HYBRID" for _v, _l, report in rows)

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

    @given(
        variable=st.sampled_from(["lambda_B_dB", "lambda_ratio"]),
        data=st.data(),
        mechanisms=st.permutations(("CH", "CD", "HYBRID", "HYBRID_OPT")),
        pilot_count=st.integers(0, 10),
        h_min=st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.9]), st.floats(0.0, 1.0)),
        exact=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_is_its_one_value_sweeps(
        self, variable, data, mechanisms, pilot_count, h_min, exact
    ):
        # the points of an SNR sweep share one grid evaluation; its rows, or
        # its error, are those of its values swept one at a time, in order
        value = st.floats(-30.0, 90.0) if variable == "lambda_B_dB" else st.floats(0.01, 3.0)
        values = tuple(data.draw(st.lists(value, min_size=2, max_size=6), label="values"))
        config = dict(BASE_PARAMS, alpha=pilot_count / 10, h_min=h_min)
        spec = SweepSpec(variable, values, tuple(mechanisms), params_from_config(config))
        expected: list | CrplaError = []
        for v in values:
            try:
                expected += run_sweep(dataclasses.replace(spec, values=(v,)), exact)
            except CrplaError as exc:
                expected = exc
                break
        try:
            rows: list | CrplaError = run_sweep(spec, exact)
        except CrplaError as exc:
            rows = exc
        assert repr(rows) == repr(expected)


# every b_tot of a scaled sweep against the original, relative
SCALING_RTOL = 1e-12


class TestSweepProperties:
    """Properties of the reports of a sweep whose points share one grid
    evaluation."""

    @given(
        db=st.floats(0.0, 60.0),
        ratios=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
        pilot_count=st.integers(1, 9),
        h_min=st.floats(0.0, 1.0),
        c=st.sampled_from([0.25, 3.0, 7.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_amplitude_snr_scaling(self, db, ratios, pilot_count, h_min, c):
        # (h_min, h_max, lambda_B) -> (c h_min, c h_max, lambda_B / c^2) with
        # lambda_T fixed leaves every h^2 lambda_B and r / (h_max - h_min) as
        # they were, so every b_tot and the optimum's alpha and h_min / c stay
        config = dict(BASE_PARAMS, lambda_B_dB=db, alpha=pilot_count / 10, h_min=h_min)
        params = params_from_config(config)
        scaled = params.replace(
            lambda_B=params.lambda_B / c**2, h_min=c * params.h_min, h_max=c * params.h_max
        )
        mechanisms = ("CH", "CD", "HYBRID", "HYBRID_OPT")
        rows = run_sweep(SweepSpec("lambda_ratio", tuple(ratios), mechanisms, params))
        scaled_ratios = tuple(r * c * c for r in ratios)
        images = run_sweep(SweepSpec("lambda_ratio", scaled_ratios, mechanisms, scaled))
        for (_v, label, report), (_w, _label, image) in zip(rows, images):
            assert math.isclose(image.b_tot, report.b_tot, rel_tol=SCALING_RTOL, abs_tol=1e-9)
            if label == "HYBRID_OPT":
                assert image.alpha_used == report.alpha_used
                assert math.isclose(image.h_min_used / c, report.h_min_used, rel_tol=1e-15)

    @given(
        dbs=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4),
        ratio=st.floats(0.05, 0.95),
        pilot_count=st.integers(1, 9),
        step=st.integers(0, 100),
        exact=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimum_dominates_every_cell_and_ch(self, dbs, ratio, pilot_count, step, exact):
        # h_min on the default grid makes the HYBRID row one of the grid's cells
        config = dict(
            BASE_PARAMS,
            lambda_T_over_lambda_B=ratio,
            alpha=pilot_count / 10,
            h_min=min(step * 1.0 / 100.0, 1.0),
        )
        spec = SweepSpec(
            "lambda_B_dB", tuple(dbs), ("CH", "HYBRID", "HYBRID_OPT"), params_from_config(config)
        )
        reports = [report for _v, _label, report in run_sweep(spec, exact)]
        for ch, cell, optimum in zip(reports[::3], reports[1::3], reports[2::3]):
            assert optimum.b_tot >= cell.b_tot
            assert optimum.b_tot >= ch.b_tot


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

    def test_simulate_passes_at_a_high_floor(self, tmp_path, capsys):
        # radius_over_fit is about 0.29 here, so the closed form is the
        # success rate of the centre guess, the attacker simulate measures
        cfg = dict(_small_f_config())
        cfg["h_min"] = 0.95
        path = write_json(tmp_path / "p.json", cfg)
        code = cli.main(
            ["simulate", "--config", path, "--trials", "200000", "--seed", "1", "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        attack = [line for line in out.splitlines() if line.startswith("attack_success")]
        assert len(attack) == 1 and attack[0].endswith("PASS")

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CRPLA_SEED", "777")
        cfg = write_json(tmp_path / "p.json", _small_f_config())
        assert cli.main(["simulate", "--config", cfg, "--trials", "2048", "--jobs", "1"]) in (0, 3)
        assert "seed 777" in capsys.readouterr().out

    def test_negative_seed_runs(self, tmp_path):
        config = str(ROOT / "configs" / "validate_small_f.json")
        argv = ["simulate", "--config", config, "--seed", "-1", "--trials", "2048", "--jobs", "1"]
        result = _python(tmp_path, "-m", "crpla.cli", *argv)
        assert result.returncode in (0, 3), result.stderr
        assert "Traceback" not in result.stderr
        assert "seed -1" in result.stdout

    def test_default_jobs_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._default_jobs() == 2
        assert cli.build_parser().parse_args(["simulate", "--config", "p.json"]).jobs == 2
        # a second parser reads the CPUs again; a cached one would keep the 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
        assert cli.build_parser().parse_args(["simulate", "--config", "p.json"]).jobs == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._default_jobs() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._default_jobs() == 1

    def test_main_reuses_its_parser_across_calls(self, tmp_path, capsys):
        # one process runs simulate, a usage error, a sweep and --help,
        # then the same simulate again: it prints what the first one did
        # and what a fresh process prints
        config = str(ROOT / "configs" / "validate_small_f.json")
        simulate = ["simulate", "--config", config, "--trials", "2048", "--seed", "3", "--jobs", "1"]
        first = cli.main(simulate), capsys.readouterr().out
        assert cli.main(["analyze", "--bogus"]) == 1
        spec = write_json(tmp_path / "s.json", spec_dict())
        assert cli.main(["sweep", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        again = cli.main(simulate), capsys.readouterr().out
        fresh = _python(tmp_path, "-m", "crpla.cli", *simulate)
        assert first[0] in (0, 3) and first[1].startswith("# 2048 trials per check, seed 3")
        assert again == first == (fresh.returncode, fresh.stdout)

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

    _NO_PILOTS = "error: hybrid needs 1 <= pilot_count <= n-1, got 0 of n=10\n"
    _CH_RADIUS_0 = "numeric failure: CH key bits are not finite at this operating point\n"
    _HYBRID_OVERFLOW = "numeric failure: HYBRID key bits are not finite at this operating point\n"
    _F1 = dict(F=1, p_FA=0.9)  # a radius-0 channel-only sphere: CH and the grid fail
    _F1_HUGE = dict(_F1, h_max=1e152, h_min=9e151)  # the HYBRID cell overflows as well

    @pytest.mark.parametrize(
        "variable, values, params, mechanisms, code, message",
        [
            ("h_min", [0.9], dict(alpha=0.0), ["HYBRID", "HYBRID_OPT"], 1, _NO_PILOTS),
            ("alpha", [0.0], {}, ["HYBRID", "HYBRID_OPT"], 1, _NO_PILOTS),
            ("lambda_B_dB", [50], dict(_F1, alpha=0.0), ["HYBRID", "HYBRID_OPT"], 1, _NO_PILOTS),
            ("lambda_B_dB", [50], _F1, ["HYBRID", "HYBRID_OPT"], 2, _CH_RADIUS_0),
            ("lambda_B_dB", [50], _F1, ["HYBRID_OPT", "HYBRID"], 2, _CH_RADIUS_0),
            ("lambda_B_dB", [50], _F1_HUGE, ["HYBRID", "HYBRID_OPT"], 2, _HYBRID_OVERFLOW),
            ("lambda_B_dB", [50], _F1_HUGE, ["HYBRID_OPT", "HYBRID"], 2, _CH_RADIUS_0),
            # the default h_min grid ends at h_max = 0.007, and the grid fails
            # at its channel-only endpoint; the CH row, listed before
            # HYBRID_OPT, reports that error first
            (
                "lambda_B_dB", [50], dict(_F1, h_max=0.007, h_min=0.0063),
                ["HYBRID", "CH", "HYBRID_OPT"], 2, _CH_RADIUS_0,
            ),
        ],
        ids=[
            "no_pilots", "alpha_swept_to_0", "no_pilots_before_ch", "ch_radius_0",
            "opt_first", "hybrid_overflow_before_ch", "ch_before_hybrid_overflow",
            "ch_between",
        ],
    )  # fmt: skip
    def test_hybrid_rows_fail_in_list_order(
        self, tmp_path, capsys, variable, values, params, mechanisms, code, message
    ):
        # a failing HYBRID or HYBRID_OPT row reports the error it would
        # report were each row evaluated on its own, in list order
        spec = spec_dict(
            sweep={"variable": variable, "values": values},
            mechanisms=mechanisms,
            params=dict(BASE_PARAMS, **params),
        )
        path = write_json(tmp_path / "s.json", spec)
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "o.csv"), "--jobs", "1"]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o.csv").exists()

    _DB_OVERFLOW = "error: lambda_B_dB = 4000.0 overflows the linear scale\n"
    _LAMBDA_T_OVERFLOW = "error: lambda_T must be finite and > 0, got inf\n"
    _CD_OVERFLOW = "numeric failure: CD key bits are not finite at this operating point\n"
    _HUGE_H_MAX = dict(h_max=1e140, h_min=0.0)  # at 300 dB CD and the grid overflow, CH does not

    @pytest.mark.parametrize(
        "variable, values, params, mechanisms, code, message",
        [
            ("lambda_B_dB", [40, 4000, 50], {}, ["CD", "HYBRID_OPT"], 1, _DB_OVERFLOW),
            ("lambda_ratio", [0.3, 1e308, 0.5], {}, ["CD", "HYBRID_OPT"], 1, _LAMBDA_T_OVERFLOW),
            ("lambda_B_dB", [40, 300, 50], _HUGE_H_MAX, ["CH", "HYBRID_OPT"], 2, _HYBRID_OVERFLOW),
            ("lambda_B_dB", [40, 300, 50], _HUGE_H_MAX, ["CH", "CD", "HYBRID_OPT"], 2, _CD_OVERFLOW),
            # the middle point's grid fails before the last point's dB value overflows
            ("lambda_B_dB", [40, 300, 4000], _HUGE_H_MAX, ["CH", "HYBRID_OPT"], 2, _HYBRID_OVERFLOW),
        ],
        ids=[
            "db_overflow", "ratio_overflow", "grid_not_finite", "cd_before_grid",
            "grid_before_db_overflow",
        ],
    )  # fmt: skip
    def test_failing_value_mid_sweep(
        self, tmp_path, capsys, variable, values, params, mechanisms, code, message
    ):
        # the points of an SNR sweep share one grid evaluation; a failing
        # point still reports, at its own place, what it would report alone
        spec = spec_dict(
            sweep={"variable": variable, "values": values},
            mechanisms=mechanisms,
            params=dict(BASE_PARAMS, **params),
        )
        path = write_json(tmp_path / "s.json", spec)
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "o.csv"), "--jobs", "1"]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_amplitude_moment_overflow_is_a_numeric_failure(self, tmp_path, capsys, command):
        # sqrt(lambda_B) * h_max = 1e315 overflows where the amplitude
        # moments count their quadrature pieces
        params = dict(BASE_PARAMS, lambda_B_dB=300, h_min=0.0, h_max=1e300)
        if command == "sweep":
            spec = spec_dict(
                sweep={"variable": "lambda_B_dB", "values": [300]},
                mechanisms=["CH", "HYBRID_OPT"],
                params=params,
            )
            cfg = write_json(tmp_path / "s.json", spec)
            extra = ["--out", str(tmp_path / "o.csv")]
        else:
            cfg, extra = write_json(tmp_path / "p.json", params), []
        assert cli.main([command, "--config", cfg, *extra]) == 2
        assert capsys.readouterr().err == (
            "numeric failure: amplitude moments are not finite: sqrt(lambda_B) * h_max overflows\n"
        )
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "values, params, code, message",
        [
            # lambda_B * pilots < 5.6e-309: the estimator variance is inf and b_ch 0
            ([-3090], {}, 0, ""),
            # sqrt(lambda_B) * h_max = 1e308: the last quadrature cut 2^1024 / a is inf
            ([160], dict(h_max=1e300, h_min=0.0), 2, _HYBRID_OVERFLOW),
        ],
        ids=["subnormal_snr", "last_cut_overflows"],
    )
    def test_overflow_prints_no_python_warning(
        self, tmp_path, capsys, values, params, code, message
    ):
        spec = spec_dict(
            sweep={"variable": "lambda_B_dB", "values": values},
            mechanisms=["CH", "HYBRID_OPT"],
            params=dict(BASE_PARAMS, **params),
        )
        path = write_json(tmp_path / "s.json", spec)
        argv = ["sweep", "--config", path, "--out", str(tmp_path / "o.csv"), "--quiet"]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == message

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


def _python(tmp_path, *argv) -> subprocess.CompletedProcess:
    """A fresh ``python *argv`` process with the default warning filters."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, *argv]
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)


def _cli_stderr(tmp_path, *argv) -> str:
    """Standard error of a fresh ``python -m crpla.cli`` process, which must exit 0."""
    result = _python(tmp_path, "-m", "crpla.cli", *argv)
    assert result.returncode == 0, result.stderr
    return result.stderr


class TestWarningLines:
    """A CLI run writes to standard error only the warning line of each
    unresolved ``simulate`` check."""

    def test_sweep_writes_no_stderr(self, tmp_path):
        config = str(ROOT / "configs" / "sweep_hmin.json")
        assert _cli_stderr(tmp_path, "sweep", "--config", config, "--out", "o.csv") == ""

    def test_simulate_prints_each_message_once(self, tmp_path):
        config = str(ROOT / "configs" / "point_high_snr.json")
        argv = ["simulate", "--config", config, "--trials", "2048", "--seed", "1", "--jobs", "1"]
        lines = _cli_stderr(tmp_path, *argv).splitlines()
        assert lines[0].startswith("warning: no successes in 2048 trials")
        assert len(lines) == 1

    def test_simulate_at_an_empty_acceptance_ball(self, tmp_path):
        # at F = 1 and p_FA = 0.9 the chi-square point sqrt(2F) tau + F is
        # negative: the ball has radius 0, every legitimate message is
        # rejected and no attack succeeds, however many trials run
        config = write_json(tmp_path / "p.json", dict(BASE_PARAMS, F=1, p_FA=0.9, lambda_B_dB=20))
        argv = ["simulate", "--config", config, "--trials", "2048", "--seed", "1", "--jobs", "1"]
        result = _python(tmp_path, "-m", "crpla.cli", *argv)
        assert result.returncode == 0, result.stderr
        assert result.stderr == (
            "warning: no successes in 2048 trials: the acceptance ball is empty, "
            "so no number of trials resolves this setting\n"
        )
        rows = {line.split()[0]: line.split() for line in result.stdout.splitlines()[2:]}
        assert rows["false_alarm"][1:3] == ["1", "1"] and rows["false_alarm"][-1] == "PASS"
        assert rows["attack_success"][1:3] == ["0", "0"] and rows["attack_success"][-1] == "WARN"


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


def test_sweep_digest_hashes_every_map_curve():
    # tests/sweep_digest.py: one CSV hash per curve of the benchmark map
    digests = map_digests(range(1, 2))
    assert len(digests) == 128
    assert all(len(digest) == 64 for _seed, _curve, digest in digests)
