"""Golden outputs: the shipped configs must keep producing the same bytes.

Each case runs the CLI in-process at ``--jobs 1`` and pins the sha256 of
what it writes: the sweep CSVs of the shipped specs and of four specs built
here, the optimizer's full grid dump, the
human-readable ``analyze`` report, the ``analyze --out`` JSON document
with both thresholds, and the exit code, stdout and stderr of ``simulate``
at the benchmark's Monte Carlo inputs.  A refactor that changes any of
these bytes changes the program's output and must say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from crpla import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_CSV = {
    "sweep_hmin.json": "bb8919c176c107a8db25d3ba1b5001d2f0491ff8c1592dc55c33c2a5e0780a8a",
    "sweep_snr_ratio.json": "7e460b0b45271be8891e29b03959a64073b50c8f0056c6e14f775995e119c488",
}
# Sweeps on point_high_snr's parameters that no shipped spec covers: a
# lambda_B_dB curve listing all four mechanisms over the free optimizer
# grid, the row shape of the opt_map_cold benchmark workload (its optimum
# moves from the grid to the channel-only endpoint), an alpha sweep at
# h_min = -0.0, whose HYBRID rows print h_min_used as -0, an F sweep, whose
# points each evaluate their own grid, and an attacker-ratio sweep with the
# exact threshold, whose points share one grid evaluation.
SPEC_CSV = {
    "map_curve": (
        {"variable": "lambda_B_dB", "values": [12.5, 30.0, 50.0]},
        {"lambda_T_over_lambda_B": 0.55},
        "e8976ddfd63ea9d18dd7879783573c8ecc5f5f9d3db7c18ae98ac0289ce3b3b6",
    ),
    "alpha_at_negative_zero_h_min": (
        {"variable": "alpha", "values": [0.1, 0.5, 0.9]},
        {"h_min": -0.0},
        "06f12d0fae8c169ac0cb834c7dd3e0ffc64a90a66cfc33edc9a19eaa7437580b",
    ),
    "f_sweep": (
        {"variable": "F", "values": [2, 20, 100]},
        {},
        "52da8c7558cc55d49f377e57495301751ff7374924653ca14cfd545ee4cbcf4b",
    ),
    "lambda_ratio_exact_threshold": (
        {"variable": "lambda_ratio", "values": [0.05, 0.3, 0.6, 0.95]},
        {},
        "3a22d21c3a7f294100aaf345fd3e7eca09de5f903c642ca1fd50a697fda10db6",
    ),
}
SPEC_EXACT_THRESHOLD = {"lambda_ratio_exact_threshold"}
GRID_CSV = {
    "point_high_snr.json": "77a2e6150904405d53a83692e773988230d059307a9ff287703d06728d7221f3",
    "validate_small_f.json": "f48aea75f46e9240aac9bffa6a5e1fc9508994d132152d342c66a34a9d0caf39",
}
ANALYZE_STDOUT = {
    "point_high_snr.json": "f5ea4dd35a734f2b2e0fbb7fb802b258c0f99909ab2a3fdba4ee56a444cd783a",
    "validate_small_f.json": "0ca9985065b99e45541198aa7639a1f58b2f9c5787c742e00ea23644d1bfb2d0",
}
ANALYZE_JSON = {
    ("point_high_snr.json", False): "e44d7f0826fc92af728a0fbd7bbb7922fbd7df4953f06f1976a2c059501b0142",
    ("point_high_snr.json", True): "785d5366e6128d24942e09c8468a0e8befc0be8649dca84dc26b4492b9a3bbbf",
    ("validate_small_f.json", False): "50d9773f2bb9df45b329df61ef9d02478a26e384e65d37057ed45484c3cae13d",
    ("validate_small_f.json", True): "ef0db35a30f68b74cd253cc08e53defb2f801849ba1a03cff7ff17e15ac9c489",
}
# point_high_snr with F replaced, 2**14 trials per check, seed 1, as the
# mc_f100 and mc_f1000 benchmark workloads run it
SIMULATE = {
    100: "7d92fff77abb64b3352dbc1724a0cbd90a028d9a647cf8246f4c85a45bffdb3b",
    1000: "3e94e8978dac5ed90ed0eb15c4c9943f10b3a616ac90fe210f43d4c1b00d5a0c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP_CSV))
def test_sweep_csv(name, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(CONFIGS / name), "--out", str(out), "--jobs", "1"]
    assert cli.main(argv) == 0
    assert sha256(out.read_bytes()) == SWEEP_CSV[name]


@pytest.mark.parametrize("name", sorted(SPEC_CSV))
def test_spec_csv(name, tmp_path):
    sweep, overrides, digest = SPEC_CSV[name]
    params = dict(json.loads((CONFIGS / "point_high_snr.json").read_text()), **overrides)
    spec = {"sweep": sweep, "mechanisms": ["CH", "CD", "HYBRID", "HYBRID_OPT"], "params": params}
    config, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    config.write_text(json.dumps(spec))
    argv = ["sweep", "--config", str(config), "--out", str(out), "--jobs", "1"]
    assert cli.main(argv + ["--exact-threshold"] * (name in SPEC_EXACT_THRESHOLD)) == 0
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("name", sorted(GRID_CSV))
def test_optimize_grid_csv(name, tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["optimize", "--config", str(CONFIGS / name), "--grid-csv", str(out)]
    assert cli.main(argv) == 0
    assert sha256(out.read_bytes()) == GRID_CSV[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_STDOUT))
def test_analyze_stdout(name, capsys):
    assert cli.main(["analyze", "--config", str(CONFIGS / name)]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == ANALYZE_STDOUT[name]


@pytest.mark.parametrize("name,exact", sorted(ANALYZE_JSON))
def test_analyze_json(name, exact, tmp_path):
    out = tmp_path / "report.json"
    argv = ["analyze", "--config", str(CONFIGS / name), "--quiet", "--out", str(out)]
    assert cli.main(argv + ["--exact-threshold"] * exact) == 0
    assert sha256(out.read_bytes()) == ANALYZE_JSON[(name, exact)]


@pytest.mark.parametrize("F", sorted(SIMULATE))
def test_simulate(F, tmp_path, capsys):
    point = dict(json.loads((CONFIGS / "point_high_snr.json").read_text()), F=F)
    config = tmp_path / "point.json"
    config.write_text(json.dumps(point))
    argv = ["simulate", "--config", str(config), "--trials", "16384", "--seed", "1", "--jobs", "1"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    printed = json.dumps([code, captured.out, captured.err])
    assert sha256(printed.encode("utf-8")) == SIMULATE[F]
