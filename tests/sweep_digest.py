"""Byte identity of the benchmark's sweep map between two trees.

For each seed, generates the curves of the ``opt_map_cold`` benchmark
workload (``bench/workloads.py``, loaded by path and only read), runs
each curve's own argv through ``crpla.cli.main sweep`` in process, and
prints one line ``seed curve sha256`` with the sha256 of the CSV it
wrote, or ``seed curve exit N`` when it wrote none.  Two trees write the
same bytes on every map curve when the outputs of::

    PYTHONPATH=src python tests/sweep_digest.py --seeds 1-3 > digests.txt

do not differ.  ``--variable lambda_ratio`` rewrites each curve as an
attacker-ratio sweep at one legitimate SNR (see ``as_ratio_curve``), so
the same seeds also cover lambda_ratio sweeps.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from crpla import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def as_ratio_curve(curve: dict, workloads) -> dict:
    """The lambda_B_dB map curve ``curve`` as a lambda_ratio sweep: its dB
    values, mapped linearly from the map's dB range onto its ratio range,
    become the swept ratios, and its ratio, mapped the other way, becomes
    the legitimate SNR in dB."""
    (db_low, db_high), (ratio_low, ratio_high) = workloads.DB_RANGE, workloads.RATIO_RANGE
    scale = (ratio_high - ratio_low) / (db_high - db_low)
    params = dict(curve["params"])
    ratio = params.pop("lambda_T_over_lambda_B")
    params["lambda_B_dB"] = round(db_low + (ratio - ratio_low) / scale, 6)
    params["lambda_T_over_lambda_B"] = 1.0  # only scales lambda_T; every value replaces it
    values = [round(ratio_low + (db - db_low) * scale, 6) for db in curve["sweep"]["values"]]
    return dict(curve, sweep={"variable": "lambda_ratio", "values": values}, params=params)


def map_digests(seeds, variable: str = "lambda_B_dB") -> list[tuple[int, str, str]]:
    """(seed, curve config name, sha256 of its CSV or ``exit N``) for
    every curve of the map at each of ``seeds``, swept over ``variable``
    (lambda_B_dB as the benchmark runs it, or lambda_ratio)."""
    workloads = _load_workloads()
    base = json.loads((ROOT / workloads.BASE_CONFIG).read_text(encoding="utf-8"))
    digests = []
    cwd = os.getcwd()
    for seed in seeds:
        inputs = workloads.WORKLOADS["opt_map_cold"].inputs(seed, base)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the workload's paths are relative to its work directory
            try:
                for name, text in inputs.files.items():
                    if variable == "lambda_ratio":
                        text = json.dumps(as_ratio_curve(json.loads(text), workloads))
                    Path(name).write_text(text, encoding="utf-8")
                for argv in inputs.calls:
                    out = Path(argv[argv.index("--out") + 1])
                    out.unlink(missing_ok=True)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(list(argv))
                    ok = code == 0
                    digest = hashlib.sha256(out.read_bytes()).hexdigest() if ok else f"exit {code}"
                    digests.append((seed, argv[argv.index("--config") + 1], digest))
            finally:
                os.chdir(cwd)
    return digests


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 4), help="e.g. 1-3")
    parser.add_argument(
        "--variable", choices=("lambda_B_dB", "lambda_ratio"), default="lambda_B_dB",
        help="swept variable of every curve (default: the benchmark's lambda_B_dB)",
    )
    args = parser.parse_args()
    for seed, curve, digest in map_digests(args.seeds, args.variable):
        print(f"{seed} {curve} {digest}")


if __name__ == "__main__":
    main()
