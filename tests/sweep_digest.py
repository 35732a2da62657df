"""Byte identity of sweep output between two trees.

For each seed, generates a corpus of sweep specs, runs each spec's argv
through ``crpla.cli.main sweep`` in process, and prints one line ``seed
curve sha256`` with the sha256 of the CSV it wrote, or ``seed curve exit
N: message`` with the first line of stderr when it wrote none.  Two trees
write the same bytes on every sweep of the corpus when the outputs of::

    PYTHONPATH=src python tests/sweep_digest.py --seeds 1-3 > digests.txt

do not differ.  The corpora:

* ``map`` (default): the curves of the ``opt_map_cold`` benchmark
  workload (``bench/workloads.py``, loaded by path and only read).
  ``--variable lambda_ratio`` rewrites each curve as an attacker-ratio
  sweep at one legitimate SNR (see ``as_ratio_curve``), so the same seeds
  also cover lambda_ratio sweeps.
* ``extreme``: ``EXTREME_SWEEPS`` seeded SNR sweeps per seed at edge
  values (see ``extreme_sweeps``), most of which end in an error exit.

The CSV carries 12 significant digits, so it hides a change in the last
bits of a row.  ``--repr`` hashes instead the ``repr`` of every row's
value and report, at full precision; use it to show that no bit moved.

Besides the digests on stdout, one tally line goes to stderr: the sweeps
run, the CSVs written, and the error exits grouped by exit code and the
first three words of their message.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from crpla import cli, sweep

ROOT = Path(__file__).resolve().parent.parent

# Sweeps per seed of the extreme corpus.
EXTREME_SWEEPS = 30


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


def map_sweeps(seed: int, variable: str = "lambda_B_dB") -> tuple[dict[str, str], list]:
    """The ``opt_map_cold`` inputs at ``seed``: (files, argvs), with every
    curve swept over ``variable``."""
    workloads = _load_workloads()
    base = json.loads((ROOT / workloads.BASE_CONFIG).read_text(encoding="utf-8"))
    inputs = workloads.WORKLOADS["opt_map_cold"].inputs(seed, base)
    files = dict(inputs.files)
    if variable == "lambda_ratio":
        files = {
            name: json.dumps(as_ratio_curve(json.loads(text), workloads))
            for name, text in files.items()
        }
    return files, [list(argv) for argv in inputs.calls]


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(low, high)


def extreme_sweeps(seed: int) -> tuple[dict[str, str], list]:
    """``EXTREME_SWEEPS`` seeded lambda_B_dB and lambda_ratio sweeps at edge
    values, as (files, argvs): lambda_B_dB from -3100 to 4000, h_max from
    1e-300 to 1e308, F in {1, 2, 100}, p_FA from 1e-300 to 0.9, h_min at 0,
    -0.0, h_max / 2 or h_max, every mechanism order with HYBRID_OPT, and
    both channel thresholds."""
    rng = random.Random(seed)
    files, calls = {}, []
    for k in range(EXTREME_SWEEPS):
        h_max = min(_log_uniform(rng, -300.0, 308.3), 1e308)
        params = {
            "n": 10,
            "F": rng.choice((1, 2, 100)),
            "alpha": 0.1,
            "b_M": 600,
            "p_FA": min(_log_uniform(rng, -300.0, 0.0), 0.9),
            "lambda_B_dB": round(rng.uniform(-3100.0, 4000.0), 3),
            "lambda_T_over_lambda_B": _log_uniform(rng, -3.0, 1.0),
            "h_min": rng.choice((0.0, -0.0, 0.5 * h_max, h_max)),
            "h_max": h_max,
        }
        variable = rng.choice(("lambda_B_dB", "lambda_ratio"))
        if variable == "lambda_B_dB":
            values = [round(rng.uniform(-3100.0, 4000.0), 3) for _ in range(rng.randint(1, 6))]
        else:
            values = [_log_uniform(rng, -30.0, 30.0) for _ in range(rng.randint(1, 6))]
        mechanisms = rng.sample(("CH", "CD", "HYBRID"), rng.randint(0, 3))
        mechanisms.insert(rng.randint(0, len(mechanisms)), "HYBRID_OPT")
        name = f"extreme_{k:02d}.json"
        files[name] = json.dumps(
            {"sweep": {"variable": variable, "values": values}, "mechanisms": mechanisms,
             "params": params}
        )
        argv = ["sweep", "--config", name, "--out", f"extreme_{k:02d}.csv", "--quiet"]
        calls.append(argv + ["--exact-threshold"] * rng.choice((False, True)))
    return files, calls


@contextlib.contextmanager
def _written_rows():
    """The rows each ``sweep.write_csv`` call writes while in the block."""
    rows: list = []
    write_csv = sweep.write_csv

    def recording(written, variable, path):
        rows.extend(written)
        write_csv(written, variable, path)

    sweep.write_csv = recording
    try:
        yield rows
    finally:
        sweep.write_csv = write_csv


def run_digest(argv: list, full_precision: bool) -> str:
    """sha256 of what ``crpla sweep`` ``argv`` writes, or ``exit N: message``
    with the first stderr line when it exits non-zero."""
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with _written_rows() as rows, contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    if code != 0:
        return f"exit {code}: {(stderr.getvalue().splitlines() or [''])[0]}"
    if not full_precision:
        return hashlib.sha256(out.read_bytes()).hexdigest()
    lines = (repr((value, label, report)) for value, label, report in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(
    seeds, corpus: str = "map", variable: str = "lambda_B_dB", full_precision: bool = False
) -> list[tuple[int, str, str]]:
    """(seed, config name, digest of its output) for every sweep of
    ``corpus`` at each of ``seeds``: the map swept over ``variable``
    (lambda_B_dB as the benchmark runs it, or lambda_ratio), or the
    extreme corpus.  ``full_precision`` hashes the rows' ``repr`` in place
    of the CSV bytes."""
    result = []
    cwd = os.getcwd()
    for seed in seeds:
        files, calls = map_sweeps(seed, variable) if corpus == "map" else extreme_sweeps(seed)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the argvs name paths relative to the work directory
            try:
                for name, text in files.items():
                    Path(name).write_text(text, encoding="utf-8")
                for argv in calls:
                    digest = run_digest(argv, full_precision)
                    result.append((seed, argv[argv.index("--config") + 1], digest))
            finally:
                os.chdir(cwd)
    return result


def map_digests(
    seeds, variable: str = "lambda_B_dB", full_precision: bool = False
) -> list[tuple[int, str, str]]:
    """:func:`digests` of the map corpus."""
    return digests(seeds, "map", variable, full_precision)


def tally(results: list[tuple[int, str, str]]) -> str:
    """One line summing up :func:`digests` ``results``: the sweeps run, the
    CSVs written and the error exits, grouped by their first words."""
    exits = collections.Counter(
        " ".join(digest.split()[:5]) for _s, _n, digest in results if digest.startswith("exit ")
    )
    groups = ", ".join(f'{count} "{words}"' for words, count in exits.most_common())
    written = len(results) - sum(exits.values())
    return f"{len(results)} sweeps, {written} CSVs, {sum(exits.values())} error exits: {groups}"


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 4), help="e.g. 1-3")
    parser.add_argument(
        "--corpus", choices=("map", "extreme"), default="map",
        help="the benchmark's map (default) or the extreme-value sweeps",
    )
    parser.add_argument(
        "--variable", choices=("lambda_B_dB", "lambda_ratio"), default="lambda_B_dB",
        help="swept variable of every map curve (default: the benchmark's lambda_B_dB)",
    )
    parser.add_argument(
        "--repr", action="store_true", dest="full_precision",
        help="hash the repr of every row instead of the CSV bytes",
    )
    args = parser.parse_args()
    results = digests(args.seeds, args.corpus, args.variable, args.full_precision)
    for seed, name, digest in results:
        print(f"{seed} {name} {digest}")
    print(tally(results), file=sys.stderr)


if __name__ == "__main__":
    main()
