"""Seeded CLI fuzz: every input ends in a documented exit and one message.

Each case draws a config at edge values (F up to 5000, p_FA from 1e-300
to 1 - 1e-16, lambda_B_dB from -300 to 3000, h_max from 1e-300 to 1e300,
h_min at 0, -0.0, h_max / 2 or h_max, now and then a key missing or
mistyped, and now and then a sweep spec whose ``params`` or mechanism
entry has the wrong type) and runs one of ``analyze``, ``optimize``, ``sweep`` and
``simulate`` (64 trials) on it through ``crpla.cli.main`` in process,
with and without ``--exact-threshold``.  A case holds when:

* the exit code is one of 0, 1, 2, 3 and no exception escapes ``main``;
* stderr holds any number of ``warning:`` lines and at most one other;
* every CSV written starts with the ``CSV_COLUMNS`` header;
* on exit 0, every b_ch and b_key printed or written is finite and >= 0.

Run as a script to print one line per case that does not hold, then a
count::

    PYTHONPATH=src python tests/cli_fuzz.py --seed 1 --cases 4500
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from crpla import cli
from crpla.sweep import CSV_COLUMNS, SWEEP_VARIABLES

COMMANDS = ("analyze", "optimize", "sweep", "simulate")
EXIT_CODES = (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_VALIDATION)
_PRINTED_BITS = re.compile(r"b_ch=\s*(\S+) b_key=\s*(\S+)")
# The files a case reads and writes, named in its argv relative to its work directory.
_FILE_NAMES = ("input.json", "out.csv", "out.json", "grid.csv")
# Wrong-typed sweep spec entries, and the share of sweep cases that get one.
_WRONG_TYPED = (
    ("params", 5), ("params", "n"), ("params", None), ("params", [{"n": 1}]),
    ("mechanisms", [{"a": 1}]), ("mechanisms", [["CH"]]),
)  # fmt: skip
_WRONG_TYPED_SHARE = 0.1


@dataclass(frozen=True)
class Case:
    """One CLI call: its argv, with paths relative to the work directory,
    and the JSON text of the ``input.json`` it reads."""

    argv: tuple[str, ...]
    config: str


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(low, high)


def fuzz_config(rng: random.Random) -> dict:
    """A point config at edge values; about one in ten is malformed."""
    h_max = _log_uniform(rng, -300.0, 300.0)
    config = {
        "n": rng.choice((1, 2, 10)),
        "F": rng.choice((1, 2, 100, rng.randint(1, 5000))),
        "alpha": rng.choice((0.0, 0.1, 0.5, 1.0)),
        "b_M": rng.choice((0, 600)),
        "p_FA": rng.choice((1e-300, 1.0 - 1e-16, 1e-7, _log_uniform(rng, -300.0, 0.0))),
        "lambda_B_dB": rng.uniform(-300.0, 3000.0),
        "lambda_T_over_lambda_B": _log_uniform(rng, -3.0, 1.0),
        "h_min": rng.choice((0.0, -0.0, 0.5 * h_max, h_max)),
        "h_max": h_max,
    }
    if rng.random() < 0.1:
        key = rng.choice(sorted(config))
        if rng.random() < 0.5:
            del config[key]
        else:
            config[key] = rng.choice(("x", None, -1, [1.0]))
    return config


def _sweep_values(rng: random.Random, variable: str, config: dict) -> list:
    count = rng.randint(1, 4)
    if variable == "h_min":
        h_max = config.get("h_max", 1.0)
        h_max = h_max if isinstance(h_max, float) else 1.0
        return [rng.choice((0.0, -0.0, 0.5, 1.0, 1.5)) * h_max for _ in range(count)]
    if variable == "lambda_ratio":
        return [_log_uniform(rng, -3.0, 3.0) for _ in range(count)]
    if variable == "lambda_B_dB":
        return [rng.uniform(-300.0, 3000.0) for _ in range(count)]
    if variable == "F":
        return [rng.choice((1, 2, 2.5, 100, rng.randint(1, 5000))) for _ in range(count)]
    return [rng.choice((0.0, 0.1, 0.5, 0.95, 1.0)) for _ in range(count)]


def fuzz_case(rng: random.Random, mutator: random.Random | None = None) -> Case:
    """One seeded call of a random command on a fuzzed config; ``mutator``,
    when given, gives some sweep specs a wrong-typed entry without drawing
    from ``rng``."""
    command = rng.choice(COMMANDS)
    config = fuzz_config(rng)
    argv = [command, "--config", "input.json"]
    if command == "sweep":
        variable = rng.choice(SWEEP_VARIABLES)
        mechanisms = rng.sample(("CH", "CD", "HYBRID", "HYBRID_OPT"), rng.randint(1, 4))
        sweep = {"variable": variable, "values": _sweep_values(rng, variable, config)}
        config = {"sweep": sweep, "mechanisms": mechanisms, "params": config}
        if mutator is not None and mutator.random() < _WRONG_TYPED_SHARE:
            key, value = mutator.choice(_WRONG_TYPED)
            config[key] = value
        argv += ["--out", "out.csv"]
    elif command == "analyze":
        argv += ["--out", "out.json"]
    elif command == "optimize" and rng.random() < 0.5:
        argv += ["--grid-csv", "grid.csv"]
    elif command == "simulate":
        argv += ["--trials", "64", "--seed", str(rng.randrange(1000)), "--jobs", "1"]
    if rng.random() < 0.5:
        argv.append("--exact-threshold")
    return Case(tuple(argv), json.dumps(config))


def fuzz_cases(seed: int, count: int) -> list[Case]:
    rng, mutator = random.Random(seed), random.Random(f"{seed}/wrong-typed")
    return [fuzz_case(rng, mutator) for _ in range(count)]


def _written_bits(workdir: Path, code: int, stdout: str) -> tuple[list[str], list[float]]:
    """Problems with the files the call wrote, and every b_ch and b_key it
    printed or wrote."""
    problems, bits = [], []
    for match in _PRINTED_BITS.finditer(stdout):
        bits += [float(match[1]), float(match[2])]
    for name in ("out.csv", "grid.csv"):
        path = workdir / name
        if not path.exists():
            continue
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        if not rows or tuple(rows[0]) != CSV_COLUMNS:
            problems.append(f"{name} header is {rows[:1]}")
            continue
        b_ch, b_key = CSV_COLUMNS.index("b_ch"), CSV_COLUMNS.index("b_key")
        bits += [float(row[column]) for row in rows[1:] for column in (b_ch, b_key)]
    report = workdir / "out.json"
    if code == cli.EXIT_OK and report.exists():
        for entry in json.loads(report.read_text(encoding="utf-8"))["reports"].values():
            if entry is not None:
                bits += [math.nan if entry[k] is None else entry[k] for k in ("b_ch", "b_key")]
    return problems, bits


def check_case(case: Case) -> list[str]:
    """Run ``case`` in a fresh work directory; the ways it does not hold."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "input.json").write_text(case.config, encoding="utf-8")
        argv = [str(workdir / a) if a in _FILE_NAMES else a for a in case.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the finding
            return [f"{type(exc).__name__} escaped cli.main: {exc}"]
        problems = [] if code in EXIT_CODES else [f"exit code {code!r}"]
        others = [line for line in stderr.getvalue().splitlines() if not line.startswith("warning:")]
        if len(others) > 1:
            problems.append(f"{len(others)} stderr lines besides warnings: {others[:3]}")
        file_problems, bits = _written_bits(workdir, code, stdout.getvalue())
        problems += file_problems
        if code == cli.EXIT_OK and not all(math.isfinite(b) and b >= 0.0 for b in bits):
            problems.append(f"exit 0 with bits {bits}")
        return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=400)
    args = parser.parse_args()
    failing = 0
    for k, case in enumerate(fuzz_cases(args.seed, args.cases)):
        problems = check_case(case)
        if problems:
            failing += 1
            print(f"case {k}: {' '.join(case.argv)} {case.config}: {'; '.join(problems)}")
    print(f"{failing} of {args.cases} cases failed")


if __name__ == "__main__":
    main()
