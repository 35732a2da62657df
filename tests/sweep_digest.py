"""Byte identity of the benchmark's sweep map between two trees.

For each seed, generates the curves of the ``opt_map_cold`` benchmark
workload (``bench/workloads.py``, loaded by path and only read), runs
each curve's own argv through ``crpla.cli.main sweep`` in process, and
prints one line ``seed curve sha256`` with the sha256 of the CSV it
wrote, or ``seed curve exit N`` when it wrote none.  Two trees write the
same bytes on every map curve when the outputs of::

    PYTHONPATH=src python tests/sweep_digest.py --seeds 1-3 > digests.txt

do not differ.
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


def map_digests(seeds) -> list[tuple[int, str, str]]:
    """(seed, curve config name, sha256 of its CSV or ``exit N``) for
    every curve of the map at each of ``seeds``."""
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
    args = parser.parse_args()
    for seed, curve, digest in map_digests(args.seeds):
        print(f"{seed} {curve} {digest}")


if __name__ == "__main__":
    main()
