"""Interleaved in-process A/B of ``crpla simulate`` on two source trees.

    python tests/kernel_ab.py BASE_ROOT NEW_ROOT [--F 100 1000] [--rounds 200]

Both trees run in one interpreter, call after call, so a change in the
host's speed, which can reach 1.5x over minutes, weighs on both alike;
separate processes run minutes apart cannot tell a 15% change from it.
BASE_ROOT/src/crpla is imported as ``crpla`` and NEW_ROOT/src/crpla as
``crpla_ab``, through a symlink in a temporary directory that is removed
at exit (the package imports its own modules relatively).

Every call is the benchmark's: ``cli.main`` on the shipped point
(configs/point_high_snr.json of BASE_ROOT) at each F, 2^14 trials, one
seed, ``--jobs 1``, with stdout and stderr captured.  Each round runs
both trees once in alternating order.  Per F the script prints, for each
tree, the median and 90th percentile call time and the minor page faults
(``ru_minflt``) per call, the NEW/BASE ratios of both times, and whether
every pair of calls printed the same bytes.

``--rss-calls N`` (default 600) then starts one fresh interpreter per
tree and F that makes N calls and keeps every call's output, as
bench/worker.py does, and prints its peak resident set (``ru_maxrss``)
and its resident set after the last call, the steady state that a
scratch buffer held between calls adds to.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TRIALS = 1 << 14  # the benchmark's trials per check
ALIAS = "crpla_ab"


def quantile(samples, q: float) -> float:
    """The q-quantile of ``samples``, interpolating linearly between order statistics."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    low = int(pos)
    high = min(low + 1, len(xs) - 1)
    return xs[low] + (xs[high] - xs[low]) * (pos - low)


def write_config(root: Path, F: int, directory: str) -> str:
    """The shipped point at ``F``, written to ``directory``; its path."""
    config = json.loads((root / "configs" / "point_high_snr.json").read_text(encoding="utf-8"))
    path = os.path.join(directory, f"point_f{F}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(config, F=F), fh)
    return path


def call(cli, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, minor page faults, captured output) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds, faults, f"{code}\0{out.getvalue()}\0{err.getvalue()}"


def simulate_argv(config: str, seed: int) -> list[str]:
    argv = ["simulate", "--config", config, "--trials", str(TRIALS), "--seed", str(seed)]
    return argv + ["--jobs", "1"]


def interleaved(clis: dict, configs: dict, rounds: int, warmup: int, seed: int) -> None:
    for F, config in configs.items():
        argv = simulate_argv(config, seed)
        times = {side: [] for side in clis}
        faults = {side: [] for side in clis}
        same = True
        for r in range(warmup + rounds):
            order = list(clis) if r % 2 == 0 else list(reversed(clis))
            outputs = {}
            for side in order:
                seconds, minflt, outputs[side] = call(clis[side], argv)
                if r >= warmup:
                    times[side].append(seconds)
                    faults[side].append(minflt)
            same = same and len(set(outputs.values())) == 1
        stats = {
            side: (statistics.median(xs) * 1e3, quantile(xs, 0.9) * 1e3)
            for side, xs in times.items()
        }
        print(f"F={F}: {rounds} rounds, outputs {'identical' if same else 'DIFFER'}")
        for side in clis:
            median, p90 = stats[side]
            print(
                f"  {side:<4} median {median:7.3f} ms  p90 {p90:7.3f} ms  "
                f"minflt/call {statistics.mean(faults[side]):7.1f}"
            )
        base, new = stats["base"], stats["new"]
        print(f"  new/base median {new[0] / base[0]:.3f}  p90 {new[1] / base[1]:.3f}")


def rss_only(root: Path, F: int, calls: int, seed: int) -> None:
    """Peak and final RSS (MiB) of ``calls`` calls of ``root``'s CLI that keep their output."""
    sys.path.insert(0, str(root / "src"))
    import crpla.cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = simulate_argv(write_config(root, F, tmp), seed)
        records = [call(crpla.cli, argv) for _ in range(calls)]
    assert len(records) == calls
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, resident)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--F", type=int, nargs="+", default=[100, 1000])
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rss-calls", type=int, default=600, help="0 skips the RSS runs")
    parser.add_argument("--rss-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    base = args.base.resolve()
    if args.rss_only:
        rss_only(base, args.F[0], args.rss_calls, args.seed)
        return
    if args.new is None:
        parser.error("NEW_ROOT is required")
    new = args.new.resolve()

    alias_dir = tempfile.mkdtemp()
    try:
        os.symlink(new / "src" / "crpla", os.path.join(alias_dir, ALIAS))
        sys.path.insert(0, str(base / "src"))
        sys.path.insert(0, alias_dir)
        clis = {
            "base": importlib.import_module("crpla.cli"),
            "new": importlib.import_module(f"{ALIAS}.cli"),
        }
        for side, root in (("base", base), ("new", new)):
            source = Path(clis[side].__file__).resolve().parent
            if source != (root / "src" / "crpla").resolve():
                sys.exit(f"error: {side} imported from {source}")
        with tempfile.TemporaryDirectory() as tmp:
            configs = {F: write_config(base, F, tmp) for F in args.F}
            interleaved(clis, configs, args.rounds, args.warmup, args.seed)
    finally:
        shutil.rmtree(alias_dir)

    if args.rss_calls:
        for F in args.F:
            peaks, resident = {}, {}
            for side, root in (("base", base), ("new", new)):
                cmd = [sys.executable, __file__, str(root), "--rss-only", "--F", str(F)]
                cmd += ["--rss-calls", str(args.rss_calls), "--seed", str(args.seed)]
                env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
                proc = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
                peaks[side], resident[side] = map(float, proc.stdout.split())
            for name, rss in (("peak", peaks), ("final", resident)):
                print(
                    f"F={F}: {name} RSS after {args.rss_calls} calls: base {rss['base']:.2f} MiB, "
                    f"new {rss['new']:.2f} MiB ({rss['new'] - rss['base']:+.2f})"
                )


if __name__ == "__main__":
    main()
