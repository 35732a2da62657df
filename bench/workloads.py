"""Benchmark workloads and the inputs each one generates from its seed.

Inputs are a pure function of (workload, seed, base config): the same
seed gives the same files and the same CLI calls, byte for byte, and
``Inputs.sha256`` lets two runs show that they measured the same inputs.
This module imports nothing from crpla, so it works before the program is
even known to be importable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

BASE_CONFIG = "configs/point_high_snr.json"  # n=10, F=100, 50 dB, 1 pilot per frame

# The map cycles through MAP_CURVES curves.  All dB values differ, and one
# cycle (384 points) is far longer than the 40 points the 4096-entry moment
# cache can hold, so every optimize in a run starts from a cold cache.
MAP_CURVES = 128
POINTS_PER_CURVE = 3
DB_RANGE = (10.0, 50.0)
RATIO_RANGE = (0.05, 0.95)
MAP_MECHANISMS = ("CH", "CD", "HYBRID", "HYBRID_OPT")

MC_TRIALS = 1 << 14  # one full 2^14-trial block per check at the seed commit
SIMULATE_CHECKS = 3  # false alarm, attack success, pilot estimation


@dataclass(frozen=True)
class Inputs:
    """Files to write into the work directory and the CLI argv lists to run."""

    files: dict[str, str]
    calls: tuple[tuple[str, ...], ...]

    def sha256(self) -> str:
        payload = json.dumps({"files": self.files, "calls": self.calls}, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    F: int | None  # None for the analytic map, the Monte Carlo F otherwise
    trace_ops_per_second: float  # CLI calls of a traced run per second of --seconds

    @property
    def is_map(self) -> bool:
        return self.F is None

    def trace_ops(self, seconds: int) -> int:
        return max(1, round(seconds * self.trace_ops_per_second))

    def inputs(self, seed: int, base: dict) -> Inputs:
        if self.is_map:
            curves = map_curves(seed, base)
            files = {f"curve{i:03d}.json": _dump(c) for i, c in enumerate(curves)}
            calls = tuple(
                ("sweep", "--config", name, "--out", "curve.csv", "--jobs", "1") for name in files
            )
            return Inputs(files, calls)
        argv = (
            "simulate", "--config", "point.json", "--trials", str(MC_TRIALS),
            "--seed", str(seed), "--jobs", "1",
        )  # fmt: skip
        return Inputs({"point.json": _dump(dict(base, F=self.F))}, (argv,))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("opt_map_cold", None, 5.0),
        Workload("mc_f100", 100, 2.0),
        Workload("mc_f1000", 1000, 0.25),
    )
}


def map_curves(seed: int, base: dict) -> list[dict]:
    """Sweep specs of the seeded design map: lambda_B_dB curves at one attacker ratio each."""
    rng = random.Random(seed)
    seen: set[float] = set()
    curves = []
    for _ in range(MAP_CURVES):
        values: list[float] = []
        while len(values) < POINTS_PER_CURVE:
            db = round(rng.uniform(*DB_RANGE), 6)
            if db not in seen:
                seen.add(db)
                values.append(db)
        ratio = round(rng.uniform(*RATIO_RANGE), 6)
        curves.append(
            {
                "sweep": {"variable": "lambda_B_dB", "values": values},
                "mechanisms": list(MAP_MECHANISMS),
                "params": dict(base, lambda_T_over_lambda_B=ratio),
            }
        )
    return curves


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"
