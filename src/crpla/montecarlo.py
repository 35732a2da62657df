"""Seeded Monte Carlo measurements of the analytic security quantities.

Three measurements are provided: symbol-level pilot estimation (the
estimator's mean and variance), legitimate-traffic false alarms (against
the exact chi-square law), and geometric attack success (against the
volume-ratio success probability).  They return counts and moments;
judging them against the analytic values is left to ``crpla simulate``.

Reproducibility scheme
----------------------
Trials are partitioned into fixed blocks of ``BLOCK_TRIALS`` = 2**14.
Block ``b`` of run ``seed`` draws from ``Philox(key=seed).jumped(b)``
(the Philox 4x64-10 counter-based generator, counter advanced by
b * 2**128), and the draw order inside a block is fixed.  Every trial's
outcome is therefore a pure function of (seed, trials); per-block partial
results are reduced in block order, so counts, means, and variances are
bit-identical no matter how many workers participate.

Draw order inside a block (one row per trial, rows in trial order):

* false alarm: F standard normals, the scaled residuals (h_hat - h)/sigma
  themselves; the challenge h cancels from the statistic and is not drawn;
* attack: 2F uniforms, the challenge h in the first F columns and the
  guess a in the last F; each signed amplitude comes from one uniform u
  as copysign(h_min + |v| * (h_max - h_min), v) with v = 2u - 1;
* pilot estimation: the pilot phases, then the real and the imaginary
  noise parts, each as one (rows, pilot_count) array.

The false-alarm and attack blocks are processed in row tiles of at most
``TILE_BYTES`` of draws.  A tile takes the next rows of the block's
stream, so the tiles concatenate to the whole-block draw and every count
is independent of the tile size; memory per worker stays bounded as F
grows.  This draw order is version 2 of the reproducibility contract:
the false-alarm and attack streams differ from version 1, which drew h
for false alarms and one uniform plus one integer sign per amplitude.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import channel
from .params import SystemParams

__all__ = [
    "BLOCK_TRIALS",
    "TrialBatch",
    "EstimatorMoments",
    "simulate_pilot_estimation",
    "measure_false_alarm",
    "measure_attack_success",
    "wilson_interval",
]

BLOCK_TRIALS = 1 << 14
# Draws held at once per block; the attack's amplitudes add as much again,
# so a tile's working set stays within a 2 MiB per-core L2 cache.
TILE_BYTES = 1 << 20
_SEED_MASK = (1 << 64) - 1


def _block_rng(seed: int, block: int) -> Generator:
    return Generator(Philox(key=seed & _SEED_MASK).jumped(block))


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(block index, trials in block) covering ``trials`` draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    full, rest = divmod(trials, BLOCK_TRIALS)
    out = [(b, BLOCK_TRIALS) for b in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _tile_buffer(rows: int, cols: int) -> np.ndarray:
    """Reusable tile of at most ``TILE_BYTES`` of float64 draws, and at least one row.

    ``buffer[: rows - start]`` is then the tile that starts at row
    ``start`` of a block.
    """
    return np.empty((min(rows, max(1, TILE_BYTES // (8 * cols))), cols))


def _map_blocks(fn: Callable, tasks: Sequence[tuple], jobs: int) -> Iterable:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z standard errors."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)) / denom
    # The exact endpoints are 0 and 1 at the degenerate counts; rounding in
    # the expressions above must not exclude the point estimate.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class TrialBatch:
    """Outcome counts of one seeded measurement with 3-sigma Wilson bounds."""

    trials: int
    successes: int
    estimate: float
    wilson_3sigma_low: float
    wilson_3sigma_high: float
    seed: int

    @classmethod
    def from_counts(cls, trials: int, successes: int, seed: int) -> "TrialBatch":
        low, high = wilson_interval(successes, trials)
        return cls(
            trials=trials,
            successes=successes,
            estimate=successes / trials,
            wilson_3sigma_low=low,
            wilson_3sigma_high=high,
            seed=seed,
        )

    def contains(self, value: float) -> bool:
        return self.wilson_3sigma_low <= value <= self.wilson_3sigma_high


@dataclass(frozen=True)
class EstimatorMoments:
    """Sample mean and variance of the pilot-based amplitude estimator."""

    mean: float
    variance: float
    trials: int
    seed: int


def _signed_amplitudes(
    u: np.ndarray, h_min: float, h_max: float, out: np.ndarray | None = None
) -> np.ndarray:
    """copysign(h_min + |v| * (h_max - h_min), v) with v = 2u - 1, from uniforms u.

    ``u`` is overwritten.  u - 1/2 = v/2 is exact and carries v's sign, and
    doubling the span instead of v gives the same bits with one pass less.
    """
    u -= 0.5
    amplitude = np.abs(u, out=out)
    amplitude *= 2.0 * (h_max - h_min)
    amplitude += h_min
    return np.copysign(amplitude, u, out=amplitude)


# --- pilot estimation -------------------------------------------------------


def _pilot_block(task: tuple) -> tuple[float, float]:
    seed, block, rows, h, sigma_b, pilots = task
    rng = _block_rng(seed, block)
    phase = rng.uniform(0.0, 2.0 * math.pi, (rows, pilots))
    x = np.exp(1j * phase)
    w = sigma_b * (rng.standard_normal((rows, pilots)) + 1j * rng.standard_normal((rows, pilots)))
    estimates = np.mean(((h * x + w) / x).real, axis=1)
    # Accumulate around the known center h: the raw sum of squares would
    # cancel catastrophically once the noise is much smaller than h.
    delta = estimates - h
    return float(np.sum(delta)), float(np.sum(delta * delta))


def simulate_pilot_estimation(
    h: float,
    lambda_b: float,
    pilot_count: int,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> EstimatorMoments:
    """Symbol-level simulation of the per-frame amplitude estimator.

    Each trial transmits ``pilot_count`` unit-modulus random-phase pilots
    through amplitude ``h`` plus complex Gaussian noise and averages the
    real part of y/x.  The noise is drawn with per-quadrature variance
    1/lambda_B, which makes the estimate exactly N(h, 1/(lambda_B *
    pilot_count)); the sample moments returned let callers verify that
    law.  Unit-modulus pilots (rather than Gaussian ones) avoid the
    heavy-tailed division by near-zero symbols while leaving the
    estimator's distribution unchanged.
    """
    if pilot_count < 1:
        raise ValueError("pilot_count must be >= 1")
    sigma_b = 1.0 / math.sqrt(lambda_b)
    tasks = [
        (seed, block, rows, float(h), sigma_b, pilot_count) for block, rows in _blocks(trials)
    ]
    partial = _map_blocks(_pilot_block, tasks, jobs)
    total = 0.0
    total_sq = 0.0
    for s, s2 in partial:  # fixed block order keeps the reduction bit-stable
        total += s
        total_sq += s2
    delta_mean = total / trials
    variance = (
        (total_sq - trials * delta_mean * delta_mean) / (trials - 1) if trials > 1 else 0.0
    )
    return EstimatorMoments(mean=h + delta_mean, variance=variance, trials=trials, seed=seed)


# --- false alarms on legitimate traffic -------------------------------------


def _false_alarm_block(task: tuple) -> int:
    seed, block, rows, F, tau = task
    rng = _block_rng(seed, block)
    buffer = _tile_buffer(rows, F)
    rejections = 0
    for start in range(0, rows, len(buffer)):
        residual = rng.standard_normal(out=buffer[: rows - start])
        stat = (np.einsum("ij,ij->i", residual, residual) - F) / math.sqrt(2.0 * F)
        rejections += int(np.count_nonzero(stat > tau))
    return rejections


def measure_false_alarm(
    params: SystemParams, tau: float, trials: int, seed: int, jobs: int = 1
) -> TrialBatch:
    """Rejection rate of legitimate traffic at threshold ``tau``.

    Per trial: draw the F scaled estimation residuals (h_hat - h)/sigma,
    which are standard normal whatever the challenge, and count statistics
    exceeding the threshold.  The estimate converges to the exact
    chi-square tail, not to the asymptotic normal one.
    """
    tasks = [(seed, block, rows, params.F, tau) for block, rows in _blocks(trials)]
    rejections = sum(_map_blocks(_false_alarm_block, tasks, jobs))
    return TrialBatch.from_counts(trials, rejections, seed)


# --- geometric attack success ------------------------------------------------


def _attack_block(task: tuple) -> int:
    seed, block, rows, F, h_min, h_max, radius_sq = task
    rng = _block_rng(seed, block)
    draws = _tile_buffer(rows, 2 * F)
    amplitudes = np.empty_like(draws)
    successes = 0
    for start in range(0, rows, len(draws)):
        rest = rows - start
        row = _signed_amplitudes(  # challenge h | guess a
            rng.random(out=draws[:rest]), h_min, h_max, out=amplitudes[:rest]
        )
        d = np.subtract(row[:, F:], row[:, :F], out=row[:, F:])
        successes += int(np.count_nonzero(np.einsum("ij,ij->i", d, d) <= radius_sq))
    return successes


def measure_attack_success(
    params: SystemParams, tau: float, trials: int, seed: int, jobs: int = 1
) -> TrialBatch:
    """Empirical success rate of the guessing attack at threshold ``tau``.

    The attack injects its guess noiselessly, so success is the exact
    inequality sum((a_k - h_k)^2) <= radius^2 with no re-noising; the
    radius comes from ``tau`` and sigma_h^2, not from the geometry under
    test.  Zero successes raise nothing: the caller judges the count.
    """
    var = channel.sigma_h_sq(params)
    chi = math.sqrt(2.0 * params.F) * tau + params.F
    radius_sq = max(chi, 0.0) * var
    tasks = [
        (seed, block, rows, params.F, params.h_min, params.h_max, radius_sq)
        for block, rows in _blocks(trials)
    ]
    successes = sum(_map_blocks(_attack_block, tasks, jobs))
    return TrialBatch.from_counts(trials, successes, seed)
