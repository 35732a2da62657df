"""Seeded Monte Carlo measurements of the analytic security quantities.

Three measurements are provided: symbol-level pilot estimation (the
estimator's mean and variance), legitimate-traffic false alarms (against
the exact chi-square law), and the geometric attack success of the
centre guess (against the volume-ratio success probability, which it
reaches while the ball fits in the admissible set).  They return counts
and moments; judging them against the analytic values is left to
``crpla simulate``.

Reproducibility scheme
----------------------
Trials are partitioned into fixed blocks of ``BLOCK_TRIALS`` = 2**14.
Block ``b`` of run ``seed`` draws from the SFC64 generator seeded by
``SeedSequence(seed mod 2**64, spawn_key=(b,))``, numpy's way to make
independent parallel streams; the pilot kernel uses the two child streams
``spawn_key=(b, 0)`` and ``(b, 1)``, and the attack kernel the child
stream ``(b, 1)``.  ``_block_rng`` is the only place a generator is made.
The draw order inside a block is fixed, so every trial's outcome is a
pure function of (seed, trials); per-block partial results are reduced
in block order, so counts, means, and variances are bit-identical no
matter how many workers participate.

Draw order inside a block (one row per trial, rows in trial order):

* false alarm: one chi-square variate with F degrees of freedom,
  ``Generator.chisquare(F)``, the energy of the F scaled residuals
  (h_hat - h)/sigma; neither the residuals nor the challenge h, which
  cancels from the statistic, are drawn;
* attack: a head of k = min(F, ``HEAD_COLUMNS``) coordinates of the
  challenge h, k uniforms from the block's stream.  Only a row whose head
  distance is within the radius draws its tail, the other F - k
  coordinates, from child stream 1, in the order of those rows; the
  stream is made when a block first needs it.  Each signed amplitude
  comes from one uniform u as copysign(h_min + |v| * (h_max - h_min), v)
  with v = 2u - 1.  No guess is drawn: the guess is the fixed point
  (c, ..., c), with c = h_min + (h_max - h_min)/2 when h_min > 0 and
  c = 0 when h_min = 0, and a coordinate's distance is h_k - c.  The
  admissible set is symmetric in every sign, so this guess succeeds with
  the law of the centre guess c * sigma of a random sign pattern sigma.
  A row succeeds when head + tail, rounded once, is at most radius *
  radius.  The tail adds squares and rounding is monotone, so a head
  beyond the radius decides the row exactly;
* pilot estimation: pilot_count uniforms, the pilot phases over 2*pi,
  from child stream 0, and 2 * pilot_count standard normals, the real
  then the imaginary noise parts, from child stream 1.  A pilot's
  estimate is computed as h + w_r cos(theta) + w_i sin(theta), which is
  Re(y/x) for the unit-modulus pilot x = exp(i theta), and a row averages
  its pilots; no symbol is formed or divided.

Two rules skip arithmetic whose outcome is already known; neither skips
a draw, so neither touches the streams.

* Sign rule (attack).  Let gap = fl(h_min + c).  A coordinate whose
  uniform is below 1/2 is negative, h_k = -a with a = fl(h_min + |v| *
  (h_max - h_min)) >= h_min, so |h_k - c| = fl(a + c) >= gap and its
  square is at least fl(gap * gap).  When h_min > 0 and fl(gap * gap) >
  radius^2, a row with any such coordinate is beyond the radius exactly:
  rounding is monotone, and a rounded sum of non-negative terms is at
  least each of its terms.  The kernel then transforms only the head
  rows whose k uniforms are all at least 1/2, and only the drawn tails
  whose first ``HEAD_COLUMNS`` uniforms are, keeping row order.  At
  h_min = 0 the guess is the origin, no sign is wrong, and the rule is off.
* Phase fold (pilot).  With s = 1/2 - u, theta = 2 pi u = pi - 2 pi s;
  s and b = |s| - 1/4 in [-1/4, 1/4] are exact, and cos(theta) =
  sin(2 pi b), sin(theta) = copysign(cos(2 pi b), s).  The libm
  calls see arguments within pi/2, where they need no range reduction,
  and the result is at least as accurate as cos and sin of fl(2 pi u).

The attack and pilot kernels walk their block in row tiles of at most
``TILE_BYTES`` of draws.  A tile takes the next rows of each stream, so
the tiles concatenate to the whole-block draw and every count, and every
per-row pilot estimate, is independent of the tile size; memory per
worker stays bounded as F and pilot_count grow.

This is version 6 of the reproducibility contract; its results are
pinned by ``tests/test_montecarlo.py::TestStreamContract``.  The gamma
sampler behind ``chisquare`` calls the platform's ``log`` (and ``pow`` at
F = 1), so a false-alarm count, like a pilot moment through ``cos`` and
``sin``, can differ where libm rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

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
# Draws held at once per block by the attack and pilot kernels; the
# attack's amplitudes add as much again, so its working set stays within a
# 2 MiB per-core L2 cache.  Attack head tiles take an eighth of it.  The
# pilot kernel's phases and folded phases add one tile.  The false-alarm
# kernel draws one value per row and walks no tiles.
TILE_BYTES = 1 << 20
# Coordinates of h in an attack row's head; a row whose head is already
# outside the radius draws no tail.
HEAD_COLUMNS = 8
# A row of HEAD_COLUMNS true flags viewed as one 64-bit word.
_ALL_FLAGS = np.frombuffer(b"\x01" * HEAD_COLUMNS, dtype=np.uint64)[0]
# SeedSequence takes no negative entropy; a negative seed is read as its
# 64-bit two's complement.
_SEED_MASK = (1 << 64) - 1


def _block_rng(seed: int, *spawn_key: int) -> Generator:
    """The stream of block ``spawn_key[0]`` of run ``seed``, or of one of its children."""
    return Generator(SFC64(SeedSequence(seed & _SEED_MASK, spawn_key=spawn_key)))


def _blocks(trials: int) -> list[tuple[int, int]]:
    """(block index, trials in block) covering ``trials`` draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    full, rest = divmod(trials, BLOCK_TRIALS)
    out = [(b, BLOCK_TRIALS) for b in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _tile_rows(rows: int, cols: int, share: int = 1) -> int:
    """Rows of ``cols`` float64 draws in a tile of ``TILE_BYTES // share``
    bytes: at least one, and at most the block's ``rows``."""
    return min(rows, max(1, TILE_BYTES // share // (8 * cols)))


def _map_blocks(block_fn: Callable[[int, int], object], trials: int, jobs: int) -> list:
    """``block_fn(block, rows)`` for every block of ``trials``, in block order."""
    blocks = _blocks(trials)
    if jobs <= 1 or len(blocks) <= 1:
        return [block_fn(block, rows) for block, rows in blocks]
    # imported here: concurrent.futures imports logging, which no serial run needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(block_fn, *zip(*blocks)))


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


def _pilot_block(
    seed: int, block: int, rows: int, h: float, sigma_b: float, pilots: int
) -> tuple[float, float]:
    phase_rng = _block_rng(seed, block, 0)
    noise_rng = _block_rng(seed, block, 1)
    noise = np.empty((_tile_rows(rows, 2 * pilots), 2 * pilots))  # real | imaginary parts
    phase = np.empty((len(noise), pilots))
    folded = np.empty_like(phase)
    # Each row's estimate less h, the mean of Re(y/x) - h = w_r cos(theta)
    # + w_i sin(theta) over its pilots: accumulating around the known
    # center h keeps the sum of squares from cancelling once the noise is
    # much smaller than h.
    deviations = np.empty(rows)
    for start in range(0, rows, len(noise)):
        w = noise_rng.standard_normal(out=noise[: rows - start])
        w *= sigma_b
        tile = len(w)
        w_r, w_i = w[:, :pilots], w[:, pilots:]
        # The phase folded into [-pi/2, pi/2] (module docstring): with
        # s = 1/2 - u and x = 2 pi (|s| - 1/4), cos(theta) = sin(x) and
        # sin(theta) = copysign(cos(x), s).
        s = np.subtract(0.5, phase_rng.random(out=phase[:tile]), out=phase[:tile])
        x = np.abs(s, out=folded[:tile])
        x -= 0.25
        x *= 2.0 * math.pi
        w_i *= np.copysign(1.0, s, out=s)  # the sign of sin(theta), exactly
        terms = np.multiply(w_r, np.sin(x, out=s), out=s)
        imaginary = np.multiply(w_i, np.cos(x, out=x), out=x)
        row = deviations[start : start + tile]
        if pilots == 1:  # the mean of one term is that term
            np.add(terms, imaginary, out=row[:, None])
        else:
            terms += imaginary
            np.mean(terms, axis=1, out=row)
    return float(np.sum(deviations)), float(np.sum(deviations * deviations))


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
    real part of y/x.  It is computed as h + w_r cos(theta) + w_i sin(theta)
    for the pilot x = exp(i theta) and the noise w = w_r + i w_i, which
    equals Re(y/x) when |x| = 1, from the same draws.  The noise is drawn
    with per-quadrature variance
    1/lambda_B, which makes the estimate exactly N(h, 1/(lambda_B *
    pilot_count)); the sample moments returned let callers verify that
    law.  Unit-modulus pilots (rather than Gaussian ones) avoid the
    heavy-tailed division by near-zero symbols while leaving the
    estimator's distribution unchanged.
    """
    if pilot_count < 1:
        raise ValueError("pilot_count must be >= 1")
    sigma_b = 1.0 / math.sqrt(lambda_b)
    partial = _map_blocks(
        lambda block, rows: _pilot_block(seed, block, rows, float(h), sigma_b, pilot_count),
        trials,
        jobs,
    )
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


def _false_alarm_block(seed: int, block: int, rows: int, F: int, tau: float) -> int:
    stat = _block_rng(seed, block).chisquare(F, size=rows)  # sum of F squared residuals
    stat -= F
    stat /= math.sqrt(2.0 * F)
    return int(np.count_nonzero(stat > tau))


def measure_false_alarm(
    params: SystemParams, tau: float, trials: int, seed: int, jobs: int = 1
) -> TrialBatch:
    """Rejection rate of legitimate traffic at threshold ``tau``.

    The F scaled estimation residuals (h_hat - h)/sigma are standard
    normal whatever the challenge, so the statistic's energy, the sum of
    their squares, is chi-square with F degrees of freedom; each trial
    draws that energy in one step and counts statistics exceeding the
    threshold.  The estimate converges to the exact chi-square tail, not
    to the asymptotic normal one.
    """
    rejections = sum(
        _map_blocks(
            lambda block, rows: _false_alarm_block(seed, block, rows, params.F, tau), trials, jobs
        )
    )
    return TrialBatch.from_counts(trials, rejections, seed)


# --- geometric attack success ------------------------------------------------


def _right_signs(u: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Whether each row of uniforms ``u`` has its first ``HEAD_COLUMNS``
    entries, or all of a shorter row, at least 1/2: the rows the sign rule
    keeps.  ``flags`` holds at least one row of ``HEAD_COLUMNS`` booleans
    per row of ``u``."""
    rows, cols = u.shape
    cols = min(cols, HEAD_COLUMNS)
    flags = flags[:rows]
    np.greater_equal(u[:, :cols], 0.5, out=flags[:, :cols])
    flags[:, cols:] = True
    # A row's flags read as one word: one comparison per row, not a reduction.
    return flags.view(np.uint64)[:, 0] == _ALL_FLAGS


def _attack_block(
    seed: int, block: int, rows: int, F: int, h_min: float, h_max: float, radius_sq: float
) -> int:
    k = min(F, HEAD_COLUMNS)
    tail_cols = F - k
    # Where heads decide almost every row, as at the paper's operating
    # points, the head tiles are most of the memory a block touches; an
    # eighth of a tile keeps that small.
    head_rows = _tile_rows(rows, k, share=8)
    tail_rows = _tile_rows(rows, tail_cols) if tail_cols else 0
    # Head and tail tiles share the two buffers, sized to what the block needs.
    draws = np.empty(max(head_rows * k, tail_rows * tail_cols))
    amplitudes = np.empty_like(draws)
    # Every coordinate of the guess: the centre of the positive cube, or the origin.
    centre = h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0
    # A negative coordinate is at least h_min + centre from the guess; where
    # that alone leaves the ball, only rows of positive coordinates can
    # succeed (the sign rule of the module docstring).  A tail tile holds
    # survivors of one head tile, so head_rows rows of flags serve both.
    gap = h_min + centre
    if h_min > 0.0 and gap * gap > radius_sq:
        flags = np.empty((head_rows, HEAD_COLUMNS), dtype=bool)
    else:
        flags = None

    def distances(u: np.ndarray) -> np.ndarray:
        """Squared distances to the guess of the rows of uniforms ``u``, which it overwrites."""
        d = _signed_amplitudes(u, h_min, h_max, out=amplitudes[: u.size].reshape(u.shape))
        d -= centre
        return np.einsum("ij,ij->i", d, d)

    rng = _block_rng(seed, block)
    tail_rng = None
    successes = 0
    for start in range(0, rows, head_rows):
        n = min(head_rows, rows - start)
        u = rng.random(out=draws[: n * k].reshape(n, k))
        if flags is not None:
            u = np.compress(_right_signs(u, flags), u, axis=0)
        head = distances(u)
        # The tail adds squares and rounding is monotone, so a head beyond
        # the radius puts the whole row beyond it.
        survivors = head[head <= radius_sq]
        if not tail_cols or not len(survivors):
            successes += len(survivors)
            continue
        if tail_rng is None:
            tail_rng = _block_rng(seed, block, 1)
        for first in range(0, len(survivors), tail_rows):
            dist = survivors[first : first + tail_rows]
            u = tail_rng.random(out=draws[: len(dist) * tail_cols].reshape(len(dist), tail_cols))
            if flags is not None:
                keep = _right_signs(u, flags)
                dist, u = dist[keep], np.compress(keep, u, axis=0)
            dist += distances(u)
            successes += int(np.count_nonzero(dist <= radius_sq))
    return successes


def measure_attack_success(
    params: SystemParams, radius: float, trials: int, seed: int, jobs: int = 1
) -> TrialBatch:
    """Empirical success rate of the centre guess against the ball of
    radius ``radius``.

    The guess a is the centre of a randomly signed cube of the admissible
    set, or the origin when h_min = 0: the best single guess while the
    ball fits in the set (Anderson, Proc. AMS 6, 1955).  The attack
    injects it noiselessly, so success is the exact inequality
    sum((a_k - h_k)^2) <= radius^2 with no re-noising.  The
    caller supplies the radius, ``ChannelGeometry.radius`` for the channel
    check under test.  Zero successes raise nothing: the caller judges the
    count.
    """
    radius_sq = radius * radius
    successes = sum(
        _map_blocks(
            lambda block, rows: _attack_block(
                seed, block, rows, params.F, params.h_min, params.h_max, radius_sq
            ),
            trials,
            jobs,
        )
    )
    return TrialBatch.from_counts(trials, successes, seed)
