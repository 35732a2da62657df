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
``spawn_key=(b, 0)`` and ``(b, 1)``.  ``_block_rng`` is the only place a
generator is made.
The draw order inside a block is fixed, so every trial's outcome is a
pure function of (seed, trials); per-block partial results are reduced
in block order, so counts, means, and variances are bit-identical no
matter how many workers participate.

Draw order inside a block (one row per trial, rows in trial order):

* false alarm: one chi-square variate with F degrees of freedom,
  ``Generator.chisquare(F)``, the energy of the F scaled residuals
  (h_hat - h)/sigma; neither the residuals nor the challenge h, which
  cancels from the statistic, are drawn.  numpy computes chisquare(F) as
  2 * standard_gamma(F/2), so the kernel draws ``standard_gamma(F / 2)``
  into its own array and doubles it: the same bits, with no new array;
* attack: where the window [lo, hi) below is narrower than [0, 1), first
  the count of rows whose F uniforms all lie in it,
  ``Generator.binomial(rows, q**F)`` with q = hi - lo; then F uniforms w
  per counted row (per row, where q = 1), each taken to u = lo + q * w.
  A coordinate of the challenge h is copysign(h_min + |v| * (h_max -
  h_min), v) with v = 2u - 1.  The guess is the fixed point (c, ..., c),
  c = h_min + (h_max - h_min)/2 when h_min > 0 and 0 when h_min = 0; the
  admissible set is symmetric in every sign, so it succeeds with the law
  of the centre guess c * sigma of a random sign pattern sigma.  A row
  succeeds when its squared distance, summed and rounded, is at most
  radius * radius;
* pilot estimation: pilot_count uniforms, the pilot phases over 2*pi,
  from child stream 0, and 2 * pilot_count standard normals, the real
  then the imaginary noise parts, from child stream 1.  A pilot's
  estimate is computed as h + w_r cos(theta) + w_i sin(theta), which is
  Re(y/x) for the unit-modulus pilot x = exp(i theta), and a row averages
  its pilots; no symbol is formed or divided.

Two rules skip work whose outcome is already known.

* Window (attack).  A coordinate h(u) is monotone in u (it jumps from
  -h_min to +h_min at u = 1/2), and a rounded sum of non-negative terms
  is at least each term, so a row can succeed only if each uniform lies
  in the interval whose coordinates are alone within the radius.
  ``_window`` widens it by 2^-40 (radius + h_max) + 2^-537 on the
  amplitude scale, more than every rounding and underflow between u and
  a square, and clips it to [lo, hi).  The rows with all F uniforms
  inside number Binomial(rows, q^F); given that count they are uniform
  on the window (conditional Monte Carlo), so the success count keeps
  its law.  Where q^F underflows to 0 the count is 0, and the chance that
  a row of the block would have counted is below rows * q^F < rows *
  2^-1074.
* Octant fold (pilot).  With s = 1/2 - u, theta = 2 pi u = pi - 2 pi s;
  s, b = |s| - 1/4, c = |b| and r = min(c, 1/4 - c) in [0, 1/8] are all
  exact (Sterbenz), and cos(theta) = copysign(sin(2 pi c), b), sin(theta)
  = copysign(cos(2 pi c), s).  With y = 2 pi r in [0, pi/4], sin(2 pi c)
  and cos(2 pi c) are sin y and cos y where c <= 1/8 and the other way
  round where c > 1/8.  libm is called once, for sin y, on an argument
  that needs no range reduction; cos y is sqrt((1 - sin y)(1 + sin y)),
  well conditioned on [0, pi/4].  The signs and the swap are applied to
  the noise, by exact sign products and 0/1 blends.  Against a 40-digit
  reference the folded cos and sin are within 2.1e-16 over 20013 phases,
  where cos and sin of fl(2 pi u) are off by up to 6.9e-16.

Every array a kernel touches is a disjoint view of one float64 scratch
arena per thread (``threading.local``), carved afresh by each call and
kept between calls: each ``--jobs`` worker thread has its own, a call
allocates no tile once the arena fits it, and its pages stay mapped
instead of faulting in again.  The arena grows, only when a call needs
more, to the largest single kernel call's need, which the tile budget
bounds; no call reads what an earlier one left in it.

The attack and pilot kernels walk their block in row tiles of at most
``TILE_BYTES`` of draws.  A tile takes the next rows of each stream, so
the tiles concatenate to the whole-block draw and every count, and every
per-row pilot estimate, is independent of the tile size; memory per
worker stays bounded as F and pilot_count grow.

This is version 8 of the reproducibility contract.  Version 7 drew an
attack row's first eight coordinates, then the rest from child stream 1,
and with the sign rule only rows of positive head signs; version 8 draws
the window count and whole rows from the block's stream, and leaves the
false-alarm and pilot streams as they were.  Its results are pinned by
``tests/test_montecarlo.py::TestStreamContract``.  The gamma sampler
calls the platform's ``log`` (and ``pow`` at F = 1), and the binomial
sampler ``log`` and ``exp``, so a false-alarm count, an attack count
where q < 1, and a pilot moment through ``sin`` can differ where libm
rounds differently.
"""

from __future__ import annotations

import math
import threading
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
# Draws held at once by one tile of the attack and pilot kernels.  The
# attack's amplitudes add a tile, the pilot kernel's phases and noise parts
# one and a half; a one-pilot block is one tile.  The false-alarm kernel
# draws one value per row and walks no tiles.
TILE_BYTES = 1 << 18
# Relative widening of the attack window (``_window``), far above the few
# roundings between a uniform and its coordinate's squared distance.
_WINDOW_MARGIN = 2.0**-40
# SeedSequence takes no negative entropy; a negative seed is read as its
# 64-bit two's complement.
_SEED_MASK = (1 << 64) - 1
# Each thread's scratch arena (module docstring), made on first use.
_scratch = threading.local()


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


def _tile_rows(rows: int, cols: int) -> int:
    """Rows of ``cols`` float64 draws in a tile of ``TILE_BYTES`` bytes: at
    least one, and at most the block's ``rows``."""
    return min(rows, max(1, TILE_BYTES // (8 * cols)))


def _views(*sizes: int) -> list[np.ndarray]:
    """Disjoint float64 views of ``sizes`` elements each, carved in order
    from this thread's scratch arena, which grows to fit them if it must."""
    arena = getattr(_scratch, "arena", None)
    if arena is None or len(arena) < sum(sizes):
        arena = _scratch.arena = np.empty(sum(sizes))
    views, start = [], 0
    for size in sizes:
        views.append(arena[start : start + size])
        start += size
    return views


def _flag_size(count: int) -> int:
    """float64 elements that hold ``count`` booleans."""
    return -(-count // 8)


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

    ``u`` is overwritten, and ``out`` may be ``u`` (at the cost of a
    temporary).  u - 1/2 = v/2 is exact, and its product x with twice the
    span keeps v's sign, zeros included, so x + copysign(h_min, x) has the
    bits of the signed sum of the magnitudes.
    """
    u -= 0.5
    u *= 2.0 * (h_max - h_min)
    offset = np.copysign(h_min, u, out=None if out is u else out)
    return np.add(u, offset, out=offset if out is None else out)


# --- pilot estimation -------------------------------------------------------


def _pilot_block(
    seed: int, block: int, rows: int, h: float, sigma_b: float, pilots: int
) -> tuple[float, float]:
    phase_rng = _block_rng(seed, block, 0)
    noise_rng = _block_rng(seed, block, 1)
    tile_rows = _tile_rows(rows, 2 * pilots)
    cells = tile_rows * pilots
    # Each row's estimate less h, the mean of Re(y/x) - h = w_r cos(theta)
    # + w_i sin(theta) over its pilots: accumulating around the known
    # center h keeps the sum of squares from cancelling once the noise is
    # much smaller than h.  The tiles' space holds their squares at the end.
    deviations, work = _views(rows, max(rows, 5 * cells))
    noise = work[: 2 * cells].reshape(tile_rows, 2 * pilots)  # real | imaginary parts
    # Once a tile's noise is scaled into its real and imaginary arrays, the
    # noise space holds two phase temporaries.
    low, high, phase, real, imaginary = (
        work[i * cells : (i + 1) * cells].reshape(tile_rows, pilots) for i in range(5)
    )
    for start in range(0, rows, tile_rows):
        w = noise_rng.standard_normal(out=noise[: rows - start])
        tile = len(w)
        # Contiguous parts: the arithmetic below would take about three
        # times as long on the interleaved columns, which are copied:
        # scaling them across would make numpy buffer them.
        w *= sigma_b
        w_r, w_i = real[:tile], imaginary[:tile]
        np.copyto(w_r, w[:, :pilots])
        np.copyto(w_i, w[:, pilots:])
        # The octant fold (module docstring): s = 1/2 - u, b = |s| - 1/4,
        # c = |b| and y = 2 pi min(c, 1/4 - c); cos(theta) = copysign(sin
        # 2 pi c, b) and sin(theta) = copysign(cos 2 pi c, s), where sin 2 pi c
        # and cos 2 pi c are sin y and cos y, swapped where c > 1/8.  The
        # signs and the swap go onto the noise, exactly.
        s = np.subtract(0.5, phase_rng.random(out=phase[:tile]), out=phase[:tile])
        b = np.abs(s, out=low[:tile])
        b -= 0.25
        w_i *= np.copysign(1.0, s, out=s)
        w_r *= np.copysign(1.0, b, out=s)
        c = np.abs(b, out=b)
        y = np.minimum(c, np.subtract(0.25, c, out=s), out=s)
        # 1.0 where c > 1/8, else 0.0; a comparison written straight to a
        # float array would cast through a temporary buffer.
        above = high.reshape(-1).view(bool)[: c.size].reshape(c.shape)
        swap = c
        np.copyto(swap, np.greater(c, 0.125, out=above))
        # 0/1 blends: the noise on sin y becomes w_i where c > 1/8 and stays
        # w_r elsewhere, and the noise on cos y the other.
        r_swap = np.multiply(w_r, swap, out=high[:tile])
        i_swap = np.multiply(w_i, swap, out=swap)
        w_r -= r_swap
        w_r += i_swap
        w_i -= i_swap
        w_i += r_swap
        y *= 2.0 * math.pi
        sin_y = np.sin(y, out=y)
        cos_y = np.subtract(1.0, sin_y, out=low[:tile])
        cos_y *= np.add(1.0, sin_y, out=high[:tile])
        np.sqrt(cos_y, out=cos_y)
        terms = np.multiply(w_r, sin_y, out=sin_y)
        terms_i = np.multiply(w_i, cos_y, out=cos_y)
        row = deviations[start : start + tile]
        if pilots == 1:  # the mean of one term is that term
            np.add(terms, terms_i, out=row[:, None])
        else:
            terms += terms_i
            np.mean(terms, axis=1, out=row)
    squares = np.multiply(deviations, deviations, out=work[:rows])
    return float(np.sum(deviations)), float(np.sum(squares))


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
    stat, above = _views(rows, _flag_size(rows))
    # The sum of F squared residuals: chisquare(F) is 2 * standard_gamma(F / 2),
    # bit for bit, and standard_gamma fills a given array.
    _block_rng(seed, block).standard_gamma(F / 2.0, out=stat)
    stat *= 2.0
    stat -= F
    stat /= math.sqrt(2.0 * F)
    return int(np.count_nonzero(np.greater(stat, tau, out=above.view(bool)[:rows])))


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


def _window(h_min: float, h_max: float, radius: float) -> tuple[float, float]:
    """The uniforms [lo, hi) whose coordinate alone can lie within
    ``radius`` of the guess, widened and clipped (module docstring).

    A negative coordinate is at least gap = h_min + centre from the guess,
    so where gap exceeds the widened radius the window lies at or above
    1/2; at h_min = 0 it is symmetric about 1/2, and at h_max = h_min every
    positive coordinate is the guess itself.
    """
    span = h_max - h_min
    centre = h_min + span / 2.0 if h_min > 0.0 else 0.0
    # A square below 2^-1075 rounds to 0, so a distance below 2^-537 is within any radius.
    reach = radius + _WINDOW_MARGIN * (radius + h_max) + 2.0**-537
    gap = h_min + centre
    if span == 0.0:
        return (0.5 if gap > reach else 0.0), 1.0
    # u - 1/2 is (h - h_min) / (2 span) for a coordinate h >= h_min and
    # (h + h_min) / (2 span) for h <= -h_min.
    hi = min(1.0, 0.5 + (centre + reach - h_min) / (2.0 * span))
    if gap > reach:
        return 0.5 + max(0.0, centre - reach - h_min) / (2.0 * span), hi
    return max(0.0, 0.5 + min(0.0, centre - reach + h_min) / (2.0 * span)), hi


def _attack_block(
    seed: int, block: int, rows: int, F: int, h_min: float, h_max: float, radius_sq: float
) -> int:
    rng = _block_rng(seed, block)
    lo, hi = _window(h_min, h_max, math.sqrt(radius_sq))
    width = hi - lo
    if width < 1.0:
        # Only a row whose every uniform lies in the window can succeed: draw
        # how many do, then only their uniforms (the module docstring).
        rows = int(rng.binomial(rows, width**F))
    if not rows:
        return 0
    tile_rows = _tile_rows(rows, F)
    size = tile_rows * F
    dist, mask, draws, amplitudes = _views(tile_rows, _flag_size(tile_rows), size, size)
    mask = mask.view(bool)
    # Every coordinate of the guess: the centre of the positive cube, or the origin.
    centre = h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0
    successes = 0
    for start in range(0, rows, tile_rows):
        u = rng.random(out=draws[: min(tile_rows, rows - start) * F].reshape(-1, F))
        if width < 1.0:
            u *= width
            u += lo
        d = _signed_amplitudes(u, h_min, h_max, out=amplitudes[: u.size].reshape(u.shape))
        d -= centre
        row_dist = np.einsum("ij,ij->i", d, d, out=dist[: len(d)])
        successes += int(np.count_nonzero(np.less_equal(row_dist, radius_sq, out=mask[: len(d)])))
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
