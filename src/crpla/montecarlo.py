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
  cancels from the statistic, are drawn.  numpy computes chisquare(F) as
  2 * standard_gamma(F/2), so the kernel draws ``standard_gamma(F / 2)``
  into its own array and doubles it: the same bits, with no new array;
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

This is version 6 of the reproducibility contract; its results are
pinned by ``tests/test_montecarlo.py::TestStreamContract``.  The gamma
sampler calls the platform's ``log`` (and ``pow`` at F = 1), so a
false-alarm count, like a pilot moment through ``sin``, can differ where
libm rounds differently.
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
# Draws held at once per block by the attack and pilot kernels; the
# attack's amplitudes add as much again, so its working set stays within a
# 2 MiB per-core L2 cache.  The pilot kernel's phases and the real and
# imaginary parts of its noise add one and a half tiles.  The false-alarm
# kernel draws one value per row and walks no tiles.
TILE_BYTES = 1 << 20
# Attack head tiles take TILE_BYTES / HEAD_TILE_SHARE: where heads decide
# almost every row, as at the paper's operating points, they are most of
# the memory a block touches.
HEAD_TILE_SHARE = 4
# Coordinates of h in an attack row's head; a row whose head is already
# outside the radius draws no tail.
HEAD_COLUMNS = 8
# A row of HEAD_COLUMNS true flags viewed as one 64-bit word.
_ALL_FLAGS = np.frombuffer(b"\x01" * HEAD_COLUMNS, dtype=np.uint64)[0]
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


def _tile_rows(rows: int, cols: int, share: int = 1) -> int:
    """Rows of ``cols`` float64 draws in a tile of ``TILE_BYTES // share``
    bytes: at least one, and at most the block's ``rows``."""
    return min(rows, max(1, TILE_BYTES // share // (8 * cols)))


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
        # times as long on the interleaved columns.
        w_r = np.multiply(w[:, :pilots], sigma_b, out=real[:tile])
        w_i = np.multiply(w[:, pilots:], sigma_b, out=imaginary[:tile])
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


def _right_signs(u: np.ndarray, flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Whether each row of uniforms ``u`` has its first ``HEAD_COLUMNS``
    entries, or all of a shorter row, at least 1/2: the rows the sign rule
    keeps, written to ``out``.  ``flags`` holds at least one row of
    ``HEAD_COLUMNS`` booleans per row of ``u``."""
    rows, cols = u.shape
    cols = min(cols, HEAD_COLUMNS)
    flags = flags[:rows]
    np.greater_equal(u[:, :cols], 0.5, out=flags[:, :cols])
    flags[:, cols:] = True
    # A row's flags read as one word: one comparison per row, not a reduction.
    return np.equal(flags.view(np.uint64)[:, 0], _ALL_FLAGS, out=out[:rows])


def _compress(keep: np.ndarray, a: np.ndarray, space: np.ndarray) -> np.ndarray:
    """The rows of ``a`` where ``keep`` holds, in order, written to the start of ``space``."""
    shape = (int(np.count_nonzero(keep)), *a.shape[1:])
    return np.compress(keep, a, axis=0, out=space[: math.prod(shape)].reshape(shape))


def _attack_block(
    seed: int, block: int, rows: int, F: int, h_min: float, h_max: float, radius_sq: float
) -> int:
    k = min(F, HEAD_COLUMNS)
    tail_cols = F - k
    head_rows = _tile_rows(rows, k, share=HEAD_TILE_SHARE)
    tail_rows = _tile_rows(rows, tail_cols) if tail_cols else 0
    # Head and tail tiles share the space, sized to what the block needs:
    # per head row, its distance, a survivor's distance, a tail row's
    # distance, HEAD_COLUMNS flags and a mask bit; then the draws, and the
    # rows the sign rule keeps or the amplitudes.  A tail tile holds
    # survivors of one head tile, so head_rows rows serve both.
    size = max(head_rows * k, tail_rows * tail_cols)
    head_space, survivor_space, tail_space, flags, mask, draws, kept = _views(
        head_rows, head_rows, head_rows, head_rows, _flag_size(head_rows), size, size
    )
    flags = flags.view(bool).reshape(head_rows, HEAD_COLUMNS)
    mask = mask.view(bool)
    # Every coordinate of the guess: the centre of the positive cube, or the origin.
    centre = h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0
    # A negative coordinate is at least h_min + centre from the guess; where
    # that alone leaves the ball, only rows of positive coordinates can
    # succeed (the sign rule of the module docstring).  Their uniforms move
    # to ``kept`` and their amplitudes go over the draws.
    gap = h_min + centre
    sign_rule = h_min > 0.0 and gap * gap > radius_sq
    amplitudes = draws if sign_rule else kept

    def distances(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Squared distances to the guess of the rows of uniforms ``u``, which it overwrites."""
        d = _signed_amplitudes(u, h_min, h_max, out=amplitudes[: u.size].reshape(u.shape))
        d -= centre
        return np.einsum("ij,ij->i", d, d, out=out[: len(d)])

    rng = _block_rng(seed, block)
    tail_rng = None
    successes = 0
    for start in range(0, rows, head_rows):
        n = min(head_rows, rows - start)
        u = rng.random(out=draws[: n * k].reshape(n, k))
        if sign_rule:
            u = _compress(_right_signs(u, flags, mask), u, kept)
        head = distances(u, head_space)
        # The tail adds squares and rounding is monotone, so a head beyond
        # the radius puts the whole row beyond it.
        within = np.less_equal(head, radius_sq, out=mask[: len(head)])
        if not tail_cols:
            successes += int(np.count_nonzero(within))
            continue
        survivors = _compress(within, head, survivor_space)
        if not len(survivors):
            continue
        if tail_rng is None:
            tail_rng = _block_rng(seed, block, 1)
        for first in range(0, len(survivors), tail_rows):
            dist = survivors[first : first + tail_rows]
            u = tail_rng.random(out=draws[: len(dist) * tail_cols].reshape(len(dist), tail_cols))
            if sign_rule:
                keep = _right_signs(u, flags, mask)
                dist, u = _compress(keep, dist, tail_space), _compress(keep, u, kept)
            dist += distances(u, head_space)
            within = np.less_equal(dist, radius_sq, out=mask[: len(dist)])
            successes += int(np.count_nonzero(within))
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
