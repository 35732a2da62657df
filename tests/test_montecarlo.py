"""Monte Carlo harness tests: determinism, distributions, oracle checks.

The heavyweight 1e7-trial agreements live in the acceptance suite; here
the same machinery runs at reduced trial counts with seeded draws.
"""

import ast
import contextlib
import dataclasses
import io
import itertools
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crpla import channel, cli, montecarlo
from crpla.montecarlo import (
    BLOCK_TRIALS,
    TrialBatch,
    measure_attack_success,
    measure_false_alarm,
    simulate_pilot_estimation,
    wilson_interval,
)
from crpla.params import SystemParams, params_from_config, read_json_object
from crpla.specfun import chi_square_isf, chi_square_sf


def make(**overrides):
    base = dict(
        n=10,
        F=2,
        pilot_count=10,
        b_M=0,
        p_FA=0.05,
        lambda_B=1e4,
        lambda_T=1e4,
        h_min=0.5,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def radius(params, tau):
    """The acceptance-ball radius at threshold ``tau``, the one ``simulate`` samples."""
    return float(channel.geometry(params, tau, params.pilot_count, params.h_min).radius)


class TestWilson:
    def test_contains_estimate(self):
        for successes, trials in ((0, 100), (5, 100), (100, 100), (317, 1000)):
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high
            assert 0.0 <= low <= high <= 1.0

    def test_zero_successes_floor(self):
        low, _high = wilson_interval(0, 1000)
        assert low == 0.0

    def test_batch_invariants(self):
        batch = TrialBatch.from_counts(1000, 37, seed=5)
        assert batch.estimate == 0.037
        assert batch.wilson_3sigma_low <= batch.estimate <= batch.wilson_3sigma_high
        assert batch.contains(0.037)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestDeterminism:
    def test_same_seed_same_batch(self):
        params = make()
        tau = channel.threshold_from_pfa(params.p_FA, params.F)
        a = measure_attack_success(params, radius(params, tau), 50_000, seed=11)
        b = measure_attack_success(params, radius(params, tau), 50_000, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        params = make()
        tau = channel.threshold_from_pfa(params.p_FA, params.F)
        a = measure_attack_success(params, radius(params, tau), 200_000, seed=11)
        b = measure_attack_success(params, radius(params, tau), 200_000, seed=12)
        assert a.successes != b.successes

    def test_worker_count_invariance(self):
        params = make()
        tau = channel.threshold_from_pfa(params.p_FA, params.F)
        trials = 3 * BLOCK_TRIALS + 123  # exercises a partial final block
        serial = measure_attack_success(params, radius(params, tau), trials, seed=3, jobs=1)
        parallel = measure_attack_success(params, radius(params, tau), trials, seed=3, jobs=4)
        assert serial == parallel
        fa_serial = measure_false_alarm(params, tau, trials, seed=3, jobs=1)
        fa_parallel = measure_false_alarm(params, tau, trials, seed=3, jobs=3)
        assert fa_serial == fa_parallel
        m_serial = simulate_pilot_estimation(1.0, 100.0, 10, trials, seed=3, jobs=1)
        m_parallel = simulate_pilot_estimation(1.0, 100.0, 10, trials, seed=3, jobs=4)
        assert m_serial == m_parallel


class TestChallengeDraw:
    """The law of one attack trial's challenge h, from F uniforms."""

    @staticmethod
    def draw(params, rng):
        return montecarlo._signed_amplitudes(rng.random(params.F), params.h_min, params.h_max)

    def test_bounds_and_shapes(self):
        params = make(F=7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = self.draw(params, rng)
            assert h.shape == (7,)
            mag = np.abs(h)
            assert np.all(mag >= params.h_min) and np.all(mag <= params.h_max)

    def test_signs_realized(self):
        params = make(F=100)
        rng = np.random.default_rng(1)
        h = self.draw(params, rng)
        assert np.any(h < 0) and np.any(h > 0)

    @pytest.mark.parametrize("h_min, h_max", [(0.5, 1.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)])
    def test_in_place_call_has_the_same_bits(self, h_min, h_max):
        # 0 and 1/2 are the ends of the negative and positive sides, and a
        # zero span or h_min = 0 leaves only a zero's sign to carry the sign.
        u = np.concatenate([[0.0, 0.5, np.nextafter(0.5, 0.0)], np.random.default_rng(2).random(50)])
        expected = montecarlo._signed_amplitudes(u.copy(), h_min, h_max).view(np.int64)
        buffer = u.copy()
        got = montecarlo._signed_amplitudes(buffer, h_min, h_max, out=buffer)
        assert got is buffer and np.array_equal(got.view(np.int64), expected)
        out = np.empty_like(u)
        got = montecarlo._signed_amplitudes(u.copy(), h_min, h_max, out=out)
        assert got is out and np.array_equal(got.view(np.int64), expected)


class TestPilotEstimation:
    def test_noise_free_limit(self):
        moments = simulate_pilot_estimation(0.8, 1e18, 5, 2000, seed=1)
        assert moments.mean == pytest.approx(0.8, abs=1e-8)
        assert moments.variance < 1e-16

    def test_moments_match_law(self):
        moments = simulate_pilot_estimation(1.0, 100.0, 10, 100_000, seed=2)
        sigma_sq = 1e-3
        assert abs(moments.mean - 1.0) <= 3.0 * math.sqrt(sigma_sq / 100_000)
        band = 3.0 * math.sqrt(2.0 / (100_000 - 1)) * sigma_sq
        assert abs(moments.variance - sigma_sq) <= band

    def test_doubling_pilots_halves_variance(self):
        few = simulate_pilot_estimation(1.0, 100.0, 5, 200_000, seed=3)
        many = simulate_pilot_estimation(1.0, 100.0, 10, 200_000, seed=4)
        assert many.variance == pytest.approx(few.variance / 2.0, rel=0.05)

    def test_rejects_zero_pilots(self):
        with pytest.raises(ValueError):
            simulate_pilot_estimation(1.0, 100.0, 0, 10, seed=0)


class _FixedStream:
    """Stands in for a block stream: every draw fills ``out`` with ``values``."""

    def __init__(self, values):
        self.values = values

    def random(self, out):
        out[...] = self.values
        return out

    standard_normal = random


class TestPilotPhaseFold:
    """The pilot kernel folds the phase 2 pi u into [0, pi/4] before calling
    ``sin`` once; the folded values must be those of the unfolded phase,
    and the moments those of version 6."""

    # The quadrant and octant boundaries, and the floats next to the octant ones.
    OCTANTS = [0.125, 0.375, 0.625, 0.875]
    EDGES = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0 - 2.0**-53] + [
        math.nextafter(u, toward) for u in OCTANTS for toward in (0.0, 1.0)
    ]

    @staticmethod
    def term(monkeypatch, u, noise):
        """The kernel's w_r cos(theta) + w_i sin(theta) at theta = 2 pi u and w = ``noise``."""
        streams = {0: _FixedStream(u), 1: _FixedStream(noise)}
        monkeypatch.setattr(montecarlo, "_block_rng", lambda seed, block, child: streams[child])
        return montecarlo._pilot_block(0, 0, 1, 1.0, 1.0, 1)[0]

    def test_cos_and_sin_match_libm(self, monkeypatch):
        phases = self.EDGES + list(np.random.default_rng(45).random(200))
        for u in phases:
            theta = 2.0 * math.pi * u
            assert abs(self.term(monkeypatch, u, [1.0, 0.0]) - math.cos(theta)) <= 1e-15, u
            assert abs(self.term(monkeypatch, u, [0.0, 1.0]) - math.sin(theta)) <= 1e-15, u

    def test_one_pilot_moments_pinned(self):
        # One pilot, as at the benchmark's point, writes each row's term
        # without a mean over pilots.
        moments = simulate_pilot_estimation(1.0, 100.0, 1, PIN_TRIALS, seed=23)
        assert moments.mean == pytest.approx(0.9999958019816554, rel=1e-12)
        assert moments.variance == pytest.approx(0.009999641873564868, rel=1e-12)


class TestFalseAlarm:
    def test_always_reject_below_floor(self):
        params = make(F=100)
        batch = measure_false_alarm(params, tau=-12.0, trials=5_000, seed=5)
        assert batch.estimate == 1.0

    def test_zero_threshold_near_half(self):
        params = make(F=100)
        batch = measure_false_alarm(params, 0.0, 100_000, seed=6)
        exact = chi_square_sf(100.0, 100)  # the finite-F median sits below 0.5
        assert batch.contains(exact)
        assert abs(batch.estimate - 0.5) < 0.02

    def test_matches_exact_tail(self):
        params = make(F=100)
        tau = channel.threshold_from_pfa(0.05, params.F)
        batch = measure_false_alarm(params, tau, 200_000, seed=7)
        exact = chi_square_sf(math.sqrt(200.0) * tau + 100.0, 100)
        assert batch.contains(exact)

    def test_invariant_to_challenge_distribution(self):
        # the statistic depends only on the residuals, so h is not even drawn
        tau = channel.threshold_from_pfa(0.05, 100)
        spread = measure_false_alarm(make(F=100), tau, 200_000, seed=8)
        pinned = measure_false_alarm(make(F=100, h_min=1.0), tau, 200_000, seed=8)
        assert spread == pinned


class TestChiSquareLaw:
    """The false-alarm kernel draws the residual energy as one chi-square
    variate; the sum of F squared standard normals it stands for must
    follow the same law at the same thresholds."""

    TRIALS = 50_000
    ROWS = 20_000  # of F normals each, summed in the test
    TAILS = (0.5, 0.1, 0.01)

    @pytest.mark.parametrize("F", [1, 2, 3, 100])
    def test_kernel_and_squared_normals_follow_the_law(self, F):
        rng = np.random.Generator(np.random.SFC64(31))
        residual = rng.standard_normal((self.ROWS, F))
        energy = np.einsum("ij,ij->i", residual, residual)
        for tail in self.TAILS:
            x = chi_square_isf(tail, F)
            exact = chi_square_sf(x, F)
            tau = (x - F) / math.sqrt(2.0 * F)
            kernel = measure_false_alarm(make(F=F), tau, self.TRIALS, seed=32)
            squares = TrialBatch.from_counts(self.ROWS, int(np.count_nonzero(energy > x)), 31)
            assert kernel.contains(exact), (tail, kernel)
            assert squares.contains(exact), (tail, squares)


class TestAttackSuccess:
    def test_sphere_engulfs_support(self):
        params = make(F=2, lambda_B=1e-3, pilot_count=1)  # radius >> span
        tau = channel.threshold_from_pfa(0.05, params.F)
        batch = measure_attack_success(params, radius(params, tau), 5_000, seed=9)
        assert batch.estimate == 1.0

    def test_sign_ambiguity_only(self):
        # pinned magnitude: success iff all F sign guesses match, rate 2^-F
        params = make(F=3, h_min=1.0, h_max=1.0, lambda_B=1e6)
        batch = measure_attack_success(params, radius(params, 0.0), 200_000, seed=10)
        assert batch.contains(2.0**-3)

    def test_headline_geometry_agreement(self):
        params = make(F=2)
        tau = channel.threshold_from_pfa(0.05, params.F)
        geometry = channel.geometry(params, tau, params.pilot_count, params.h_min)
        analytic = 2.0**geometry.log2_p_succ
        batch = measure_attack_success(params, geometry.radius, 1_000_000, seed=11)
        assert batch.contains(analytic)

    def test_insufficient_resolution_warns(self):
        # simulate judges the count: 2^-856 * 2000 successes are expected
        params = make(F=100, lambda_B=1e5, h_min=0.0, p_FA=1e-7)
        rows = cli.simulate_rows(params, 2_000, seed=11)
        assert rows[2][0] == "attack_success" and rows[2][-1] == "WARN"

    def test_measurement_does_not_judge(self):
        params = make(F=100, lambda_B=1e5, h_min=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = measure_attack_success(
                params, radius(params, channel.threshold_from_pfa(1e-7, params.F)), 2_000, seed=12
            )
        assert batch.successes == 0


def _whole_row_distances(rng, rows, F, h_min, h_max):
    """Squared distances to the centre guess of the next ``rows`` rows of F
    uniforms of ``rng``, each row a challenge h transformed whole.

    The guess puts every coordinate at the centre h_min + (h_max - h_min)/2
    of the positive cube, or at the origin when h_min = 0."""
    h = montecarlo._signed_amplitudes(rng.random((rows, F)), h_min, h_max)
    d = h - (h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0)
    return np.einsum("ij,ij->i", d, d)


class TestAttackWindow:
    """The attack kernel draws only rows whose every uniform lies in the
    window of ``_window``: the window must hold every uniform whose
    coordinate alone is within the radius, and the counts must follow the
    law of whole rows in each of its branches."""

    @staticmethod
    def within(u, h_min, h_max, radius_sq):
        """Whether each uniform's coordinate alone is within the radius, as the kernel rounds it."""
        centre = h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0
        d = montecarlo._signed_amplitudes(np.array(u, dtype=float), h_min, h_max) - centre
        return d * d <= radius_sq

    @given(
        h_max=st.one_of(st.just(1.0), st.floats(1e-300, 1e300)),
        share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        scale=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
            st.floats(0.0, 4.0),
            st.floats(0.0, 1e-6),
            st.floats(1.0 - 1e-9, 1.0 + 1e-9),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_holds_every_coordinate_within_the_radius(self, h_max, share, scale):
        # h_min = share * h_max takes in h_min = 0 and a zero span; the radius
        # is scale times the gap h_min + centre of a negative coordinate, or
        # times h_max where that gap is 0.
        h_min = share * h_max
        centre = h_min + (h_max - h_min) / 2.0 if h_min > 0.0 else 0.0
        radius = scale * ((h_min + centre) or h_max)
        radius_sq = radius * radius
        lo, hi = montecarlo._window(h_min, h_max, math.sqrt(radius_sq))
        assert 0.0 <= lo <= hi <= 1.0
        # The uniform that maps onto the guess.
        assert lo <= (0.75 if h_min > 0.0 else 0.5) <= hi
        # The 64 uniforms below lo, and hi with the 63 above it: the
        # coordinates within the radius come from one interval of u, which
        # holds the guess's uniform, so none of these may be within it.
        outside = [
            u
            for edge, step in ((lo, -1.0), (hi, 2.0))
            for u in itertools.accumulate(range(64), lambda u, _: np.nextafter(u, step), initial=edge)
            if 0.0 <= u < 1.0 and not lo <= u < hi
        ]
        assert not np.any(self.within(outside, h_min, h_max, radius_sq))
        # Where q^F underflows to 0, as at radius 0, no row is drawn.
        got = montecarlo._attack_block(3, 0, 64, 1000, h_min, h_max, radius_sq)
        assert got == 0 if (hi - lo) ** 1000 == 0.0 else 0 <= got <= 64

    BLOCKS = 200
    ROWS = 4096

    # (F, h_min, h_max, radius^2) in each branch of ``_window``
    BRANCHES = {
        # the whole window at h_min = 0 and a radius above h_max: no count is
        # drawn, and each row is F uniforms of the block's stream
        "whole": (9, 0.0, 1.0, 2.0),
        # inside the positive side: lo = 0.65, hi = 0.85
        "positive_inner": (2, 0.5, 1.0, 0.01),
        # the positive half: radius^2 0.32 below the gap^2 1.5625
        "positive_half": (9, 0.5, 1.0, 0.32),
        # both sides: radius 1.5 above the gap 1.25, lo = 0.25
        "both_sides": (3, 0.5, 1.0, 2.25),
        # symmetric about 1/2 at h_min = 0: q = 0.71
        "symmetric": (4, 0.0, 1.0, 0.5),
        # a zero span: only the signs vary, and 2^-F rows succeed
        "zero_span": (3, 1.0, 1.0, 1.0),
        # the whole window again, where a row with one wrong sign is exactly
        # at the radius (every d_k^2 is 0 or 4): it must count, and half the
        # rows succeed
        "whole_at_the_boundary": (3, 1.0, 1.0, 4.0),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_counts_follow_the_whole_row_law(self, monkeypatch, branch):
        F, h_min, h_max, radius_sq = self.BRANCHES[branch]
        whole = montecarlo._window(h_min, h_max, math.sqrt(radius_sq)) == (0.0, 1.0)
        assert whole == branch.startswith("whole")
        kernel = [
            montecarlo._attack_block(s, 0, self.ROWS, F, h_min, h_max, radius_sq)
            for s in range(self.BLOCKS)
        ]
        rng = np.random.default_rng(45)
        reference = sum(
            int(np.count_nonzero(_whole_row_distances(rng, self.ROWS, F, h_min, h_max) <= radius_sq))
            for _ in range(self.BLOCKS)
        )
        trials = self.BLOCKS * self.ROWS
        pooled = (sum(kernel) + reference) / (2 * trials)
        assert pooled * trials > 1000
        sigma = math.sqrt(2.0 * pooled * (1.0 - pooled) / trials)
        assert abs(sum(kernel) - reference) / trials < 4.0 * sigma
        if whole:
            assert kernel[:10] == [
                np.count_nonzero(
                    _whole_row_distances(montecarlo._block_rng(s, 0), self.ROWS, F, h_min, h_max)
                    <= radius_sq
                )
                for s in range(10)
            ]
        monkeypatch.setattr(montecarlo, "TILE_BYTES", 7 * 8 * F)
        assert [
            montecarlo._attack_block(s, 0, self.ROWS, F, h_min, h_max, radius_sq) for s in range(10)
        ] == kernel[:10]


class TestAttackLaw:
    """A row drawn as head and tail from two streams follows the law of a
    whole row of F independent uniforms."""

    @pytest.mark.parametrize("F, rows", [(9, BLOCK_TRIALS), (100, BLOCK_TRIALS), (1000, 4096)])
    def test_kernel_matches_whole_row_estimate(self, F, rows):
        # At h_min = 0 the guess is the origin, and each d_k^2 = h_k^2 has
        # mean 1/3 and variance 4/45; the normal approximation of their sum
        # puts about 30% of rows within this radius.
        radius_sq = F / 3.0 - 0.5244 * math.sqrt(F * 4.0 / 45.0)
        kernel = montecarlo._attack_block(43, 0, rows, F, 0.0, 1.0, radius_sq)
        rng = np.random.default_rng(44)
        reference = sum(
            int(np.count_nonzero(_whole_row_distances(rng, n, F, 0.0, 1.0) <= radius_sq))
            for n in np.diff([*range(0, rows, 1024), rows])
        )
        pooled = (kernel + reference) / (2 * rows)
        assert 0.2 < pooled < 0.4
        sigma = math.sqrt(2.0 * pooled * (1.0 - pooled) / rows)
        assert abs(kernel - reference) / rows < 3.0 * sigma


# Two full blocks and a partial one.
PIN_TRIALS = 2 * BLOCK_TRIALS + 1000
ROOT = Path(__file__).resolve().parent.parent


class _CountingStream:
    """A block stream that appends the number of uniforms it draws to
    ``sizes``; appending is atomic, so worker threads may share the list."""

    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, sizes

    def random(self, out):
        self.sizes.append(out.size)
        return self.rng.random(out=out)

    def binomial(self, n, p):
        return self.rng.binomial(n, p)


class TestShippedPointTiles:
    """Counts at the benchmark's inputs, the shipped point (h_min 0.9) at
    F = 100 and 1000, must not depend on the tile size or the number of
    worker threads.  TestStreamContract pins only h_min = 0, and h_min =
    0.5 at F = 9.

    At the shipped radius the attack window is the positive side of the
    uniforms, q = 0.42 at F = 100 and 0.5 at F = 1000, so each block
    draws a Binomial(rows, q^F) count of rows, 0 at every seed here; the
    pins record that no uniform is drawn.  At radius^2 = 1.805 F,
    above the gap^2 of 3.42 of a negative coordinate, the window is every
    uniform, and rows with fewer than about half their signs wrong
    succeed.
    """

    # F -> per seed 1, 2, 3: (successes, uniforms drawn) at the shipped
    # radius over PIN_TRIALS
    SHIPPED = {
        100: [(0, 0), (0, 0), (0, 0)],
        1000: [(0, 0), (0, 0), (0, 0)],
    }
    # F -> (trials, successes per seed 1, 2, 3) where the window is every uniform
    WHOLE_WINDOW = {100: (PIN_TRIALS, [16916, 16864, 16841]), 1000: (3000, [1471, 1482, 1480])}

    @pytest.mark.parametrize("jobs", [1, 4, 8])
    @pytest.mark.parametrize("tile_bytes", [None, 7 * 8 * 100], ids=["tiles", "small_tiles"])
    @pytest.mark.parametrize("F", [100, 1000])
    def test_counts_pinned(self, monkeypatch, F, tile_bytes, jobs):
        if tile_bytes is not None:
            monkeypatch.setattr(montecarlo, "TILE_BYTES", tile_bytes)
        shipped = read_json_object(str(ROOT / "configs" / "point_high_snr.json"))
        params = params_from_config(dict(shipped, F=F))
        geometry = channel.equivalent_key_bits(params, params.p_FA)
        block_rng = montecarlo._block_rng
        got = []
        for seed in (1, 2, 3):
            sizes = []

            def counting(s, *key, sizes=sizes):
                return _CountingStream(block_rng(s, *key), sizes)

            monkeypatch.setattr(montecarlo, "_block_rng", counting)
            batch = measure_attack_success(params, geometry.radius, PIN_TRIALS, seed, jobs)
            got.append((batch.successes, sum(sizes)))
        assert got == self.SHIPPED[F]
        monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
        trials, expected = self.WHOLE_WINDOW[F]
        r = math.sqrt(1.805 * F)
        got = [measure_attack_success(params, r, trials, s, jobs).successes for s in (1, 2, 3)]
        assert got == expected


def _pinned_run(F, jobs=1):
    """Every count and moment of the seeded runs the stream contract pins.

    At h_min = 0 the attack guesses the origin, whose squared distance to
    the challenge has mean F/3; a ball of that radius squared takes about
    half the rows at every F, so every count moves with any change of
    stream.
    """
    params = make(F=F, h_min=0.0)
    tau = channel.threshold_from_pfa(0.05, params.F)
    return (
        measure_false_alarm(params, tau, PIN_TRIALS, seed=21, jobs=jobs),
        measure_attack_success(params, math.sqrt(F / 3.0), PIN_TRIALS, seed=22, jobs=jobs),
        simulate_pilot_estimation(1.0, 100.0, 10, PIN_TRIALS, seed=23, jobs=jobs),
    )


class TestStreamContract:
    """(seed, trials) -> result, pinned for version 8 of the stream contract."""

    # F -> ((false-alarm successes, estimate), (attack successes, estimate))
    GOLDEN = {
        100: ((1839, 0.05445984363894812), (16933, 0.5014510779436152)),
        1000: ((1691, 0.050076995972518364), (16805, 0.4976605069888652)),
    }
    # F -> attack successes.  The window is narrower than [0, 1) at F = 1
    # and 2, which draw a count first; at F = 3 and 8 the rows are those of
    # version 7, which drew a row of at most eight coordinates whole.
    SMALL_F_ATTACK = {1: 19396, 2: 17486, 3: 17587, 8: 17273}
    # Attack successes per seed 0..7 of one block at F = 9, h_min = 0.5: the
    # radius^2 of 0.32 is below the gap^2 of 1.5625, the window is the
    # positive half of the uniforms, and about 0.2% of rows succeed.
    NARROW_WINDOW_ATTACK = [43, 29, 34, 27, 33, 33, 34, 32]
    # The pilot run does not depend on F.
    PILOT_MOMENTS = (0.9999863526651794, 0.0009958132032588049)

    @pytest.mark.parametrize("F", sorted(GOLDEN))
    def test_pinned(self, F):
        false_alarm, attack, moments = _pinned_run(F)
        assert (false_alarm.successes, false_alarm.estimate) == self.GOLDEN[F][0]
        assert (attack.successes, attack.estimate) == self.GOLDEN[F][1]
        # libm may round a cos or sin differently on another platform; a changed
        # stream moves the mean by about 2e-4.
        mean, variance = self.PILOT_MOMENTS
        assert moments.mean == pytest.approx(mean, rel=1e-12)
        assert moments.variance == pytest.approx(variance, rel=1e-12)

    @pytest.mark.parametrize("F", sorted(SMALL_F_ATTACK))
    def test_small_f_attack_is_all_head(self, F):
        assert _pinned_run(F)[1].successes == self.SMALL_F_ATTACK[F]

    def test_pinned_where_the_window_is_narrow_and_rows_succeed(self):
        params = make(F=9, h_min=0.5, lambda_B=50.0, lambda_T=50.0, pilot_count=1)
        r = radius(params, channel.threshold_from_pfa(params.p_FA, params.F))
        assert montecarlo._window(0.5, 1.0, r) == (0.5, 1.0)
        counts = [measure_attack_success(params, r, BLOCK_TRIALS, s).successes for s in range(8)]
        assert counts == self.NARROW_WINDOW_ATTACK

    @pytest.mark.parametrize(
        "tile_bytes",
        [BLOCK_TRIALS * 16 * 100, 7 * 8 * 100],
        ids=["whole_block", "tiles_of_7_and_3_rows"],
    )
    def test_tile_size_invariance(self, monkeypatch, tile_bytes):
        expected = _pinned_run(100)
        monkeypatch.setattr(montecarlo, "TILE_BYTES", tile_bytes)
        assert _pinned_run(100) == expected

    def test_worker_count_invariance(self):
        assert _pinned_run(100, jobs=3) == _pinned_run(100)

    @pytest.mark.parametrize("spawn_key", [(0,), (3,), (2, 1)])
    def test_negative_seed_is_its_twos_complement(self, spawn_key):
        negative = montecarlo._block_rng(-1, *spawn_key).random(8)
        assert np.array_equal(negative, montecarlo._block_rng(2**64 - 1, *spawn_key).random(8))


class TestSeedingPoint:
    """Every kernel draws only from ``_block_rng``: one stream per block, or
    one per child stream of a pilot block.

    The patched ``_block_rng`` hands out the streams of seed + OFFSET, so a
    run at seed 5 reproduces the unpatched run at 5 + OFFSET only if no draw
    bypasses it.
    """

    OFFSET = 1000
    BLOCKS = [(0,), (1,), (2,)]  # PIN_TRIALS fills two blocks and part of a third
    KERNELS = {
        "false_alarm": (lambda seed: measure_false_alarm(make(F=3), 0.5, PIN_TRIALS, seed), BLOCKS),
        "attack": (
            lambda seed: measure_attack_success(make(F=3), radius(make(F=3), 0.5), PIN_TRIALS, seed),
            BLOCKS,
        ),
        "pilot": (
            lambda seed: simulate_pilot_estimation(1.0, 100.0, 4, PIN_TRIALS, seed),
            [block + (child,) for block in BLOCKS for child in (0, 1)],
        ),
    }

    def _streams(self, monkeypatch, run):
        """The spawn keys ``run(5)`` draws from, sorted; the run must
        reproduce ``run(5 + OFFSET)``."""
        expected = run(5 + self.OFFSET)
        block_rng = montecarlo._block_rng
        calls = []

        def counting(seed, *spawn_key):
            calls.append((seed, spawn_key))
            return block_rng(seed + self.OFFSET, *spawn_key)

        monkeypatch.setattr(montecarlo, "_block_rng", counting)
        assert run(5) == dataclasses.replace(expected, seed=5)
        assert {seed for seed, _ in calls} == {5}
        return sorted(key for _, key in calls)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_one_stream_per_block(self, monkeypatch, kernel):
        run, streams = self.KERNELS[kernel]
        assert self._streams(monkeypatch, run) == streams


def _in_fresh_thread(fn, *args):
    """``fn(*args)`` in a new thread, which starts with no scratch arena."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def _peak_bytes(kernel, *args):
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _arena_and_peak(kernel, *args):
    """The bytes of the scratch arena a fresh thread holds after one
    ``kernel(*args)`` call, and the call's peak traced allocation."""

    def run():
        peak = _peak_bytes(kernel, *args)
        return montecarlo._scratch.arena.nbytes, peak

    return _in_fresh_thread(run)


class TestBoundedMemory:
    """One block's scratch arena, and so its peak allocation, is set by the
    tile budget, not by F; a run's by the arenas of its worker threads.
    Each case runs in a fresh thread, whose arena starts empty.

    Untiled, 2048 rows of the attack at F=1000 would hold 64 MiB, and of
    the pilot estimation at 1000 pilots about 110 MiB.  A quarter tile of
    slack covers the per-row statistics.
    """

    @pytest.mark.parametrize("F", [1000, 4000])
    def test_attack_block(self, F):
        arena, peak = _arena_and_peak(montecarlo._attack_block, 1, 0, 2048, F, 0.0, 1.0, 0.6 * F)
        # the draws and the amplitudes of one tile
        assert arena <= peak < 2.25 * montecarlo.TILE_BYTES

    @pytest.mark.parametrize("F", [1000, 4000])
    def test_false_alarm_block(self, F):
        arena, peak = _arena_and_peak(montecarlo._false_alarm_block, 1, 0, 2048, F, 1.6)
        assert arena <= peak < 0.25 * montecarlo.TILE_BYTES  # one chi-square value per row

    @pytest.mark.parametrize("pilots", [100, 1000])
    def test_pilot_block(self, pilots):
        arena, peak = _arena_and_peak(montecarlo._pilot_block, 1, 0, 2048, 1.0, 0.1, pilots)
        # the noise tile, and its real and imaginary parts and the phases in half tiles
        assert arena <= peak < 2.75 * montecarlo.TILE_BYTES

    def test_arena_is_held_between_calls(self):
        # At the benchmark's input, the shipped point (F 1000, h_min 0.9,
        # radius^2 0.0123, 1 pilot), a second round of calls allocates no
        # tile: the smallest, the false-alarm values, takes 128 KiB.
        calls = [
            (montecarlo._false_alarm_block, 1, 0, BLOCK_TRIALS, 1000, 5.0),
            (montecarlo._attack_block, 1, 0, BLOCK_TRIALS, 1000, 0.9, 1.0, 0.0123),
            (montecarlo._pilot_block, 1, 0, BLOCK_TRIALS, 1.0, 0.003, 1),
        ]

        def twice():
            arenas, peaks = [], []
            for _ in range(2):
                peaks.append([_peak_bytes(*call) for call in calls])
                arenas.append(montecarlo._scratch.arena)
            return arenas, peaks

        arenas, (first, second) = _in_fresh_thread(twice)
        assert arenas[0] is arenas[1]
        assert first[0] > 8 * BLOCK_TRIALS  # the first call made the arena
        assert max(second) < BLOCK_TRIALS

    def test_two_worker_threads(self, monkeypatch):
        # Four short blocks keep both threads busy, and the run holds at most
        # two arenas, one per thread.  The pool's module is imported first:
        # its one-time import is no part of a run's working set.
        import concurrent.futures  # noqa: F401

        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 2048)
        params = make(F=1000, h_min=0.0, pilot_count=1)
        peak = _peak_bytes(measure_attack_success, params, radius(params, 1.6), 4 * 2048, 1, 2)
        assert peak < 2 * 2.25 * montecarlo.TILE_BYTES


class TestScratchArena:
    """A thread's arena is reused across calls of every shape, so no call
    may read what an earlier one left in it: each result must equal the
    same call made in a fresh thread."""

    # (F, pilots): large, then small, then large again.
    SEQUENCE = [(1000, 4), (2, 1), (1000, 4)]
    TRIALS = BLOCK_TRIALS + 1000  # a full block, then a partial one

    @classmethod
    def run(cls, F, pilots):
        results = []
        # At h_min = 0.5 the attack window is the positive half at F = 2 and
        # every uniform at F = 1000.
        for params in (make(F=F, h_min=0.0), make(F=F, h_min=0.5)):
            tau = channel.threshold_from_pfa(params.p_FA, params.F)
            results.append(measure_false_alarm(params, tau, cls.TRIALS, seed=21))
            results.append(measure_attack_success(params, math.sqrt(F / 3.0), cls.TRIALS, seed=22))
        results.append(simulate_pilot_estimation(1.0, 100.0, pilots, cls.TRIALS, seed=23))
        return results

    @pytest.mark.parametrize("tile_bytes", [None, 7 * 8 * 2000], ids=["tiles", "small_tiles"])
    def test_results_equal_fresh_thread_runs(self, monkeypatch, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(montecarlo, "TILE_BYTES", tile_bytes)
        one_thread = _in_fresh_thread(lambda: [self.run(*case) for case in self.SEQUENCE])
        assert one_thread == [_in_fresh_thread(self.run, *case) for case in self.SEQUENCE]

    def test_many_threads_keep_their_own_arenas(self, monkeypatch):
        # Eight worker threads on short blocks, switching as often as the
        # interpreter allows: a block that wrote into another thread's arena
        # would move a count or a moment.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1024)

        def run(jobs):
            params = make(F=100, h_min=0.5)
            tau = channel.threshold_from_pfa(params.p_FA, params.F)
            trials = 16 * 1024 + 100
            return (
                measure_false_alarm(params, tau, trials, seed=31, jobs=jobs),
                # About half the rows succeed, then about 0.2% at F = 9, where
                # the window is the positive half.
                measure_attack_success(params, math.sqrt(115.0), trials, 32, jobs),
                measure_attack_success(make(F=9, h_min=0.5), math.sqrt(0.32), trials, 32, jobs),
                simulate_pilot_estimation(1.0, 100.0, 3, trials, seed=33, jobs=jobs),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == run(1)

    def test_simulate_output_is_unchanged_by_a_call_between(self):
        def simulate(config):
            argv = ["simulate", "--config", config, "--trials", str(self.TRIALS), "--seed", "3"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--jobs", "1"])
            return code, out.getvalue()

        shipped = str(ROOT / "configs" / "point_high_snr.json")  # F 100, 1 pilot
        first = simulate(shipped)
        simulate(str(ROOT / "configs" / "validate_small_f.json"))  # F 2, 10 pilots
        assert simulate(shipped) == first


def test_imports_no_analytic_module():
    # The kernels sample the ball, threshold or law they are given.  Mapping a
    # threshold to a ball belongs to ``channel`` alone; a second copy here
    # would share its formulas rather than check them.
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("crpla")):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "params" in names  # the walk sees the package's own imports
    assert not names & {"channel", "coding", "hybrid", "sweep"}
