"""Monte Carlo harness tests: determinism, distributions, oracle checks.

The heavyweight 1e7-trial agreements live in the acceptance suite; here
the same machinery runs at reduced trial counts with seeded draws.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from crpla import channel, cli, montecarlo
from crpla.errors import InsufficientResolutionWarning
from crpla.montecarlo import (
    BLOCK_TRIALS,
    TrialBatch,
    measure_attack_success,
    measure_false_alarm,
    simulate_pilot_estimation,
    wilson_interval,
)
from crpla.params import SystemParams
from crpla.specfun import chi_square_sf


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
        tau = channel.threshold_from_pfa(params.p_FA)
        a = measure_attack_success(params, tau, 50_000, seed=11)
        b = measure_attack_success(params, tau, 50_000, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        params = make()
        tau = channel.threshold_from_pfa(params.p_FA)
        a = measure_attack_success(params, tau, 200_000, seed=11)
        b = measure_attack_success(params, tau, 200_000, seed=12)
        assert a.successes != b.successes

    def test_worker_count_invariance(self):
        params = make()
        tau = channel.threshold_from_pfa(params.p_FA)
        trials = 3 * BLOCK_TRIALS + 123  # exercises a partial final block
        serial = measure_attack_success(params, tau, trials, seed=3, jobs=1)
        parallel = measure_attack_success(params, tau, trials, seed=3, jobs=4)
        assert serial == parallel
        fa_serial = measure_false_alarm(params, tau, trials, seed=3, jobs=1)
        fa_parallel = measure_false_alarm(params, tau, trials, seed=3, jobs=3)
        assert fa_serial == fa_parallel
        m_serial = simulate_pilot_estimation(1.0, 100.0, 10, trials, seed=3, jobs=1)
        m_parallel = simulate_pilot_estimation(1.0, 100.0, 10, trials, seed=3, jobs=4)
        assert m_serial == m_parallel


class TestChallengeDraw:
    """The law of one attack trial: challenge h | guess a from 2F uniforms."""

    @staticmethod
    def draw(params, rng):
        row = montecarlo._signed_amplitudes(rng.random(2 * params.F), params.h_min, params.h_max)
        return row[: params.F], row[params.F :]

    def test_bounds_and_shapes(self):
        params = make(F=7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, a = self.draw(params, rng)
            assert h.shape == (7,) and a.shape == (7,)
            for vec in (h, a):
                mag = np.abs(vec)
                assert np.all(mag >= params.h_min) and np.all(mag <= params.h_max)

    def test_signs_realized(self):
        params = make(F=100)
        rng = np.random.default_rng(1)
        h, _ = self.draw(params, rng)
        assert np.any(h < 0) and np.any(h > 0)


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
        tau = channel.threshold_from_pfa(0.05)
        batch = measure_false_alarm(params, tau, 200_000, seed=7)
        exact = chi_square_sf(math.sqrt(200.0) * tau + 100.0, 100)
        assert batch.contains(exact)

    def test_invariant_to_challenge_distribution(self):
        # the statistic depends only on the residuals, so h is not even drawn
        tau = channel.threshold_from_pfa(0.05)
        spread = measure_false_alarm(make(F=100), tau, 200_000, seed=8)
        pinned = measure_false_alarm(make(F=100, h_min=1.0), tau, 200_000, seed=8)
        assert spread == pinned


class TestAttackSuccess:
    def test_sphere_engulfs_support(self):
        params = make(F=2, lambda_B=1e-3, pilot_count=1)  # radius >> span
        batch = measure_attack_success(params, channel.threshold_from_pfa(0.05), 5_000, seed=9)
        assert batch.estimate == 1.0

    def test_sign_ambiguity_only(self):
        # pinned magnitude: success iff all F sign guesses match, rate 2^-F
        params = make(F=3, h_min=1.0, h_max=1.0, lambda_B=1e6)
        batch = measure_attack_success(params, 0.0, 200_000, seed=10)
        assert batch.contains(2.0**-3)

    def test_headline_geometry_agreement(self):
        params = make(F=2)
        tau = channel.threshold_from_pfa(0.05)
        geometry = channel.geometry(params, tau, params.pilot_count, params.h_min)
        analytic = 2.0**geometry.log2_p_succ
        batch = measure_attack_success(params, tau, 1_000_000, seed=11)
        assert batch.contains(analytic)

    def test_insufficient_resolution_warns(self):
        # simulate judges the count: 2^-856 * 2000 successes are expected
        params = make(F=100, lambda_B=1e5, h_min=0.0, p_FA=1e-7)
        with pytest.warns(InsufficientResolutionWarning, match="no successes in 2000 trials"):
            rows = cli.simulate_rows(params, 2_000, seed=11)
        assert rows[2][0] == "attack_success" and rows[2][-1] == "WARN"

    def test_measurement_does_not_judge(self):
        params = make(F=100, lambda_B=1e5, h_min=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = measure_attack_success(
                params, channel.threshold_from_pfa(1e-7), 2_000, seed=12
            )
        assert batch.successes == 0


# Two full blocks and a partial one.
PIN_TRIALS = 2 * BLOCK_TRIALS + 1000


def _pinned_run(F, jobs=1):
    """Every count and moment of the seeded runs the stream contract pins.

    h_min = 0 and sigma_h^2 = 0.6 put the attack success near 0.8 at F=100
    and 0.2 at F=1000, so both counts move with any change of stream.
    """
    params = make(F=F, h_min=0.0, pilot_count=1, lambda_B=1.0 / 0.6)
    tau = channel.threshold_from_pfa(0.05)
    return (
        measure_false_alarm(params, tau, PIN_TRIALS, seed=21, jobs=jobs),
        measure_attack_success(params, tau, PIN_TRIALS, seed=22, jobs=jobs),
        simulate_pilot_estimation(1.0, 100.0, 10, PIN_TRIALS, seed=23, jobs=jobs),
    )


class TestStreamContract:
    """(seed, trials) -> result, pinned for version 2 of the draw order."""

    # F -> ((false-alarm successes, estimate), (attack successes, estimate))
    GOLDEN = {
        100: ((1980, 0.05863539445628998), (27779, 0.8226427386875148)),
        1000: ((1802, 0.053364131722340676), (6133, 0.181621653636579)),
    }
    # The pilot stream is unchanged from version 1.
    PILOT_MOMENTS = (1.0000936585668823, 0.0010048616573650013)

    @pytest.mark.parametrize("F", sorted(GOLDEN))
    def test_pinned(self, F):
        false_alarm, attack, moments = _pinned_run(F)
        assert (false_alarm.successes, false_alarm.estimate) == self.GOLDEN[F][0]
        assert (attack.successes, attack.estimate) == self.GOLDEN[F][1]
        # libm may round an exp differently on another platform; a changed
        # stream moves the mean by about 2e-4.
        mean, variance = self.PILOT_MOMENTS
        assert moments.mean == pytest.approx(mean, rel=1e-12)
        assert moments.variance == pytest.approx(variance, rel=1e-12)

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


def _peak_bytes(kernel, task):
    tracemalloc.start()
    try:
        kernel(task)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """One block's peak allocation is set by the tile budget, not by F.

    Untiled, 2048 rows of the attack at F=1000 would hold 64 MiB.  A
    quarter tile of slack covers the per-row statistics.
    """

    @pytest.mark.parametrize("F", [1000, 4000])
    def test_attack_block(self, F):
        peak = _peak_bytes(montecarlo._attack_block, (1, 0, 2048, F, 0.0, 1.0, 0.6 * F))
        assert peak < 2.25 * montecarlo.TILE_BYTES  # draws and amplitudes of one tile

    @pytest.mark.parametrize("F", [1000, 4000])
    def test_false_alarm_block(self, F):
        peak = _peak_bytes(montecarlo._false_alarm_block, (1, 0, 2048, F, 1.6))
        assert peak < 1.25 * montecarlo.TILE_BYTES  # the residuals of one tile
