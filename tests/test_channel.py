"""Channel-check geometry tests: thresholds, statistic, volumes, key bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpla import channel
from crpla.channel import (
    equivalent_key_bits,
    sigma_h_sq,
    threshold_from_pfa,
)
from crpla.errors import DimensionMismatch, DomainError, InvalidPilotCount, NarrowMarginWarning
from crpla.params import SystemParams
from crpla.specfun import chi_square_sf, log_gamma


def make(**overrides):
    base = dict(
        n=10,
        F=100,
        pilot_count=10,
        b_M=600,
        p_FA=1e-7,
        lambda_B=1e3,
        lambda_T=3e2,
        h_min=0.0,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


class TestThresholds:
    def test_median(self):
        assert threshold_from_pfa(0.5, 100) == 0.0

    def test_tail_values(self):
        assert threshold_from_pfa(1e-7, 100) == pytest.approx(5.1993375821928169, rel=1e-12)
        assert threshold_from_pfa(0.05, 100) == pytest.approx(1.6448536269514727, rel=1e-12)

    def test_exact_two_dof_closed_form(self):
        # survival of chi2_2 is exp(-x/2); invert by hand
        for p in (0.3, 0.05, 1e-4):
            expected = (-2.0 * math.log(p) - 2.0) / 2.0
            assert threshold_from_pfa(p, 2, exact=True) == pytest.approx(expected, rel=1e-12)

    def test_exact_round_trip(self):
        # the budgets the library inverts: 0.05 and 1e-3 in the demos,
        # p_FA = 1e-7 for CH and p_FA / 2 = 5e-8 for each hybrid check
        for p in (0.05, 1e-3, 1e-7, 5e-8):
            for F in (1, 2, 10, 100, 1000):
                tau = threshold_from_pfa(p, F, exact=True)
                back = chi_square_sf(math.sqrt(2.0 * F) * tau + F, F)
                assert back == pytest.approx(p, rel=1e-12)

    def test_asymptotic_overshoot_at_shipped_budget(self):
        # The asymptotic law spends about 97x the hybrid's channel budget at
        # the shipped F = 100 and p_FA = 1e-7 (ROADMAP item 8).
        tau = threshold_from_pfa(5e-8, 100)
        realised = chi_square_sf(math.sqrt(200.0) * tau + 100.0, 100)
        assert realised / 5e-8 == pytest.approx(96.76, rel=1e-3)

    def test_exact_near_asymptotic_at_f100(self):
        exact = threshold_from_pfa(0.05, 100, exact=True)
        assert abs(exact - threshold_from_pfa(0.05, 100)) < 0.2

    def test_exact_converges_to_asymptotic(self):
        gap_small = abs(threshold_from_pfa(0.5, 100, exact=True) - 0.0)
        gap_large = abs(threshold_from_pfa(0.5, 100_000, exact=True) - 0.0)
        assert gap_large < gap_small
        assert gap_large < 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            threshold_from_pfa(0.0, 100)
        with pytest.raises(DomainError):
            threshold_from_pfa(0.05, 0)
        with pytest.raises(DomainError):
            threshold_from_pfa(0.05, 0, exact=True)


class TestTestStatistic:
    def test_zero_residuals(self):
        h = np.full(8, 0.7)
        assert channel.test_statistic(h, h, 1e-3) == pytest.approx(-math.sqrt(8 / 2.0), rel=1e-12)

    def test_unit_scaled_residuals(self):
        sigma_sq = 4e-4
        h = np.linspace(0.5, 1.0, 5)
        h_hat = h + math.sqrt(sigma_sq)
        assert channel.test_statistic(h_hat, h, sigma_sq) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_f2(self):
        sigma_sq = 0.01
        h = np.array([0.6, 0.8])
        h_hat = np.array([0.6 + 2.0 * math.sqrt(sigma_sq), 0.8])
        # (4 - 2) / sqrt(4) = 1
        assert channel.test_statistic(h_hat, h, sigma_sq) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            channel.test_statistic(np.ones(3), np.ones(4), 1.0)
        with pytest.raises(DimensionMismatch):
            channel.test_statistic(np.ones(0), np.ones(0), 1.0)

    def test_asymptotically_standard_normal(self):
        # 1e5 draws of the F=100 statistic under the legitimate hypothesis
        rng = np.random.default_rng(7)
        F, trials = 100, 100_000
        residuals = rng.standard_normal((trials, F))
        stats = (np.einsum("ij,ij->i", residuals, residuals) - F) / math.sqrt(2.0 * F)
        spot = channel.test_statistic(residuals[0] + 0.5, np.full(F, 0.5), 1.0)
        assert spot == pytest.approx(stats[0], rel=1e-9)
        assert abs(float(np.mean(stats))) < 0.02
        assert 0.9 < float(np.var(stats)) < 1.1


def log2_success(params, tau):
    """log2 of the attack-success probability at threshold ``tau``."""
    return channel.geometry(params, tau, params.pilot_count, params.h_min).log2_p_succ


class TestLog2PSucc:
    def test_clamped_when_sphere_dominates(self):
        params = make(lambda_B=1e-6, pilot_count=1)  # enormous estimator noise
        with pytest.warns(NarrowMarginWarning):
            assert log2_success(params, threshold_from_pfa(0.05, params.F)) == 0.0

    def test_f2_hand_value(self):
        # radius^2 = 2 sigma^2 at tau=0; V_s/V_c = pi*2e-4/4 for sigma=0.01, span=1
        params = make(F=2, lambda_B=1e4, pilot_count=1, h_min=0.0, h_max=1.0)
        assert sigma_h_sq(params) == pytest.approx(1e-4, rel=1e-14)
        value = log2_success(params, 0.0)
        assert value == pytest.approx(math.log2(math.pi * 2e-4 / 4.0), rel=1e-12)

    def test_fig_parameters_finite_and_large(self):
        params = make(lambda_B=1e5)
        value = log2_success(params, threshold_from_pfa(1e-7, params.F))
        assert math.isfinite(value)
        assert 100.0 < -value < 2000.0

    def test_no_overflow_at_extreme_f(self):
        for F in (1_000, 10_000):
            params = make(F=F, lambda_B=1e5)
            assert math.isfinite(log2_success(params, threshold_from_pfa(1e-7, params.F)))

    def test_matches_direct_formula_at_small_f(self):
        # direct (non-log) volume ratio is representable for small F
        for F in range(1, 21):
            params = make(F=F, lambda_B=1e4)
            tau = threshold_from_pfa(0.05, F)
            chi = math.sqrt(2.0 * F) * tau + F
            radius = math.sqrt(chi * sigma_h_sq(params))
            v_s = math.pi ** (F / 2.0) / math.exp(log_gamma(F / 2.0 + 1.0)) * radius**F
            v_c = 2.0**F * 1.0**F
            direct = min(0.0, math.log2(v_s / v_c))
            assert log2_success(params, tau) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_degenerate_span_convention(self):
        params = make(h_min=1.0, h_max=1.0)
        assert log2_success(params, threshold_from_pfa(0.05, params.F)) == 0.0


class TestEquivalentKeyBits:
    def test_geometry_invariants(self):
        params = make(lambda_B=1e5)
        geo = equivalent_key_bits(params, 1e-7)
        chi = math.sqrt(200.0) * geo.tau + 100.0
        assert geo.radius**2 == pytest.approx(chi * geo.sigma_h_sq, rel=1e-12)
        assert geo.log2_p_succ == pytest.approx(
            min(0.0, geo.log2_v_sphere - geo.log2_v_cube), rel=1e-12
        )
        assert geo.b_ch == -geo.log2_p_succ
        assert geo.b_ch >= 0.0

    def test_degenerate_span_gives_zero_bits(self):
        geo = equivalent_key_bits(make(h_min=1.0, h_max=1.0), 1e-7)
        assert geo.b_ch == 0.0
        assert geo.log2_p_succ == 0.0

    def test_monotone_in_pilot_count(self):
        values = [
            equivalent_key_bits(make(n=64, pilot_count=k, lambda_B=1e5), 1e-7).b_ch
            for k in (4, 8, 16, 32, 64)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_pfa_through_tau(self):
        # A laxer false-alarm budget lowers tau, shrinking the acceptance
        # sphere, so the attacker has less room: b_ch grows with p_fa.
        strict = equivalent_key_bits(make(lambda_B=1e5), 1e-9).b_ch
        loose = equivalent_key_bits(make(lambda_B=1e5), 1e-3).b_ch
        assert loose >= strict

    @given(scale=st.floats(1.1, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_span_scale_invariance(self, scale):
        # widening the amplitude span by c adds exactly F*log2(c) bits
        params = make(lambda_B=1e7, h_min=0.9, h_max=1.0)
        narrow = equivalent_key_bits(params, 1e-7).b_ch
        wide_params = make(
            lambda_B=1e7, h_min=1.0 - scale * 0.1, h_max=1.0
        )
        wide = equivalent_key_bits(wide_params, 1e-7).b_ch
        assert narrow > 0.0
        assert wide - narrow == pytest.approx(100.0 * math.log2(scale), rel=1e-9)

    def test_warning_when_radius_not_small(self):
        with pytest.warns(NarrowMarginWarning):
            equivalent_key_bits(make(lambda_B=1e2), 1e-7)

    def test_requires_pilots(self):
        with pytest.raises(InvalidPilotCount):
            equivalent_key_bits(make(pilot_count=0), 1e-7)

    def test_exact_threshold_option(self):
        asymptotic = equivalent_key_bits(make(lambda_B=1e5), 0.05)
        exact = equivalent_key_bits(make(lambda_B=1e5), 0.05, exact_threshold=True)
        assert exact.tau == pytest.approx(threshold_from_pfa(0.05, 100, exact=True), rel=1e-12)
        assert exact.tau > asymptotic.tau
        assert exact.b_ch < asymptotic.b_ch
