"""Channel-check geometry tests: thresholds, statistic, volumes, key bits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpla import channel, cli
from crpla.channel import (
    equivalent_key_bits,
    sigma_h_sq,
    threshold_from_pfa,
)
from crpla.errors import DomainError, InvalidPilotCount
from crpla.montecarlo import wilson_interval
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
    def test_asymptotically_standard_normal(self):
        # 1e5 draws of the F=100 statistic (sum of squared unit residuals - F) / sqrt(2F)
        # under the legitimate hypothesis
        rng = np.random.default_rng(7)
        F, trials = 100, 100_000
        residuals = rng.standard_normal((trials, F))
        stats = (np.einsum("ij,ij->i", residuals, residuals) - F) / math.sqrt(2.0 * F)
        assert abs(float(np.mean(stats))) < 0.02
        assert 0.9 < float(np.var(stats)) < 1.1


def log2_success(params, tau):
    """log2 of the attack-success probability at threshold ``tau``."""
    return channel.geometry(params, tau, params.pilot_count, params.h_min).log2_p_succ


class TestLog2PSucc:
    def test_clamped_when_sphere_dominates(self):
        params = make(lambda_B=1e-6, pilot_count=1)  # enormous estimator noise
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

    def test_requires_pilots(self):
        with pytest.raises(InvalidPilotCount):
            equivalent_key_bits(make(pilot_count=0), 1e-7)

    def test_exact_threshold_option(self):
        asymptotic = equivalent_key_bits(make(lambda_B=1e5), 0.05)
        exact = equivalent_key_bits(make(lambda_B=1e5), 0.05, exact_threshold=True)
        assert exact.tau == pytest.approx(threshold_from_pfa(0.05, 100, exact=True), rel=1e-12)
        assert exact.tau > asymptotic.tau
        assert exact.b_ch < asymptotic.b_ch


def fit_params(F, h_min, radius_over_fit):
    """One-pilot parameters, h_max = 1, whose ball at tau = 0 has the given
    radius over the fit radius: (1 - h_min)/2 for h_min > 0, 1 for h_min = 0."""
    fit = 0.5 * (1.0 - h_min) if h_min > 0.0 else 1.0
    lambda_B = F / (radius_over_fit * fit) ** 2  # radius**2 = F / lambda_B at tau = 0
    return make(F=F, pilot_count=1, lambda_B=lambda_B, h_min=h_min, h_max=1.0)


def centre_guess_successes(params, radius, trials, rng):
    """Successes of the attacker who guesses the centre of a randomly signed
    cube, or the origin when h_min = 0, against uniform challenges on S."""
    F, h_min, span = params.F, params.h_min, params.h_max - params.h_min
    centre = h_min + 0.5 * span if h_min > 0.0 else 0.0
    successes = 0
    for start in range(0, trials, 1 << 16):
        rows = min(1 << 16, trials - start)
        v = rng.uniform(-1.0, 1.0, (rows, F))
        d = np.copysign(h_min + np.abs(v) * span, v)  # the challenge h
        d -= np.copysign(centre, rng.uniform(-1.0, 1.0, (rows, F)))  # minus the guess
        successes += int(np.count_nonzero(np.einsum("ij,ij->i", d, d) <= radius * radius))
    return successes


class TestFitRadius:
    """b_ch is the best single guess's success inside the fit radius and a
    lower bound on security beyond it (Anderson, Proc. AMS 6, 1955)."""

    # 100 expected successes cost at most 2e6 trials at this floor
    MIN_P_SUCC = 5e-5

    def test_value_with_floor(self):
        # tau = 0 at F = 2: radius**2 = 2 sigma_h^2 = 2e-4, fit radius (1 - 0.5)/2
        geo = channel.geometry(make(F=2, lambda_B=1e4, pilot_count=1), 0.0, 1, 0.5)
        assert geo.radius_over_fit == pytest.approx(math.sqrt(2e-4) / 0.25, rel=1e-14)

    def test_value_without_floor(self):
        geo = channel.geometry(make(F=2, lambda_B=1e4, pilot_count=1, h_max=2.0), 0.0, 1, 0.0)
        assert geo.radius_over_fit == pytest.approx(math.sqrt(2e-4) / 2.0, rel=1e-14)

    def test_grid_matches_points(self):
        params = make(lambda_B=1e5)
        pilots, h_values = np.array([[1], [4]]), np.array([0.0, 0.5, 0.9, 1.0])
        grid = channel.geometry(params, 1.5, pilots, h_values).radius_over_fit
        for (i, j), value in np.ndenumerate(grid):
            point = channel.geometry(params, 1.5, int(pilots[i, 0]), h_values[j])
            assert value == point.radius_over_fit
        assert np.isinf(grid[:, -1]).all()

    def test_null_in_analyze_json_without_span(self, tmp_path):
        config = {
            "n": 10,
            "F": 100,
            "alpha": 0.1,
            "b_M": 600,
            "p_FA": 1e-7,
            "lambda_B_dB": 50,
            "lambda_T_over_lambda_B": 0.3,
            "h_min": 1.0,
            "h_max": 1.0,
        }
        path, out = tmp_path / "p.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        assert cli.main(["analyze", "--config", str(path), "--quiet", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["channel_geometry"]["radius_over_fit"] is None

    @pytest.mark.parametrize("h_min", [0.0, 0.5])
    @pytest.mark.parametrize("F", [1, 2, 3, 8])
    def test_ball_fits_in_cube_up_to_fit_radius(self, F, h_min):
        rng = np.random.default_rng(F)
        direction = rng.standard_normal((100_000, F))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        unit_ball = direction * rng.random((100_000, 1)) ** (1.0 / F)
        centre = 0.5 * (1.0 + h_min) if h_min > 0.0 else 0.0
        low = h_min if h_min > 0.0 else -1.0
        outside = {}
        for target in (0.5, 1.0, 1.1):
            geo = equivalent_key_bits(fit_params(F, h_min, target), 0.5)
            assert geo.radius_over_fit == pytest.approx(target, rel=1e-12)
            points = centre + geo.radius * unit_ball
            inside = np.all((points >= low) & (points <= 1.0), axis=1)
            outside[target] = int(np.count_nonzero(~inside))
        assert outside[0.5] == outside[1.0] == 0
        assert outside[1.1] > 0

    def centre_guess_interval(self, F, h_min, radius_over_fit):
        """The bound and the centre-guess attacker's Wilson 3-sigma interval,
        with the radius raised where needed to resolve 100 successes."""
        params = fit_params(F, h_min, radius_over_fit)
        p_succ = 2.0 ** equivalent_key_bits(params, 0.5).log2_p_succ
        if p_succ < self.MIN_P_SUCC:  # the bound scales as radius**F here
            radius_over_fit *= (self.MIN_P_SUCC / p_succ) ** (1.0 / F)
            params = fit_params(F, h_min, radius_over_fit)
        geo = equivalent_key_bits(params, 0.5)
        p_succ = 2.0**geo.log2_p_succ
        trials = math.ceil(100.0 / p_succ)
        successes = centre_guess_successes(params, geo.radius, trials, np.random.default_rng(F))
        return p_succ, wilson_interval(successes, trials)

    @given(
        F=st.integers(1, 8),
        h_min=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
        radius_over_fit=st.floats(0.2, 1.0),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_centre_guess_reaches_the_bound_inside(self, F, h_min, radius_over_fit):
        p_succ, (low, high) = self.centre_guess_interval(F, h_min, radius_over_fit)
        assert low <= p_succ <= high

    @given(
        F=st.integers(1, 8),
        h_min=st.one_of(st.just(0.0), st.floats(0.05, 0.95)),
        radius_over_fit=st.floats(1.0, 2.0, exclude_min=True),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_centre_guess_stays_below_the_bound_beyond(self, F, h_min, radius_over_fit):
        p_succ, (low, _) = self.centre_guess_interval(F, h_min, radius_over_fit)
        assert low <= p_succ
