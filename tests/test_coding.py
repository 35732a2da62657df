"""Coding-security tests: rates, dispersions, key budgets.

Rates and dispersions are read from the ``RateReport`` of the budget
functions, the only place they are computed.

Each derived expectation is recomputed through an independent route in
the test body: closed-form antiderivatives, midpoint Riemann sums, a
seeded sampling oracle for the block-fading dispersion, and a from-
scratch scripted recomputation of the budget chain.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpla import coding
from crpla.coding import b_key_cd, eavesdropper_info, hybrid_rates, mutual_info_fixed
from crpla.params import SystemParams
from crpla.specfun import q_inverse
from quadrature_oracle import uniform_expectation

LOG2E = 1.0 / math.log(2.0)


def make(**overrides):
    base = dict(
        n=10,
        F=100,
        pilot_count=1,
        b_M=600,
        p_FA=1e-7,
        lambda_B=1e3,
        lambda_T=6e2,
        h_min=0.8,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def hybrid_budget(params, p_fa_cd):
    """The hybrid's coding check at the configured split, back-off Qinv(p_fa_cd)."""
    return hybrid_rates(params, q_inverse(p_fa_cd), params.pilot_count, params.h_min)


class TestMutualInformation:
    def test_zero_channel(self):
        assert mutual_info_fixed(0.0, 123.0) == 0.0

    def test_unit_point(self):
        assert mutual_info_fixed(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_high_snr_point(self):
        # log2(101), frozen from a 50-digit evaluation
        assert mutual_info_fixed(1.0, 100.0) == pytest.approx(6.6582114827517947, rel=1e-13)

    def test_strictly_increasing(self):
        assert mutual_info_fixed(0.9, 100.0) < mutual_info_fixed(1.0, 100.0)
        assert mutual_info_fixed(1.0, 100.0) < mutual_info_fixed(1.0, 200.0)

    def test_eavesdropper_small_and_unit(self):
        assert eavesdropper_info(1.0) == pytest.approx(1.0, rel=1e-14)
        assert eavesdropper_info(1e-9) == pytest.approx(1e-9 * LOG2E, rel=1e-9)

    def test_eavesdropper_fig_point(self):
        # log2(30001), frozen from a 50-digit evaluation
        assert eavesdropper_info(0.3e5) == pytest.approx(14.872722969303822, rel=1e-13)


class TestRateCd:
    def test_no_back_off_at_half(self):
        params = make(pilot_count=0, h_min=1.0)
        assert b_key_cd(params, 0.5).rate == pytest.approx(
            mutual_info_fixed(1.0, params.lambda_B), rel=1e-14
        )

    def test_back_off_vanishes_with_blocklength(self):
        small = make(pilot_count=0, h_min=1.0, F=10)
        big = make(pilot_count=0, h_min=1.0, F=1_000_000)
        info = mutual_info_fixed(1.0, small.lambda_B)
        assert info - b_key_cd(big, 1e-7).rate < (info - b_key_cd(small, 1e-7).rate) / 100.0

    def test_term_by_term_recomputation(self):
        params = make(pilot_count=0, h_min=1.0, lambda_B=1e5)
        s = 1e5
        back_off = math.sqrt(s * (s + 2.0) * LOG2E**2 / ((s + 1.0) ** 2 * 1000.0)) * q_inverse(5e-8)
        expected = math.log2(1.0 + s) - back_off
        assert b_key_cd(params, 5e-8).rate == pytest.approx(expected, rel=1e-12)

    def test_h_max_enters_effective_snr(self):
        shrunk = make(pilot_count=0, h_min=0.5, h_max=0.5)
        s = 0.25 * shrunk.lambda_B
        expected = math.log2(1.0 + s) - math.sqrt(
            s * (s + 2.0) * LOG2E**2 / ((s + 1.0) ** 2 * 1000.0)
        ) * q_inverse(1e-7)
        assert b_key_cd(shrunk, 1e-7).rate == pytest.approx(expected, rel=1e-12)


def _scripted_cd_budget(n, F, b_m, p_fa, lambda_b, lambda_t, h_max=1.0):
    """Independent end-to-end recomputation of the coding budget chain."""
    s = h_max * h_max * lambda_b
    nf = n * F
    rate = math.log2(1.0 + s) - math.sqrt(
        s * (s + 2.0) / (s + 1.0) ** 2 * LOG2E**2 / nf
    ) * q_inverse(p_fa)
    i_xz = math.log2(1.0 + lambda_t)
    return max(0.0, min(nf * rate - b_m, nf * (rate - i_xz)))


class TestBKeyCd:
    def test_strong_eavesdropper_clamps(self):
        params = make(pilot_count=0, h_min=1.0, lambda_T=2e3)  # above h_max^2 lambda_B
        assert b_key_cd(params, 1e-7).b_key == 0.0

    def test_message_consumes_rate(self):
        params = make(pilot_count=0, h_min=1.0, lambda_T=1e-6)
        rate = b_key_cd(params, 1e-7).rate
        greedy = params.replace(b_M=int(params.n * params.F * rate) + 1)
        assert b_key_cd(greedy, 1e-7).b_key == 0.0

    def test_operating_point_vs_scripted_oracle(self):
        params = make(pilot_count=0, h_min=1.0, lambda_B=1e3, lambda_T=600.0)
        report = b_key_cd(params, 5e-8)
        expected = _scripted_cd_budget(10, 100, 600, 5e-8, 1e3, 600.0)
        assert report.b_key == pytest.approx(expected, rel=1e-12)
        assert report.b_key_1 - report.b_key_2 == pytest.approx(
            1000.0 * report.i_xz - 600.0, rel=1e-10
        )

    def test_diagnostics_keep_negative_budgets(self):
        params = make(pilot_count=0, h_min=1.0, lambda_T=2e3)
        report = b_key_cd(params, 1e-7)
        assert report.b_key_2 < 0.0
        assert report.b_key == 0.0


def _riemann(f, a, b, points=2_000_001):
    h = np.linspace(a, b, points, endpoint=False) + (b - a) / (2.0 * points)
    return float(np.mean(f(h)))


class TestDispersionBlockFading:
    def test_degenerate_interval_matches_closed_form(self):
        params = make(h_min=0.7, h_max=0.7, pilot_count=1)
        s = 0.49 * params.lambda_B
        assert hybrid_budget(params, params.p_FA).dispersion == pytest.approx(
            1.0 - 1.0 / (1.0 + s) ** 2, rel=1e-12
        )

    def test_vanishes_at_zero_snr(self):
        params = make(lambda_B=1e-9, lambda_T=1e-9)
        assert hybrid_budget(params, params.p_FA).dispersion < 1e-8

    def test_against_sampling_oracle(self):
        # h in [0.7, 1], lambda 1e4, n' = 9: compare with 1e7 sampled uniforms
        params = make(h_min=0.7, lambda_B=1e4, pilot_count=1)
        value = hybrid_budget(params, params.p_FA).dispersion
        rng = np.random.default_rng(314159)
        h = rng.uniform(0.7, 1.0, 10_000_000)
        info = np.log2(1.0 + h * h * 1e4)
        inv = 1.0 / (1.0 + h * h * 1e4)
        sampled = 9 * float(np.var(info)) + 1.0 - float(np.mean(inv)) ** 2
        # dominant uncertainty: Var estimate of info, relative ~ sqrt(2/N)
        assert value == pytest.approx(sampled, rel=1e-3)

    def test_quadrature_vs_riemann_moments(self):
        for lam in (1e2, 1e3, 1e5):
            params = make(h_min=0.5, lambda_B=lam, pilot_count=1)
            value = hybrid_budget(params, params.p_FA).dispersion
            e_info = _riemann(lambda h: np.log2(1.0 + h * h * lam), 0.5, 1.0)
            e_info2 = _riemann(lambda h: np.log2(1.0 + h * h * lam) ** 2, 0.5, 1.0)
            e_inv = _riemann(lambda h: 1.0 / (1.0 + h * h * lam), 0.5, 1.0)
            oracle = 9 * (e_info2 - e_info**2) + 1.0 - e_inv**2
            assert value == pytest.approx(oracle, rel=1e-7)


class TestAmplitudeMoments:
    """Closed-form means and Gauss-Legendre variance against adaptive quadrature."""

    @given(lam=st.floats(1.0, 1e7), h_min=st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_against_quadrature_oracle(self, lam, h_min):
        mean_info, variance, mean_inv = coding._amplitude_moments(h_min, lam)
        info = lambda h: math.log1p(h * h * lam) * LOG2E
        oracle_mean = uniform_expectation(info, h_min, 1.0)
        oracle_var = uniform_expectation(lambda h: (info(h) - oracle_mean) ** 2, h_min, 1.0)
        oracle_inv = uniform_expectation(lambda h: 1.0 / (1.0 + h * h * lam), h_min, 1.0)
        assert mean_info == pytest.approx(oracle_mean, rel=1e-11)
        assert mean_inv == pytest.approx(oracle_inv, rel=1e-11)
        assert variance == pytest.approx(oracle_var, rel=1e-10)

    @given(lam=st.floats(1.0, 1e7), h_max=st.floats(0.1, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_zero_width_interval_gives_point_values(self, lam, h_max):
        mean_info, variance, mean_inv = coding._amplitude_moments(1.0, lam * h_max * h_max)
        assert mean_info == mutual_info_fixed(h_max, lam)
        assert variance == 0.0
        assert mean_inv == 1.0 / (1.0 + lam * h_max * h_max)

    def test_array_matches_scalar_calls(self):
        h_values = np.array([0.0, 0.003, 0.25, 0.9, 0.99, 1.0])
        stacked = coding._amplitude_moments(h_values, 3e5)
        for k, h_min in enumerate(h_values):
            single = coding._amplitude_moments(h_min, 3e5)
            assert [float(m[k]) for m in stacked] == [float(m) for m in single]

    @given(
        lam=st.floats(0.0, 1e308, exclude_min=True),
        h_max=st.floats(0.0, 1e308),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
        zero_width=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_formula_as_written(self, lam, h_max, fractions, zero_width):
        # the moments build their nodes and piece edges in place; every bit
        # must equal the plain expressions, whatever the row or its overflows
        g = np.array([-0.0, 0.0] + fractions + [1.0] * zero_width)
        snr = lam * h_max * h_max
        moments = coding._amplitude_moments(g, snr)
        for got, want in zip(moments, _moments_as_written(g, snr)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _moments_as_written(g, snr):
    """``coding._amplitude_moments`` as plain expressions: the piece edges
    by clip, concatenate and diff, the nodes by one expression."""
    if math.isinf(snr):
        return np.full(g.shape, math.inf), np.zeros(g.shape), np.zeros(g.shape)
    a = math.sqrt(snr)
    span = 1.0 - g
    n_cuts = 1 + max(0, math.ceil(math.log2(max(a, 1.0))))
    with np.errstate(divide="ignore"):
        cuts = np.clip(2.0 ** np.arange(n_cuts) / a, g[..., None], 1.0)
    edges = np.concatenate([g[..., None], cuts, np.ones(g.shape + (1,))], axis=-1)
    half = 0.5 * np.diff(edges, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        atan_diff = np.arctan(a * span / (1.0 + snr * g))
        log_ratio = np.log1p(snr * span * (1.0 + g) / (1.0 + snr * g * g))
        mean_info = (math.log1p(snr) - 2.0 + (g * log_ratio + 2.0 * atan_diff / a) / span) * LOG2E
        mean_inv = atan_diff / (a * span)
        v = (edges[..., :-1] + half)[..., None] + half[..., None] * coding._GL_NODES
        deviation = np.log1p(v * v * snr) * LOG2E - mean_info[..., None, None]
        variance = (half * ((deviation * deviation) @ coding._GL_WEIGHTS)).sum(axis=-1) / span
    point = (span == 0.0) | (snr == 0.0)
    return (
        np.where(point, math.log1p(snr) * LOG2E, mean_info),
        np.where(point, 0.0, variance),
        np.where(point, 1.0 / (1.0 + snr), mean_inv),
    )


class TestGaussLegendreLiterals:
    """The quadrature's nodes and weights are literals, not computed at
    import; ``tests/test_api.py`` checks that ``numpy.polynomial`` stays
    unloaded."""

    def test_literals_are_leggauss_12(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(coding._GL_NODES, nodes)
        assert np.array_equal(coding._GL_WEIGHTS, weights)


class TestAvgRateHybrid:
    def test_no_back_off_at_half(self):
        params = make()
        rate = hybrid_budget(params, 0.5).rate
        a = math.sqrt(params.lambda_B)
        antider = lambda h: h * math.log(1.0 + a * a * h * h) - 2.0 * h + (2.0 / a) * math.atan(a * h)
        mean_info = (antider(1.0) - antider(0.8)) / math.log(2.0) / 0.2
        assert rate == pytest.approx(mean_info, rel=1e-10)

    def test_degenerate_interval_structure(self):
        # pinned amplitude: mean information collapses to the fixed-SNR value
        params = make(h_min=1.0, h_max=1.0, pilot_count=0)
        rate = hybrid_budget(params, 1e-7).rate
        s = params.lambda_B
        v = 1.0 - 1.0 / (1.0 + s) ** 2
        expected = math.log2(1.0 + s) - math.sqrt(v / 1000.0) * q_inverse(1e-7)
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_scripted_recomputation(self):
        params = make(h_min=0.8, lambda_B=1e5, pilot_count=1)
        rate = hybrid_budget(params, 5e-8).rate
        a = math.sqrt(1e5)
        antider = lambda h: h * math.log(1.0 + a * a * h * h) - 2.0 * h + (2.0 / a) * math.atan(a * h)
        mean_info = (antider(1.0) - antider(0.8)) / math.log(2.0) / 0.2
        e_info2 = _riemann(lambda h: np.log2(1.0 + h * h * 1e5) ** 2, 0.8, 1.0, 20_000_001)
        var_info = e_info2 - mean_info**2
        e_inv = (math.atan(a * 1.0) - math.atan(a * 0.8)) / (a * 0.2)  # closed form
        v = 9 * var_info + 1.0 - e_inv**2
        expected = mean_info - math.sqrt(v / 900.0) * q_inverse(5e-8)
        assert rate == pytest.approx(expected, rel=1e-9)


class TestBKeyHybrid:
    def test_all_pilots_convention(self):
        params = make(pilot_count=10)
        report = hybrid_budget(params, 5e-8)
        assert report.b_key == 0.0
        assert report.rate == 0.0

    def test_strong_eavesdropper_clamps(self):
        params = make(lambda_T=9e2)
        assert hybrid_budget(params, 5e-8).b_key == 0.0

    def test_budget_identity(self):
        report = hybrid_budget(make(), 5e-8)
        n_data_total = 9 * 100
        assert report.b_key_1 - report.b_key_2 == pytest.approx(
            n_data_total * report.i_xz - 600.0, rel=1e-10
        )

    def test_pinned_amplitude_approaches_cd_budget(self):
        # one pilot, amplitude pinned at the top: same budget structure as
        # the pure coding mechanism over the remaining symbols
        params = make(h_min=1.0, h_max=1.0, lambda_B=1e3, lambda_T=300.0)
        hybrid_key = hybrid_budget(params, 1e-7).b_key
        cd_like = _scripted_cd_budget(10, 100, 600, 1e-7, 1e3, 300.0)
        assert hybrid_key > 0.0
        assert hybrid_key == pytest.approx(cd_like, rel=0.12)

    def test_monotone_in_pilots_message_and_floor(self):
        base = make(lambda_B=1e4, lambda_T=1e3)
        by_pilots = [hybrid_budget(base.replace(pilot_count=k), 5e-8).b_key for k in (1, 3, 5, 9)]
        assert all(a >= b for a, b in zip(by_pilots, by_pilots[1:]))
        by_message = [hybrid_budget(base.replace(b_M=m), 5e-8).b_key for m in (0, 600, 3000)]
        assert all(a >= b for a, b in zip(by_message, by_message[1:]))
        by_floor = [hybrid_budget(base.replace(h_min=h), 5e-8).b_key for h in (0.2, 0.5, 0.8, 1.0)]
        assert all(a <= b for a, b in zip(by_floor, by_floor[1:]))

    def test_mean_info_bounded_by_peak(self):
        spread = hybrid_budget(make(), 5e-8)
        pinned = hybrid_budget(make(h_min=1.0), 5e-8)
        peak = mutual_info_fixed(1.0, make().lambda_B)
        assert spread.i_xy < peak
        assert pinned.i_xy == pytest.approx(peak, rel=1e-12)

    @given(
        b_m=st.integers(0, 20_000),
        ratio=st.floats(0.05, 0.95),
        pilots=st.integers(1, 9),
    )
    @settings(max_examples=40, deadline=None)
    def test_binding_budget_identity(self, b_m, ratio, pilots):
        # the secrecy budget binds exactly when the message is light
        params = make(b_M=b_m, lambda_T=ratio * 1e3, pilot_count=pilots)
        report = hybrid_budget(params, 5e-8)
        n_data_total = (params.n - params.pilot_count) * params.F
        binds = report.b_key_2 < report.b_key_1
        assert binds == (b_m < n_data_total * report.i_xz)
