"""Special-function kernel tests.

Derived expectations come from independent routes: extended-precision
values frozen from a 50-digit erfc evaluation, exact log-factorial sums,
closed-form antiderivatives, brute-force Riemann sums, a seeded sampling
oracle for the chi-square tail, and ``scipy.special`` (a test-only
dependency) for the chi-square survival function and its inverse.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import special

from crpla import specfun
from crpla.errors import ConvergenceError, DomainError
from crpla.specfun import chi_square_isf, chi_square_sf, log_gamma, q_function, q_inverse
from quadrature_oracle import DegenerateInterval, uniform_expectation

# Frozen from mpmath at 50 digits: 0.5*erfc(x/sqrt(2)) and its inverse.
Q_AT_5199337582 = 1.0000000010372649e-07
QINV_1E7 = 5.1993375821928169
QINV_5E8 = 5.3267238863844963
QINV_005 = 1.6448536269514727


class TestQFunction:
    def test_median(self):
        assert q_function(0.0) == 0.5

    @pytest.mark.parametrize("x", [-7.5, -3.0, -0.3, 0.0, 0.7, 2.0, 6.5])
    def test_reflection(self, x):
        assert q_function(x) == pytest.approx(1.0 - q_function(-x), rel=1e-14)

    def test_far_tail_value(self):
        assert q_function(5.199337582) == pytest.approx(Q_AT_5199337582, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 200)
        values = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            q_function(float("nan"))


class TestQInverse:
    def test_median(self):
        assert q_inverse(0.5) == 0.0

    def test_tail_values(self):
        assert q_inverse(1e-7) == pytest.approx(QINV_1E7, rel=1e-12)
        assert q_inverse(5e-8) == pytest.approx(QINV_5E8, rel=1e-12)
        assert q_inverse(0.05) == pytest.approx(QINV_005, rel=1e-12)

    @pytest.mark.parametrize("p", [1e-9, 1e-4, 0.2, 0.5])
    def test_symmetry(self, p):
        # The representable 1-p is off by up to ulp(1)/2, which the steep
        # inverse magnifies by 1/phi(Qinv(p)): that bounds the tolerance.
        slope = math.sqrt(2.0 * math.pi) * math.exp(q_inverse(p) ** 2 / 2.0)
        tol = max(1e-12, 1e-16 * slope)
        assert q_inverse(p) + q_inverse(1.0 - p) == pytest.approx(0.0, abs=tol)

    def test_round_trip_log_spaced(self):
        for p in np.logspace(-12, math.log10(0.5), 80):
            back = q_function(q_inverse(float(p)))
            assert abs(back - p) / p < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            q_inverse(p)


class TestLogGamma:
    def test_unit_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_exact_factorial(self):
        # ln Gamma(m+1) = sum_{k<=m} ln k, summed in extended precision
        for m in (5, 50, 120, 169):
            exact = math.fsum(math.log(k) for k in range(2, m + 1))
            assert log_gamma(m + 1.0) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("inf")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestChiSquareSf:
    def test_survival_at_zero(self):
        for k in (1, 2, 10, 100):
            assert chi_square_sf(0.0, k) == 1.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 10.0])
    def test_two_dof_closed_form(self, x):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-13)

    def test_matches_sampling_oracle_at_k100(self):
        # Tail frequency of 1e7 sampled chi-square variates brackets the value.
        k = 100
        tau = q_inverse(0.05)
        x = math.sqrt(2.0 * k) * tau + k
        analytic = chi_square_sf(x, k)
        rng = np.random.default_rng(20240505)
        draws = rng.chisquare(k, 10_000_000)
        p_hat = np.count_nonzero(draws > x) / draws.size
        margin = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / draws.size)
        assert abs(analytic - p_hat) < margin
        assert analytic != pytest.approx(0.05, rel=1e-3)  # finite-k tail is heavier

    def test_normal_approximation_gap_at_k100(self):
        # Quantifies the asymptotic-normal shortcut at the 5% design point.
        k = 100
        tau = q_inverse(0.05)
        exact = chi_square_sf(math.sqrt(2.0 * k) * tau + k, k)
        assert abs(exact - 0.05) / 0.05 < 0.15

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)


# Frozen from mpmath at 50 digits: gammainc(k/2, x/2, regularized=True),
# the upper regularized incomplete gamma function.
CHI_SQUARE_SF_MPMATH = [
    (1, 30.0, 4.3204630578274975e-08),
    (7, 40.0, 1.2587903873713088e-06),
    (100, 200.0, 1.1784500720979422e-08),
    (867, 1300.0, 6.552706225717556e-20),
    (1000, 1000.0, 0.49405285382923964),
    (101, 1200.0, 2.2213493980075094e-187),
    (10, 1400.0, 9.920391479800145e-295),
]

# ln p drawn uniformly between the bounds
_log_sf_targets = st.floats(math.log(1e-20), math.log(0.98))
_log_isf_targets = st.floats(math.log(1e-30), math.log(0.5))


class TestChiSquareAgainstScipy:
    """The integer-dof sum and its inverse against scipy.special.

    scipy's gammaincc is itself off the 50-digit value by up to about
    9e-13 relative near F = 1000 and sf = 1e-20, so the 1e-12 gate mostly
    measures the oracle; the mpmath values below pin the sum at 1e-13.
    """

    @given(k=st.integers(1, 1001), log_p=_log_sf_targets)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sf_matches_gammaincc(self, k, log_p):
        x = 2.0 * float(special.gammainccinv(k / 2.0, math.exp(log_p)))
        oracle = float(special.gammaincc(k / 2.0, x / 2.0))
        assert chi_square_sf(x, k) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @given(k=st.integers(1, 4000), log_p=_log_isf_targets)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_isf_matches_gammainccinv(self, k, log_p):
        p = math.exp(log_p)
        oracle = 2.0 * float(special.gammainccinv(k / 2.0, p))
        assert chi_square_isf(p, k) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k,x,expected", CHI_SQUARE_SF_MPMATH)
    def test_sf_against_mpmath(self, k, x, expected):
        assert chi_square_sf(x, k) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestChiSquareEdges:
    @pytest.mark.parametrize("x", [1e-300, 1e-6, 0.5, 7.0, 80.0, 1400.0])
    def test_one_dof_is_erfc(self, x):
        assert chi_square_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-15)

    @pytest.mark.parametrize("x", [1e-300, 1e-6, 0.5, 7.0, 80.0, 1400.0])
    def test_two_dof_is_exp(self, x):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-15)

    @pytest.mark.parametrize("k", [2, 10, 11, 1000, 1001])
    def test_past_peak_underflow(self, k):
        # every term, the largest included, is below the smallest double
        x = 4000.0
        assert chi_square_sf(x, k) == 0.0
        assert float(special.gammaincc(k / 2.0, x / 2.0)) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 100, 4001])
    def test_isf_round_trip_deep_tail(self, k):
        for p in (1e-300, 1e-100):
            assert chi_square_sf(chi_square_isf(p, k), k) == pytest.approx(p, rel=1e-12)

    def test_isf_of_half_and_above(self):
        for k in (1, 2, 5, 100):
            for p in (0.5, 0.9, 0.999):
                assert chi_square_sf(chi_square_isf(p, k), k) == pytest.approx(p, rel=1e-13)

    def test_isf_raises_rather_than_return_unconverged(self, monkeypatch):
        monkeypatch.setattr(specfun, "_ISF_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            chi_square_isf(1e-7, 100)

    @pytest.mark.parametrize("p,k", [(0.0, 3), (1.0, 3), (float("nan"), 3), (0.1, 0), (0.1, 2.0)])
    def test_isf_domain(self, p, k):
        with pytest.raises(DomainError):
            chi_square_isf(p, k)


def _riemann_mean(f, a, b, points=10_000_000):
    """Midpoint-rule oracle, independent of the adaptive code path."""
    h = np.linspace(a, b, points, endpoint=False) + (b - a) / (2.0 * points)
    return float(np.mean(f(h)))


class TestUniformExpectation:
    def test_constant(self):
        assert uniform_expectation(lambda _h: 3.25, -2.0, 7.0) == pytest.approx(3.25, rel=1e-12)

    def test_identity_mean(self):
        assert uniform_expectation(lambda h: h, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_information_integrand_vs_riemann(self):
        value = uniform_expectation(lambda h: math.log2(1.0 + 100.0 * h * h), 0.7, 1.0)
        oracle = _riemann_mean(lambda h: np.log2(1.0 + 100.0 * h * h), 0.7, 1.0)
        assert value == pytest.approx(oracle, rel=1e-8)
        # cross-check against the closed-form antiderivative
        a = 10.0
        antider = lambda h: h * math.log(1.0 + a * a * h * h) - 2.0 * h + (2.0 / a) * math.atan(a * h)
        closed = (antider(1.0) - antider(0.7)) / math.log(2.0) / 0.3
        assert value == pytest.approx(closed, rel=1e-10)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            uniform_expectation(lambda h: h, 0.3, 0.3)

    def test_reversed_bounds(self):
        with pytest.raises(DomainError):
            uniform_expectation(lambda h: h, 1.0, 0.0)

    @given(
        c1=st.floats(-5, 5),
        c2=st.floats(-5, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, c1, c2):
        f = lambda h: math.sin(h)
        g = lambda h: h * h
        combined = uniform_expectation(lambda h: c1 * f(h) + c2 * g(h), 0.2, 1.7)
        split = c1 * uniform_expectation(f, 0.2, 1.7) + c2 * uniform_expectation(g, 0.2, 1.7)
        assert combined == pytest.approx(split, rel=1e-8, abs=1e-10)

    def test_affine_reparameterization(self):
        # E[f(H)] on [a,b] equals E[f(a + (b-a) U)] on [0,1]
        f = lambda h: math.log2(1.0 + 40.0 * h * h)
        direct = uniform_expectation(f, 0.4, 0.9)
        mapped = uniform_expectation(lambda u: f(0.4 + 0.5 * u), 0.0, 1.0)
        assert direct == pytest.approx(mapped, rel=1e-10)
