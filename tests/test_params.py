"""Parameter model, validation, and JSON round-trip tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpla.errors import (
    ConfigParseError,
    InvalidPilotCount,
    InvalidProbability,
    InvalidRange,
    NonPositiveSnr,
)
from crpla.params import (
    SecurityReport,
    SystemParams,
    db_to_linear,
    params_from_config,
    params_to_config,
    validate,
)


def make(**overrides):
    base = dict(
        n=10,
        F=100,
        pilot_count=3,
        b_M=600,
        p_FA=1e-7,
        lambda_B=1e3,
        lambda_T=3e2,
        h_min=0.5,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


class TestValidation:
    def test_valid_params_pass_through(self):
        params = make()
        assert validate(params) is params

    def test_fractional_pilot_count_rejected(self):
        with pytest.raises(InvalidPilotCount):
            params_from_config(_config(alpha=0.25))  # 2.5 pilots of n=10

    def test_integral_alpha_accepted(self):
        assert params_from_config(_config(alpha=0.3)).pilot_count == 3

    def test_range_ordering(self):
        with pytest.raises(InvalidRange):
            make(h_min=1.2, h_max=1.0)

    def test_negative_h_min(self):
        with pytest.raises(InvalidRange):
            make(h_min=-0.1)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_probability_bounds(self, p):
        with pytest.raises(InvalidProbability):
            make(p_FA=p)

    @pytest.mark.parametrize("field", ["lambda_B", "lambda_T"])
    def test_positive_snr(self, field):
        with pytest.raises(NonPositiveSnr):
            make(**{field: 0.0})
        with pytest.raises(NonPositiveSnr):
            make(**{field: float("inf")})

    def test_pilot_count_range(self):
        with pytest.raises(InvalidPilotCount):
            make(pilot_count=11)
        with pytest.raises(InvalidPilotCount):
            make(pilot_count=-1)

    def test_b_m_non_negative_integer(self):
        with pytest.raises(InvalidRange):
            make(b_M=-1)


class TestDerived:
    def test_alpha(self):
        assert make(pilot_count=1).alpha == pytest.approx(0.1)

    def test_with_alpha(self):
        assert make().with_alpha(0.7).pilot_count == 7

    def test_immutability(self):
        params = make()
        with pytest.raises(AttributeError):
            params.n = 5  # type: ignore[misc]


def _config(**overrides):
    base = {
        "n": 10,
        "F": 100,
        "alpha": 0.1,
        "b_M": 600,
        "p_FA": 1e-7,
        "lambda_B_dB": 30,
        "lambda_T_over_lambda_B": 0.3,
        "h_min": 0.5,
        "h_max": 1.0,
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestConfig:
    def test_db_conversion(self):
        params = params_from_config(_config(lambda_B_dB=30))
        assert params.lambda_B == pytest.approx(1000.0, rel=1e-15)
        assert params.lambda_T == pytest.approx(300.0, rel=1e-15)

    def test_db_underflow_is_a_config_error(self):
        message = "lambda_B_dB = -4000.0 underflows the linear scale"
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            db_to_linear(-4000.0)
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            params_from_config(_config(lambda_B_dB=-4000))
        assert db_to_linear(-3235.0) == 5e-324  # the smallest subnormal is no underflow

    @pytest.mark.parametrize(
        "snr, message",
        [
            # 0.3 of the smallest subnormal rounds to 0
            (
                dict(lambda_B_dB=-3235),
                "lambda_T_over_lambda_B = 0.3 underflows lambda_T = 0.3 * 5e-324 to 0",
            ),
            (
                dict(lambda_B_dB=None, lambda_B=1e-300, lambda_T_over_lambda_B=1e-30),
                "lambda_T_over_lambda_B = 1e-30 underflows lambda_T = 1e-30 * 1e-300 to 0",
            ),
        ],
        ids=["db", "linear"],
    )
    def test_lambda_t_underflow_names_the_ratio(self, snr, message):
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            params_from_config(_config(**snr))

    def test_lambda_t_overflow_names_the_ratio(self):
        message = "lambda_T_over_lambda_B = 1e+300 overflows lambda_T = 1e+300 * 10000000000.0 to inf"
        with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
            params_from_config(_config(lambda_B_dB=100, lambda_T_over_lambda_B=1e300))

    def test_zero_ratio_is_no_underflow(self):
        with pytest.raises(NonPositiveSnr, match="lambda_T must be finite and > 0, got 0.0"):
            params_from_config(_config(lambda_T_over_lambda_B=0.0))

    def test_h_max_defaults_to_one(self):
        params = params_from_config(_config(h_max=None))
        assert params.h_max == 1.0

    def test_pilot_count_alternate(self):
        cfg = _config(alpha=None)
        cfg["pilot_count"] = 4
        assert params_from_config(cfg).pilot_count == 4

    def test_linear_snr_alternates(self):
        cfg = _config(lambda_B_dB=None)
        cfg["lambda_B"] = 1234.5
        params = params_from_config(cfg)
        assert params.lambda_B == 1234.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError):
            params_from_config(_config(bogus=1))

    def test_missing_key_rejected(self):
        cfg = _config()
        del cfg["p_FA"]
        with pytest.raises(ConfigParseError):
            params_from_config(cfg)

    def test_both_alpha_and_pilot_count_rejected(self):
        cfg = _config()
        cfg["pilot_count"] = 1
        with pytest.raises(ConfigParseError):
            params_from_config(cfg)

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigParseError):
            params_from_config(_config(n=10.5))
        with pytest.raises(ConfigParseError):
            params_from_config(_config(b_M=True))

    @given(
        pilots=st.integers(0, 10),
        b_m=st.integers(0, 5000),
        p_fa=st.floats(1e-12, 0.5),
        lambda_b=st.floats(1e-2, 1e8),
        ratio=st.floats(1e-3, 2.0),
        h_lo=st.floats(0.0, 1.0),
        span=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, pilots, b_m, p_fa, lambda_b, ratio, h_lo, span):
        params = SystemParams(
            n=10,
            F=100,
            pilot_count=pilots,
            b_M=b_m,
            p_FA=p_fa,
            lambda_B=lambda_b,
            lambda_T=ratio * lambda_b,
            h_min=h_lo,
            h_max=h_lo + span,
        )
        assert params_from_config(params_to_config(params)) == params


class TestSecurityReport:
    def test_b_tot_is_sum(self):
        report = SecurityReport(
            mechanism="HYBRID", b_ch=2.5, b_key=1.5, alpha_used=0.1, h_min_used=0.9
        )
        assert report.b_tot == 4.0

    def test_ch_forbids_coding_bits(self):
        with pytest.raises(ValueError):
            SecurityReport(mechanism="CH", b_ch=1.0, b_key=0.5, alpha_used=1.0, h_min_used=0.0)

    def test_cd_forbids_channel_bits(self):
        with pytest.raises(ValueError):
            SecurityReport(mechanism="CD", b_ch=0.5, b_key=1.0, alpha_used=0.0, h_min_used=1.0)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            SecurityReport(mechanism="XX", b_ch=0.0, b_key=0.0, alpha_used=0.0, h_min_used=0.0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            SecurityReport(mechanism="HYBRID", b_ch=-1.0, b_key=0.0, alpha_used=0.1, h_min_used=0.0)
