"""Coding-check security: achievable key bits under finite-length wiretap
coding.

Two channel regimes are covered.  With the configuration pinned at h_max
(pure coding mechanism) the rate uses the fixed-SNR normal approximation
with dispersion S(S+2)/(S+1)^2 * log2(e)^2 over all n*F symbols.  With a
per-frame random amplitude (hybrid mechanism) the average rate uses the
block-fading normal approximation whose dispersion term is
n' * Var[I] + 1 - E[1/(1+h^2*lambda_B)]^2 over the n'*F data symbols.
The two dispersion formulas come from different normal-approximation
results and do NOT coincide in the degenerate (h_min = h_max) limit: the
block-fading one lacks the log2(e)^2 factor.  Both are implemented
verbatim; reconciling them is out of scope.

The key budget is the smaller of what the legitimate rate leaves after
the message and what the eavesdropper's rate concedes, clamped at zero.
Negative intermediate budgets are preserved in the report for
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NumericError
from .params import SystemParams
from .specfun import q_inverse, uniform_expectation

__all__ = [
    "RateReport",
    "mutual_info_fixed",
    "eavesdropper_info",
    "b_key_cd",
    "b_key_hybrid",
]

_LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class RateReport:
    """Rates and key-bit budgets for one coding configuration.

    ``rate`` is the finite-length achievable rate and ``dispersion`` the
    channel dispersion it backs off by.  ``b_key_1`` (rate budget minus
    message) and ``b_key_2`` (secrecy budget against the eavesdropper) may
    be negative; ``b_key`` is their clamped minimum.
    """

    i_xy: float
    i_xz: float
    dispersion: float
    rate: float
    b_key_1: float
    b_key_2: float

    @property
    def b_key(self) -> float:
        return max(0.0, min(self.b_key_1, self.b_key_2))


def mutual_info_fixed(h: float, lambda_b: float) -> float:
    """Gaussian-input mutual information log2(1 + h^2 * lambda_B), bits/symbol."""
    if h < 0.0 or lambda_b <= 0.0:
        raise NumericError(f"need h >= 0 and lambda_b > 0, got h={h!r}, lambda_b={lambda_b!r}")
    return math.log1p(h * h * lambda_b) * _LOG2E


def eavesdropper_info(lambda_t: float) -> float:
    """Upper bound log2(1 + lambda_T) on the attacker's rate, bits/symbol.

    Deliberately keeps no finite-length back-off: granting the attacker
    the asymptotic rate is the conservative direction for security.
    """
    if lambda_t <= 0.0:
        raise NumericError(f"lambda_t must be > 0, got {lambda_t!r}")
    return math.log1p(lambda_t) * _LOG2E


def _budget(
    params: SystemParams, i_xy: float, dispersion: float, rate: float, symbols: int
) -> RateReport:
    i_xz = eavesdropper_info(params.lambda_T)
    return RateReport(
        i_xy=i_xy,
        i_xz=i_xz,
        dispersion=dispersion,
        rate=rate,
        b_key_1=symbols * rate - params.b_M,
        b_key_2=symbols * (rate - i_xz),
    )


def b_key_cd(params: SystemParams, p_fa_cd: float) -> RateReport:
    """Key budget of the pure coding mechanism (no pilots, amplitude h_max).

    R = log2(1+S) - sqrt(V / (n F)) * Qinv(p) over all n*F symbols, with
    S = h_max^2 * lambda_B and V = S(S+2)/(S+1)^2 * log2(e)^2.  R may be
    negative for tiny blocklengths; the budgets clamp.
    """
    s = params.h_max * params.h_max * params.lambda_B
    n_total = params.n * params.F
    i_xy = mutual_info_fixed(params.h_max, params.lambda_B)
    dispersion = s * (s + 2.0) / ((s + 1.0) ** 2) * _LOG2E**2
    rate = i_xy - math.sqrt(dispersion / n_total) * q_inverse(p_fa_cd)
    return _budget(params, i_xy, dispersion, rate, n_total)


@lru_cache(maxsize=4096)
def _uniform_amplitude_stats(
    h_min: float, h_max: float, lambda_b: float
) -> tuple[float, float, float]:
    """(E[I], Var[I], E[1/(1+h^2 lambda)]) for h uniform on [h_min, h_max]."""
    if h_min == h_max:
        info = mutual_info_fixed(h_min, lambda_b)
        return info, 0.0, 1.0 / (1.0 + h_min * h_min * lambda_b)

    def info(h: float) -> float:
        return math.log1p(h * h * lambda_b) * _LOG2E

    mean_info = uniform_expectation(info, h_min, h_max)
    mean_info_sq = uniform_expectation(lambda h: info(h) ** 2, h_min, h_max)
    mean_inv = uniform_expectation(lambda h: 1.0 / (1.0 + h * h * lambda_b), h_min, h_max)
    variance = mean_info_sq - mean_info * mean_info
    if variance < -1e-9:
        raise NumericError(
            f"variance of the per-frame information came out {variance}; "
            "quadrature tolerances are inconsistent"
        )
    return mean_info, max(0.0, variance), mean_inv


def b_key_hybrid(params: SystemParams, p_fa_cd: float) -> RateReport:
    """Key budget of the coding check inside the hybrid mechanism.

    Rbar = E[I] - sqrt(V / (n' F)) * Qinv(p) over the n'*F data symbols,
    with the block-fading dispersion V = n' * Var[I] + 1 -
    E[1/(1 + h^2 lambda_B)]^2 and the moments taken over h uniform on
    [h_min, h_max].  An all-pilot frame carries no codeword: the report
    then has rate 0 and b_key 0 by convention.
    """
    mean_info, variance, mean_inv = _uniform_amplitude_stats(
        params.h_min, params.h_max, params.lambda_B
    )
    dispersion = params.n_data * variance + 1.0 - mean_inv * mean_inv
    n_data_total = params.n_data * params.F
    if n_data_total == 0:
        return RateReport(
            i_xy=mean_info,
            i_xz=eavesdropper_info(params.lambda_T),
            dispersion=dispersion,
            rate=0.0,
            b_key_1=-float(params.b_M),
            b_key_2=0.0,
        )
    rate = mean_info - math.sqrt(dispersion / n_data_total) * q_inverse(p_fa_cd)
    return _budget(params, mean_info, dispersion, rate, n_data_total)
