"""Channel-check security: how many key bits the estimated-amplitude test
is worth.

The verifier accepts a message when the standardized squared-residual
statistic of the per-frame amplitude estimates stays below a threshold;
geometrically, acceptance means the estimate vector falls inside a
hypersphere around the expected amplitudes.  An attacker who can inject
arbitrary estimates but does not know the per-frame configuration must
land inside that sphere by guessing, and the admissible amplitude vectors
fill 2^F congruent cubes (one per sign pattern) of edge h_max - h_min.
The volume ratio gives the attack-success probability, and its negative
log2 is the equivalent key length.

All volumes are handled in log2 to stay finite for F in the thousands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np
from scipy import special

from .errors import (
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    InvalidPilotCount,
    NarrowMarginWarning,
)
from .params import SystemParams
from .specfun import log_gamma, q_inverse

__all__ = [
    "ChannelGeometry",
    "sigma_h_sq",
    "threshold_from_pfa",
    "threshold_from_pfa_exact",
    "test_statistic",
    "geometry",
    "equivalent_key_bits",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelGeometry:
    """Acceptance-region geometry of the channel check.

    ``log2_p_succ`` is min(0, log2 V_sphere - log2 V_cubes); ``b_ch`` is
    its negation.  ``radius`` satisfies radius**2 =
    (sqrt(2F) * tau + F) * sigma_h_sq.  The fields are floats for one
    setting and numpy arrays for a grid of them (see :func:`geometry`).
    """

    tau: float
    sigma_h_sq: float
    radius: float
    log2_v_sphere: float
    log2_v_cube: float
    log2_p_succ: float

    @property
    def b_ch(self) -> float:
        return -self.log2_p_succ + 0.0  # normalizes -0.0 at the clamp


def sigma_h_sq(params: SystemParams, pilot_count=None):
    """Variance of the per-frame amplitude estimator, 1 / (lambda_B * pilots).

    ``pilot_count`` defaults to the configured count; an array gives one
    variance per count.
    """
    pilots = params.pilot_count if pilot_count is None else pilot_count
    if np.any(np.less(pilots, 1)):
        raise InvalidPilotCount("amplitude estimation needs at least one pilot per frame")
    return 1.0 / (params.lambda_B * pilots)


def threshold_from_pfa(p_fa_ch: float) -> float:
    """Acceptance threshold from the asymptotic normal law of the statistic."""
    return q_inverse(p_fa_ch)


def threshold_from_pfa_exact(p_fa_ch: float, F: int) -> float:
    """Threshold from the exact finite-F chi-square law of the statistic.

    Solves chi_square_sf(sqrt(2F) * tau + F, F) = p_fa_ch.  Converges to
    the asymptotic threshold as F grows.
    """
    if not 0.0 < p_fa_ch < 1.0:
        raise DomainError(f"p_fa_ch must lie in (0, 1), got {p_fa_ch!r}")
    if not isinstance(F, int) or F < 1:
        raise DomainError(f"F must be a positive integer, got {F!r}")
    x = 2.0 * float(special.gammainccinv(F / 2.0, p_fa_ch))
    if not math.isfinite(x):
        raise ConvergenceError(f"chi-square inversion failed for p={p_fa_ch}, F={F}")
    return (x - F) / math.sqrt(2.0 * F)


def test_statistic(h_hat: np.ndarray, h: np.ndarray, sigma_sq: float) -> float:
    """Standardized squared-residual statistic over F frames.

    L = (sum_k (h_hat_k - h_k)^2 / sigma_sq - F) / sqrt(2F).  Under the
    legitimate hypothesis the sum is chi-square with F degrees of freedom,
    so L is asymptotically standard normal.  The message is accepted when
    L <= tau.
    """
    h_hat = np.asarray(h_hat, dtype=float)
    h = np.asarray(h, dtype=float)
    if h_hat.shape != h.shape or h_hat.ndim != 1 or h_hat.size == 0:
        raise DimensionMismatch(
            f"need two equal-length 1-D vectors, got shapes {h_hat.shape} and {h.shape}"
        )
    if not sigma_sq > 0.0:
        raise DomainError(f"sigma_sq must be > 0, got {sigma_sq!r}")
    F = h_hat.size
    residual = h_hat - h
    return float((residual @ residual / sigma_sq - F) / math.sqrt(2.0 * F))


def geometry(params: SystemParams, tau: float, pilot_count, h_min) -> ChannelGeometry:
    """Acceptance-region geometry at threshold ``tau`` for each pilot count
    and h_min.

    ``pilot_count`` and ``h_min`` broadcast against each other like numpy
    arrays: a column of counts and a row of h_min values give one cell per
    pair, and two scalars give numpy scalars.

    log2_p_succ = min(0, F * log2(sqrt(pi) * radius / (2 (h_max - h_min)))
    - log2 Gamma(F/2 + 1)), never materializing the volumes themselves.  A
    zero-width amplitude interval means no challenge randomness at all; by
    convention the attack then succeeds freely (log2_p_succ = 0, b_ch = 0).
    """
    var = sigma_h_sq(params, pilot_count)
    F = params.F
    span = params.h_max - np.asarray(h_min, dtype=float)
    chi = math.sqrt(2.0 * F) * tau + F
    radius = (math.sqrt(chi) if chi > 0.0 else 0.0) * np.sqrt(var)
    log2_gamma_term = log_gamma(F / 2.0 + 1.0) / _LN2
    # log2(0) = -inf is meant; an overflow ends in non-finite bits, which evaluate rejects
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log2_v_sphere = (F / 2.0) * math.log2(math.pi) + F * np.log2(radius) - log2_gamma_term
        log2_v_cube = F * (1.0 + np.log2(span))
        per_frame = np.log2(math.sqrt(math.pi) * radius / (2.0 * span))
        exponent = np.where(span > 0.0, np.minimum(0.0, F * per_frame - log2_gamma_term), 0.0)
    if np.any((span > 0.0) & (radius > 0.1 * span)):
        # Static message so repeated hits deduplicate to one line per run.
        warnings.warn(
            "sphere radius exceeds 10% of the amplitude span; the boundary-free "
            "volume ratio is a coarse approximation in this regime",
            NarrowMarginWarning,
            stacklevel=2,
        )
    return ChannelGeometry(
        tau=tau,
        sigma_h_sq=var,
        radius=radius,
        log2_v_sphere=log2_v_sphere,
        log2_v_cube=log2_v_cube,
        log2_p_succ=exponent,
    )


def equivalent_key_bits(
    params: SystemParams, p_fa_ch: float, exact_threshold: bool = False
) -> ChannelGeometry:
    """Acceptance-region geometry and equivalent key bits at the configured
    pilot count and h_min, as floats.

    The threshold comes from the asymptotic normal law by default; pass
    ``exact_threshold=True`` to use the finite-F chi-square inverse.
    """
    tau = (
        threshold_from_pfa_exact(p_fa_ch, params.F)
        if exact_threshold
        else threshold_from_pfa(p_fa_ch)
    )
    g = geometry(params, tau, params.pilot_count, params.h_min)
    return ChannelGeometry(*map(float, astuple(g)))
