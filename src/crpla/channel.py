"""Channel-check security: how many key bits the estimated-amplitude test
is worth.

The verifier accepts a message when the standardized squared-residual
statistic of the per-frame amplitude estimates stays below a threshold;
geometrically, acceptance means the estimate vector falls inside a ball
of radius r around the challenge amplitudes.  The challenge is uniform on
the admissible set S, 2^F congruent cubes (one per sign pattern) of edge
s = h_max - h_min, and the attacker injects one guess without knowing it.
Any guess a succeeds with probability vol(B(a, r) & S) / vol(S) <=
V_ball / V_S, the closed form here; its negative log2 is the equivalent
key length b_ch.

The bound is reached by the best single guess whenever the ball fits in
S: for h_min > 0, r <= s/2 with the guess at the centre of a randomly
signed cube (the centre is the best guess within a cube by Anderson's
theorem, Proc. AMS 6, 1955); for h_min = 0, r <= h_max with the guess at
the origin.  ``ChannelGeometry.radius_over_fit`` is r over that fit
radius: at most 1, b_ch is exact against the best attacker; above 1 the
ball pokes out of S, every attacker does worse than the closed form, and
b_ch is a conservative (low) count of key bits.

All volumes are handled in log2 to stay finite for F in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidPilotCount
from .params import PointGroup, SystemParams
from .specfun import chi_square_isf, log_gamma, q_inverse

__all__ = [
    "ChannelGeometry",
    "sigma_h_sq",
    "threshold_from_pfa",
    "chi_square_point",
    "test_statistic",
    "geometry",
    "equivalent_key_bits",
    "as_floats",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelGeometry:
    """Acceptance-region geometry of the channel check.

    ``log2_p_succ`` is min(0, log2 V_sphere - log2 V_cubes); ``b_ch`` is
    its negation.  ``radius`` satisfies radius**2 = max(sqrt(2F) * tau + F,
    0) * sigma_h_sq.  ``radius_over_fit`` is radius over the largest radius
    at which the ball fits in the admissible set:
    (h_max - h_min)/2 when h_min > 0, h_max when h_min = 0, and not finite
    at h_min = h_max; up to 1, ``b_ch`` is exact against the best single
    guess, and beyond it a lower bound.  The fields are floats for one
    setting and numpy arrays for a grid of them (see :func:`geometry`).
    """

    tau: float
    sigma_h_sq: float
    radius: float
    log2_v_sphere: float
    log2_v_cube: float
    log2_p_succ: float
    radius_over_fit: float

    @property
    def b_ch(self) -> float:
        return -self.log2_p_succ + 0.0  # normalizes -0.0 at the clamp


def sigma_h_sq(params: SystemParams | PointGroup, pilot_count=None):
    """Variance of the per-frame amplitude estimator, 1 / (lambda_B * pilots).

    ``pilot_count`` defaults to the configured count; an array gives one
    variance per count, and a PointGroup adds a leading points axis.
    """
    pilots = params.pilot_count if pilot_count is None else pilot_count
    if np.any(np.less(pilots, 1)):
        raise InvalidPilotCount("amplitude estimation needs at least one pilot per frame")
    return 1.0 / (params.stack([p.lambda_B for p in params.points], pilots) * pilots)


def threshold_from_pfa(p_fa_ch: float, F: int, exact: bool = False) -> float:
    """Acceptance threshold for the channel false-alarm budget over F frames.

    By default tau = Qinv(p_fa_ch), from the asymptotic normal law of the
    statistic, whatever F.  ``exact=True`` solves
    chi_square_sf(sqrt(2F) * tau + F, F) = p_fa_ch, the exact finite-F
    chi-square law, which converges to the asymptotic one as F grows; the
    root comes from :func:`~crpla.specfun.chi_square_isf`, Newton steps on
    the log survival function started from the Wilson-Hilferty
    approximation, and raises ConvergenceError if they do not converge.
    """
    if not isinstance(F, int) or F < 1:
        raise DomainError(f"F must be a positive integer, got {F!r}")
    if not exact:
        return q_inverse(p_fa_ch)
    return (chi_square_isf(p_fa_ch, F) - F) / math.sqrt(2.0 * F)


def chi_square_point(tau: float, F: int) -> float:
    """The residual energy max(sqrt(2F) * tau + F, 0) at which the statistic
    meets threshold ``tau``: the point on the chi-square law with F degrees
    of freedom where the acceptance region ends.  A threshold below
    -sqrt(F/2) accepts no residual energy at all, so the point is 0."""
    return max(math.sqrt(2.0 * F) * tau + F, 0.0)


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


def geometry(
    params: SystemParams | PointGroup, tau: float, pilot_count, h_min
) -> ChannelGeometry:
    """Acceptance-region geometry at threshold ``tau`` for each pilot count
    and h_min.

    ``pilot_count`` and ``h_min`` broadcast against each other like numpy
    arrays: a column of counts and a row of h_min values give one cell per
    pair, and two scalars give numpy scalars.  A PointGroup puts a leading
    points axis before those cells on every field that depends on lambda_B.

    log2_p_succ = min(0, F * log2(sqrt(pi) * radius / (2 (h_max - h_min)))
    - log2 Gamma(F/2 + 1)), never materializing the volumes themselves.  A
    zero-width amplitude interval means no challenge randomness at all; by
    convention the attack then succeeds freely (log2_p_succ = 0, b_ch = 0).
    """
    h_min = np.asarray(h_min, dtype=float)
    if h_min.ndim and np.ndim(pilot_count) < h_min.ndim:  # a group's points axis leads them all
        pilot_count = np.expand_dims(pilot_count, tuple(range(h_min.ndim - np.ndim(pilot_count))))
    F = params.F
    span = params.h_max - h_min
    log2_gamma_term = log_gamma(F / 2.0 + 1.0) / _LN2
    # log2(0) = -inf is meant; an overflow ends in non-finite bits, which evaluate
    # rejects, or in an infinite estimator variance, whose ball admits every guess
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        var = sigma_h_sq(params, pilot_count)
        radius = math.sqrt(chi_square_point(tau, F)) * np.sqrt(var)
        log2_v_sphere = (F / 2.0) * math.log2(math.pi) + F * np.log2(radius) - log2_gamma_term
        log2_v_cube = F * (1.0 + np.log2(span))
        per_frame = np.log2(math.sqrt(math.pi) * radius / (2.0 * span))
        exponent = np.where(span > 0.0, np.minimum(0.0, F * per_frame - log2_gamma_term), 0.0)
        radius_over_fit = radius / np.where(h_min > 0.0, 0.5 * span, params.h_max)
    return ChannelGeometry(
        tau=tau,
        sigma_h_sq=var,
        radius=radius,
        log2_v_sphere=log2_v_sphere,
        log2_v_cube=log2_v_cube,
        log2_p_succ=exponent,
        radius_over_fit=radius_over_fit,
    )


def equivalent_key_bits(
    params: SystemParams, p_fa_ch: float, exact_threshold: bool = False
) -> ChannelGeometry:
    """Acceptance-region geometry and equivalent key bits at the configured
    pilot count and h_min, as floats.

    ``exact_threshold`` picks the law of :func:`threshold_from_pfa`.
    """
    tau = threshold_from_pfa(p_fa_ch, params.F, exact_threshold)
    return as_floats(geometry(params, tau, params.pilot_count, params.h_min))


def as_floats(record):
    """A copy of the dataclass ``record`` with every field a Python float,
    from numpy scalars or 0-d arrays; fields are read, not deep-copied."""
    return type(record)(*(float(getattr(record, f.name)) for f in fields(record)))
