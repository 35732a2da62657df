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

The block-fading moments E[I], Var[I] and E[1/(1+h^2*lambda_B)] over h
uniform on [h_min, h_max] need no run-time quadrature: the two means
have elementary antiderivatives and the variance is a fixed-order
Gauss-Legendre sum (see ``_amplitude_moments``).  ``hybrid_rates``
evaluates the hybrid budget elementwise over arrays of pilot counts and
h_min values, and over a group of points that differ only in the SNRs,
so the optimizer grids of a whole SNR sweep are one array computation.

The key budget is the smaller of what the legitimate rate leaves after
the message and what the eavesdropper's rate concedes, clamped at zero.
Negative intermediate budgets are preserved in the report for
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .params import PointGroup, SystemParams
from .specfun import q_inverse

__all__ = [
    "RateReport",
    "mutual_info_fixed",
    "eavesdropper_info",
    "b_key_cd",
    "hybrid_rates",
]

_LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class RateReport:
    """Rates and key-bit budgets for one coding configuration.

    ``rate`` is the finite-length achievable rate and ``dispersion`` the
    channel dispersion it backs off by.  ``b_key_1`` (rate budget minus
    message) and ``b_key_2`` (secrecy budget against the eavesdropper) may
    be negative; ``b_key`` is their clamped minimum.  The fields are
    floats for one configuration and numpy arrays for a grid of them (see
    :func:`hybrid_rates`).
    """

    i_xy: float
    i_xz: float
    dispersion: float
    rate: float
    b_key_1: float
    b_key_2: float

    @property
    def b_key(self) -> float:
        b_key = np.maximum(0.0, np.minimum(self.b_key_1, self.b_key_2)) + 0.0  # no -0.0
        return b_key if b_key.ndim else float(b_key)


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
    params: SystemParams | PointGroup,
    i_xy: float,
    i_xz: float,
    dispersion: float,
    rate: float,
    symbols: int,
) -> RateReport:
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
    # S/(S+1) * (S+2)/(S+1): no intermediate (S+1)^2 to overflow at huge S
    dispersion = s / (s + 1.0) * ((s + 2.0) / (s + 1.0)) * _LOG2E**2
    rate = i_xy - math.sqrt(dispersion / n_total) * q_inverse(p_fa_cd)
    return _budget(params, i_xy, eavesdropper_info(params.lambda_T), dispersion, rate, n_total)


# Var[I] quadrature: the 12 Gauss-Legendre nodes and weights on [-1, 1], the
# repr of numpy.polynomial.legendre.leggauss(12) (tests check the bits).  As
# literals they spare every process numpy.polynomial's import and its
# LAPACK eigensolve.
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])


def _amplitude_moments(h_min, h_max: float, lambda_b: float):
    """(E[I], Var[I], E[1/(1+h^2 lambda)]) for h uniform on [h_min, h_max],
    elementwise over ``h_min``; I(h) = log2(1 + h^2 lambda).

    The two means integrate the antiderivatives h ln(1 + lambda h^2) - 2h +
    2 atan(a h) / a and atan(a h) / a, with a = sqrt(lambda).  Their
    differences across [h_min, h_max] are taken in closed form, so a short
    interval loses no digits:

        atan(a h_max) - atan(a h_min) = atan(a s / (1 + lambda h_max h_min))
        ln(1 + lambda h_max^2) - ln(1 + lambda h_min^2)
            = log1p(lambda s (h_max + h_min) / (1 + lambda h_min^2))

    with s = h_max - h_min.  Var[I] = E[(I - E[I])^2] is a 12-point
    Gauss-Legendre sum on each piece of [h_min, h_max] cut at h = 2^k / a,
    k = 0, 1, ...: I bends at h = 1/a, and its complex singularities at
    h = +-i/a lie at least one piece length away from every piece.  The
    centred integrand keeps E[I^2] - E[I]^2 from cancelling.  The piece
    edges fill one array, and one array of nodes (..., pieces, 12) is taken
    in place from h to the squared deviation before the weighted sum, so
    each value is the plain expression's to the last bit.  A zero-width
    interval gives the point values.  Where a * h_max overflows, the pieces
    cannot be counted, which is a NumericError.
    """
    h_min = np.asarray(h_min, dtype=float)
    a = math.sqrt(lambda_b)
    if math.isinf(a * h_max):
        raise NumericError("amplitude moments are not finite: sqrt(lambda_B) * h_max overflows")
    span = h_max - h_min
    n_cuts = 1 + max(0, math.ceil(math.log2(max(a * h_max, 1.0))))
    edges = np.empty(h_min.shape + (n_cuts + 2,))
    edges[..., 0], edges[..., -1] = h_min, h_max
    cuts = edges[..., 1:-1]
    with np.errstate(over="ignore"):  # a cut past 2^1023 / a lies beyond h_max and clips to it
        np.maximum(2.0 ** np.arange(n_cuts) / a, h_min[..., None], out=cuts)
    np.minimum(cuts, h_max, out=cuts)
    half = np.subtract(edges[..., 1:], edges[..., :-1])
    half *= 0.5
    # span = 0 takes the point values; an overflow reaches the caller as inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        atan_diff = np.arctan(a * span / (1.0 + lambda_b * h_max * h_min))
        log_ratio = np.log1p(lambda_b * span * (h_max + h_min) / (1.0 + lambda_b * h_min * h_min))
        log_top = math.log1p(lambda_b * h_max * h_max)
        mean_info = (log_top - 2.0 + (h_min * log_ratio + 2.0 * atan_diff / a) / span) * _LOG2E
        mean_inv = atan_diff / (a * span)
        mid = edges[..., :-1]
        mid += half  # the lower edges become the piece midpoints
        # one array of nodes, taken in place to the squared deviation (I(h) - E[I])^2
        h = np.multiply(half[..., None], _GL_NODES)
        h += mid[..., None]
        np.multiply(h, h, out=h)
        h *= lambda_b
        np.log1p(h, out=h)
        h *= _LOG2E
        h -= mean_info[..., None, None]
        np.multiply(h, h, out=h)
        variance = (half * (h @ _GL_WEIGHTS)).sum(axis=-1) / span
    point = span == 0.0
    return (
        np.where(point, mutual_info_fixed(h_max, lambda_b), mean_info),
        np.where(point, 0.0, variance),
        np.where(point, 1.0 / (1.0 + h_max * h_max * lambda_b), mean_inv),
    )


def hybrid_rates(
    params: SystemParams | PointGroup, q: float, pilot_count, h_min
) -> RateReport:
    """Coding check of the hybrid mechanism at back-off quantile ``q`` for
    each pilot count and h_min.

    Rbar = E[I] - sqrt(V / (n' F)) * q over the n'*F data symbols, with
    the block-fading dispersion V = n' * Var[I] + 1 -
    E[1/(1 + h^2 lambda_B)]^2 and the moments taken over h uniform on
    [h_min, h_max].  An all-pilot frame carries no codeword: its rate is 0
    by convention.  ``pilot_count`` and ``h_min`` broadcast against each
    other like numpy arrays (a column of counts and a row of h_min values
    give one cell per pair).  A PointGroup puts a leading points axis in
    front of those cells; the moments and the eavesdropper's rate are
    taken point by point, and only their results are stacked.
    """
    moments = zip(*(_amplitude_moments(h_min, p.h_max, p.lambda_B) for p in params.points))
    mean_info, variance, mean_inv = (params.stack(m, pilot_count, h_min) for m in moments)
    n_data = params.n - np.asarray(pilot_count)
    dispersion = n_data * variance + 1.0 - mean_inv * mean_inv
    n_data_total = n_data * params.F
    with np.errstate(divide="ignore", invalid="ignore"):
        back_off = np.sqrt(dispersion / n_data_total) * q
    rate = np.where(n_data_total > 0, mean_info - back_off, 0.0)
    i_xz = params.stack([eavesdropper_info(p.lambda_T) for p in params.points], pilot_count, h_min)
    return _budget(params, mean_info, i_xz, dispersion, rate, n_data_total)
