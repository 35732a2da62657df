"""Coding-check security: achievable key bits under finite-length wiretap
coding.

Every formula reads the peak SNR S = lambda_B * h_max^2 and the floor
g = h_min / h_max (see ``crpla.params``), with I(v) = log2(1 + S v^2) at
v = h / h_max.  With the amplitude pinned at h_max (pure coding
mechanism) the rate uses the fixed-SNR normal approximation with
dispersion S(S+2)/(S+1)^2 * log2(e)^2 over all n*F symbols.  With a
per-frame random amplitude (hybrid mechanism) the average rate uses the
block-fading normal approximation whose dispersion term is
n' * Var[I] + 1 - E[1/(1 + S v^2)]^2 over the n'*F data symbols.  The two
dispersion formulas do NOT coincide in the degenerate (g = 1) limit: the
block-fading one lacks the log2(e)^2 factor.  Both are implemented
verbatim; reconciling them is out of scope.

The block-fading moments E[I], Var[I] and E[1/(1 + S v^2)] over v uniform
on [g, 1] need no run-time quadrature: the two means have elementary
antiderivatives and the variance is a fixed-order Gauss-Legendre sum (see
``_amplitude_moments``).  ``hybrid_rates`` evaluates the hybrid budget
elementwise over arrays of pilot counts and h_min values, and over a
group of points that differ only in S and lambda_T, so the optimizer grids
of a whole SNR sweep are one array computation.

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
    """Gaussian-input mutual information log2(1 + lambda_B * h^2), bits/symbol."""
    if h < 0.0 or lambda_b < 0.0:
        raise NumericError(f"need h >= 0 and lambda_b >= 0, got h={h!r}, lambda_b={lambda_b!r}")
    return math.log1p(lambda_b * h * h) * _LOG2E


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
    the peak SNR S = lambda_B * h_max^2 and V = S(S+2)/(S+1)^2 * log2(e)^2.
    R may be negative for tiny blocklengths; the budgets clamp.
    """
    s = params.S
    n_total = params.n * params.F
    i_xy = mutual_info_fixed(1.0, s)
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


def _amplitude_moments(g, S: float):
    """(E[I], Var[I], E[1/(1 + S v^2)]) for v uniform on [g, 1], elementwise
    over ``g``; I(v) = log2(1 + S v^2).

    The two means integrate the antiderivatives v ln(1 + S v^2) - 2v +
    2 atan(a v) / a and atan(a v) / a, with a = sqrt(S).  Their differences
    across [g, 1] are taken in closed form, so a short interval loses no
    digits:

        atan(a) - atan(a g) = atan(a s / (1 + S g))
        ln(1 + S) - ln(1 + S g^2) = log1p(S s (1 + g) / (1 + S g^2))

    with s = 1 - g.  Var[I] = E[(I - E[I])^2] is a 12-point Gauss-Legendre
    sum on each piece of [g, 1] cut at v = 2^k / a, k = 0, 1, ...: I bends
    at v = 1/a, and its complex singularities at v = +-i/a lie at least one
    piece length away from every piece.  The centred integrand keeps
    E[I^2] - E[I]^2 from cancelling.  The piece edges fill one array, and
    one array of nodes (..., pieces, 12) is taken in place from v to the
    squared deviation before the weighted sum, so each value is the plain
    expression's to the last bit.  A zero-width interval, or S = 0, gives
    the point values; an infinite S gives an infinite E[I].
    """
    g = np.asarray(g, dtype=float)
    if math.isinf(S):  # too many pieces to count, and no finite key budget
        return np.full(g.shape, math.inf), np.zeros(g.shape), np.zeros(g.shape)
    span = 1.0 - g
    a = math.sqrt(S)
    n_cuts = 1 + max(0, math.ceil(math.log2(max(a, 1.0))))
    edges = np.empty(g.shape + (n_cuts + 2,))
    edges[..., 0], edges[..., -1] = g, 1.0
    cuts = edges[..., 1:-1]
    with np.errstate(divide="ignore"):  # at S = 0 every cut lies beyond 1 and clips to it
        np.maximum(2.0 ** np.arange(n_cuts) / a, g[..., None], out=cuts)
    np.minimum(cuts, 1.0, out=cuts)
    half = np.subtract(edges[..., 1:], edges[..., :-1])
    half *= 0.5
    # span = 0 and S = 0 take the point values; an overflow reaches the caller as inf or nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        atan_diff = np.arctan(a * span / (1.0 + S * g))
        log_ratio = np.log1p(S * span * (1.0 + g) / (1.0 + S * g * g))
        log_top = math.log1p(S)
        mean_info = (log_top - 2.0 + (g * log_ratio + 2.0 * atan_diff / a) / span) * _LOG2E
        mean_inv = atan_diff / (a * span)
        mid = edges[..., :-1]
        mid += half  # the lower edges become the piece midpoints
        # one array of nodes, taken in place to the squared deviation (I(v) - E[I])^2
        v = np.multiply(half[..., None], _GL_NODES)
        v += mid[..., None]
        np.multiply(v, v, out=v)
        v *= S
        np.log1p(v, out=v)
        v *= _LOG2E
        v -= mean_info[..., None, None]
        np.multiply(v, v, out=v)
        variance = (half * (v @ _GL_WEIGHTS)).sum(axis=-1) / span
    point = (span == 0.0) | (S == 0.0)
    return (
        np.where(point, mutual_info_fixed(1.0, S), mean_info),
        np.where(point, 0.0, variance),
        np.where(point, 1.0 / (1.0 + S), mean_inv),
    )


def hybrid_rates(
    params: SystemParams | PointGroup, q: float, pilot_count, h_min
) -> RateReport:
    """Coding check of the hybrid mechanism at back-off quantile ``q`` for
    each pilot count and h_min.

    Rbar = E[I] - sqrt(V / (n' F)) * q over the n'*F data symbols, with
    the block-fading dispersion V = n' * Var[I] + 1 -
    E[1/(1 + S v^2)]^2 and the moments taken over v = h / h_max uniform on
    [g, 1], g = h_min / h_max.  An all-pilot frame carries no codeword: its
    rate is 0 by convention.  ``pilot_count`` and ``h_min`` broadcast against each
    other like numpy arrays (a column of counts and a row of h_min values
    give one cell per pair).  A PointGroup puts a leading points axis in
    front of those cells; the moments and the eavesdropper's rate are
    taken point by point, and only their results are stacked.
    """
    with np.errstate(invalid="ignore"):  # 0/0 at h_max = 0, where S = 0 gives the point values
        g = np.asarray(h_min, dtype=float) / params.h_max
    moments = zip(*(_amplitude_moments(g, p.S) for p in params.points))
    mean_info, variance, mean_inv = (params.stack(m, pilot_count, g) for m in moments)
    n_data = params.n - np.asarray(pilot_count)
    dispersion = n_data * variance + 1.0 - mean_inv * mean_inv
    n_data_total = n_data * params.F
    with np.errstate(divide="ignore", invalid="ignore"):
        back_off = np.sqrt(dispersion / n_data_total) * q
    rate = np.where(n_data_total > 0, mean_info - back_off, 0.0)
    i_xz = params.stack([eavesdropper_info(p.lambda_T) for p in params.points], pilot_count, g)
    return _budget(params, mean_info, i_xz, dispersion, rate, n_data_total)
