"""Numerical kernel: Gaussian tail functions, log-gamma and chi-square
survival.

Everything here is a thin, contract-checked layer over ``math``,
``statistics`` (the normal quantile, Wichura's AS241) and
``scipy.special``; accuracy is double precision throughout (far-tail Q
values down to 1e-12 keep relative error below 1e-12).  The amplitude
moments of the coding check are closed forms in ``coding``; no
quadrature runs at run time.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from scipy import special

from .errors import DomainError

__all__ = [
    "q_function",
    "q_inverse",
    "log_gamma",
    "chi_square_sf",
]

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def q_function(x: float) -> float:
    """Upper tail of the standard normal, P(N(0,1) > x).

    Strictly decreasing; q_function(0) = 0.5 and
    q_function(-x) = 1 - q_function(x).
    """
    if not math.isfinite(x):
        raise DomainError(f"q_function requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Inverse of :func:`q_function` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inverse requires p in (0, 1), got {p!r}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def chi_square_sf(x: float, k: int) -> float:
    """Survival function P(chi2_k > x) for k degrees of freedom.

    Evaluated through the regularized upper incomplete gamma function, so
    it stays accurate deep in the tail where the normal approximation to
    the standardized statistic degrades.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {k!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"chi_square_sf requires x >= 0, got {x!r}")
    return float(special.gammaincc(k / 2.0, x / 2.0))

