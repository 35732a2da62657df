"""Numerical kernel: Gaussian tail functions, log-gamma, chi-square
survival, and averaging over a uniform random variable.

Everything here is a thin, contract-checked layer over ``math`` and
``scipy.special``/QUADPACK; accuracy is double precision throughout
(far-tail Q values down to 1e-12 keep relative error below 1e-12).
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import integrate, special

from .errors import ConvergenceError, DegenerateInterval, DomainError

__all__ = [
    "q_function",
    "q_inverse",
    "log_gamma",
    "chi_square_sf",
    "uniform_expectation",
]

_SQRT2 = math.sqrt(2.0)

# Accuracy contract of uniform_expectation.
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2**20


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
    return float(-special.ndtri(p))


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


def uniform_expectation(f: Callable[[float], float], a: float, b: float) -> float:
    """Mean of f(H) for H uniform on [a, b], via adaptive quadrature to
    relative tolerance REL_TOL within MAX_SUBDIVISIONS subintervals.

    Raises :class:`DegenerateInterval` when a == b; the caller decides
    whether a point evaluation f(a) is the right reading there.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a == b:
        raise DegenerateInterval(f"zero-width interval at {a!r}")
    if a > b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")

    # QUADPACK preallocates workspace proportional to `limit`, so escalate
    # instead of always paying for the full subdivision budget.
    limit = 200
    while True:
        result = integrate.quad(
            f, a, b, epsabs=0.0, epsrel=REL_TOL, limit=limit, full_output=1
        )
        if len(result) == 3:  # (value, abserr, info): converged
            return result[0] / (b - a)
        if limit >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] did not reach rel_tol={REL_TOL} "
                f"within {MAX_SUBDIVISIONS} subdivisions: {result[-1]}"
            )
        limit = min(limit * 32, MAX_SUBDIVISIONS)
