"""Numerical kernel: Gaussian tail functions, log-gamma and the
chi-square survival function and its inverse.

Everything here is built on ``math`` and ``statistics`` (the normal
quantile, Wichura's AS241); accuracy is double precision throughout
(far-tail Q values down to 1e-12 keep relative error below 1e-12).  The
degrees of freedom of the channel statistic are an integer, so the
chi-square tail is a finite Poisson-type sum, evaluated from its largest
term outwards, and its inverse is a bracketed Newton iteration.  The
amplitude moments of the coding check are closed forms in ``coding``; no
quadrature runs at run time.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import ConvergenceError, DomainError

__all__ = [
    "q_function",
    "q_inverse",
    "log_gamma",
    "chi_square_sf",
    "chi_square_isf",
]

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Terms of the chi-square sum below this fraction of the largest are dropped.
_TERM_FLOOR = 1e-18
# From this order on the five-term Stirling series is exact to 1e-16; below
# it the direct log-gamma form loses only a few ulp.
_STIRLING_MIN_ORDER = 16
_ISF_ULPS = 4
# The slowest double input, k = 1 at p = 1 - 2**-53, halves its way down
# to x = 2.5e-32 in 95 steps; no p <= 1/2 tried took more than 8.
_ISF_MAX_ITER = 200
_LOG_RATIO_CAP = 700.0


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


def _log_poisson_term(m: float, y: float) -> float:
    """ln(y**m * exp(-y) / Gamma(m + 1)) for m >= 0 and y > 0.

    From order 16 on, the Stirling form keeps the large parts
    y, m ln y and ln Gamma(m + 1) from cancelling: the deviance
    m ln(m / y) + y - m is taken through ``log1p`` and the Stirling series
    of ln Gamma(m + 1) has an error below 1e-16, so the largest term of
    the sum keeps a few-ulp accuracy where the direct form loses about
    y ln y ulp.
    """
    if m < _STIRLING_MIN_ORDER:
        return m * math.log(y) - y - math.lgamma(m + 1.0)
    d = m - y
    deviance = m * math.log1p(d / y) - d
    r = 1.0 / (m * m)
    stirling = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / m
    return -deviance - _HALF_LOG_2PI - 0.5 * math.log(m) - stirling


def _check_dof(k) -> None:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {k!r}")


def chi_square_sf(x: float, k: int) -> float:
    """Survival function P(chi2_k > x) for k degrees of freedom.

    With y = x / 2 the tail is a finite sum: for even k,
    e^-y * sum_{j < k/2} y^j / j!; for odd k, erfc(sqrt(y)) plus
    e^-y * sum_{j < (k-1)/2} y^(j+1/2) / Gamma(j + 3/2).  The largest term
    comes from log space, the others from the ratio recurrence in both
    directions until they fall below 1e-18 of it, and ``math.fsum`` adds
    them.  Against 50-digit values the result is within 5e-14 relative
    for k <= 1001 down to sf = 1e-20, deep in the tail where the normal
    approximation to the standardized statistic degrades.
    """
    _check_dof(k)
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"chi_square_sf requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    y = 0.5 * x
    c = 0.5 * (k % 2)  # term j carries y^(j + c)
    count = k // 2
    head = math.erfc(math.sqrt(y)) if c else 0.0
    if count == 0:
        return head
    top = int(min(count - 1, max(0.0, y - c)))  # the largest term
    peak = math.exp(_log_poisson_term(top + c, y))
    terms = [head, peak]
    floor = peak * _TERM_FLOOR
    term = peak
    for j in range(top + 1, count):
        term *= y / (j + c)
        if term < floor:
            break
        terms.append(term)
    term = peak
    for j in range(top, 0, -1):
        term *= (j + c) / y
        if term < floor:
            break
        terms.append(term)
    return math.fsum(terms)


def chi_square_isf(p: float, k: int) -> float:
    """Inverse of :func:`chi_square_sf` in x: the x > 0 with sf(x, k) = p.

    Newton steps on ln sf start from the Wilson-Hilferty value
    k * (1 - 2/(9k) + Qinv(p) * sqrt(2/(9k)))**3.  A bracket kept from the
    sign of sf - p catches a step that leaves it or stops halving (the
    rounding floor of the sum) and bisects instead; the iteration stops
    once a step or the bracket is within a few ulp of x.  For p <= 1/2 the
    root is within about 1e-15 relative of the exact one; towards p = 1 the
    error grows like ulp(1) / (1 - p), because the sum carries sf, not 1 - sf.

    Raises ConvergenceError rather than return an x that has not
    converged within the iteration cap.
    """
    _check_dof(k)
    if not 0.0 < p < 1.0:
        raise DomainError(f"chi_square_isf requires p in (0, 1), got {p!r}")
    log_p = math.log(p)
    a = 0.5 * k
    log_pdf_scale = a * math.log(2.0) + math.lgamma(a)
    v = 2.0 / (9.0 * k)
    # the cube root is negative only for p well above 1/2 at small k
    x = k * max(1.0 - v + q_inverse(p) * math.sqrt(v), 0.1) ** 3
    lo, hi = 0.0, math.inf
    last_step = math.inf
    for _ in range(_ISF_MAX_ITER):
        sf = chi_square_sf(x, k)
        if sf > p:
            lo = x
        else:
            hi = x
        nxt = math.nan
        if sf > 0.0:
            log_sf = math.log(sf)
            log_pdf = (a - 1.0) * math.log(x) - 0.5 * x - log_pdf_scale
            # capped so that a far-off x gives a huge step, not an overflow
            nxt = x + (log_sf - log_p) * math.exp(min(log_sf - log_pdf, _LOG_RATIO_CAP))
            if abs(nxt - x) <= _ISF_ULPS * math.ulp(x):
                return nxt
        stalled = lo > 0.0 and hi < math.inf and abs(nxt - x) > 0.5 * last_step
        if not lo < nxt < hi or stalled:
            if hi == math.inf:
                nxt = 2.0 * x
            elif hi > 4.0 * lo > 0.0:
                nxt = math.sqrt(lo * hi)  # geometric while the bracket spans decades
            else:
                nxt = 0.5 * (lo + hi)
            if hi - lo <= _ISF_ULPS * math.ulp(x):
                return nxt
        last_step = abs(nxt - x)
        x = nxt
    raise ConvergenceError(f"chi-square inversion did not converge for p={p!r}, k={k}")
