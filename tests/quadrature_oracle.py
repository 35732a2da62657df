"""Adaptive-quadrature oracle for the tests.

``uniform_expectation`` averages a function over a uniform random variable
with QUADPACK.  The library computes its amplitude moments in closed form
(see ``crpla.coding``); this independent route checks them, so scipy's
integrator stays out of the library's import path.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from scipy import integrate

from crpla.errors import ConvergenceError, DomainError, NumericError

# Accuracy contract of uniform_expectation.
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2**20


class DegenerateInterval(NumericError):
    """Integration interval has zero width; caller should evaluate pointwise."""


def uniform_expectation(
    f: Callable[[float], float], a: float, b: float, breakpoints: Iterable[float] = ()
) -> float:
    """Mean of f(H) for H uniform on [a, b], via adaptive quadrature to
    relative tolerance REL_TOL within MAX_SUBDIVISIONS subintervals.

    ``breakpoints`` are points where f bends sharply; those inside (a, b)
    start the subdivision, where the error estimate alone can miss the bend
    and stop early by more than REL_TOL.

    Raises :class:`DegenerateInterval` when a == b; the caller decides
    whether a point evaluation f(a) is the right reading there.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a == b:
        raise DegenerateInterval(f"zero-width interval at {a!r}")
    if a > b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")

    points = sorted(p for p in breakpoints if a < p < b) or None
    # QUADPACK preallocates workspace proportional to `limit`, so escalate
    # instead of always paying for the full subdivision budget.
    limit = 200
    while True:
        result = integrate.quad(
            f, a, b, epsabs=0.0, epsrel=REL_TOL, limit=limit, points=points, full_output=1
        )
        if len(result) == 3:  # (value, abserr, info): converged
            return result[0] / (b - a)
        if limit >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] did not reach rel_tol={REL_TOL} "
                f"within {MAX_SUBDIVISIONS} subdivisions: {result[-1]}"
            )
        limit = min(limit * 32, MAX_SUBDIVISIONS)
