"""Verdict calibration: how often ``crpla simulate`` FAILs a correct run.

A correct program still FAILs a row at some seeds: a Wilson row when its
3-sigma interval misses the true rate, a band row at about the nominal
two-sided 3-sigma rate.  Counting the FAILs of each row over a range of
seeds, against the count expected of a correct run, tells a verdict rule
that is miscalibrated (a row that FAILs at every seed) from sampling
noise.

Run as a script to print, per row of each config file or named point of
``POINTS``, the FAILs over the seeds beside the expected count::

    PYTHONPATH=src python tests/verdict_survey.py --trials 2048 --seeds 1-300 \\
        configs/validate_small_f.json clamp beyond_fit

An expected count is exact for the Wilson rows: a binomial sum, at the
analytic rate, over the counts whose verdict is FAIL.  Where the analytic
attack rate is only an upper bound (beyond the fit radius), the count at
that bound is an upper bound too.  For the band rows it is the nominal
rate ``NOMINAL_RATE``.
"""

from __future__ import annotations

import argparse
import math

from crpla import channel, cli
from crpla.montecarlo import wilson_interval
from crpla.params import SystemParams, load_params
from crpla.specfun import chi_square_sf

# Two-sided normal tail beyond 3 sigma.
NOMINAL_RATE = math.erfc(3.0 / math.sqrt(2.0))

# Points beyond the fit radius, where the closed form only bounds the
# attack row.  ``clamp``: radius_over_fit 7.85 clamps the bound to 1, and
# the origin guess succeeds at every trial.  ``beyond_fit``:
# radius_over_fit 1.6, a bound of 0.68 over a centre-guess rate of 0.47.
POINTS = {
    "clamp": SystemParams(
        n=10, F=100, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=2.0, lambda_T=2.0, h_min=0.0
    ),
    "beyond_fit": SystemParams(
        n=10, F=8, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=5.7, lambda_T=5.7, h_min=0.0
    ),
}


def fail_counts(params: SystemParams, trials: int, seeds, exact: bool = False) -> dict[str, int]:
    """FAILs of each ``cli.simulate_rows`` row over ``seeds``, by check name."""
    counts: dict[str, int] = {}
    for seed in seeds:
        for check, *_, verdict in cli.simulate_rows(params, trials, seed, exact=exact):
            counts[check] = counts.get(check, 0) + (verdict == "FAIL")
    return counts


def _binomial_pmf(s: int, trials: int, p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return float(s == (trials if p >= 1.0 else 0))
    log_choose = math.lgamma(trials + 1) - math.lgamma(s + 1) - math.lgamma(trials - s + 1)
    return math.exp(log_choose + s * math.log(p) + (trials - s) * math.log1p(-p))


def wilson_fail_rate(p: float, trials: int, bound_only: bool = False, warn: bool = False) -> float:
    """Probability that a Wilson row FAILs when the true rate is ``p``.

    The row FAILs when its 3-sigma interval misses ``p``, or, where ``p``
    is ``bound_only``, when the interval lies wholly above it.  ``warn``
    makes zero successes a WARN, never a FAIL.
    """
    rate = 0.0
    for s in range(trials + 1):
        low, high = wilson_interval(s, trials)
        fails = low > p if bound_only else not low <= p <= high
        if fails and not (warn and s == 0):
            rate += _binomial_pmf(s, trials, p)
    return rate


def expected_fails(params: SystemParams, trials: int, seeds: int, exact: bool = False) -> dict:
    """The FAILs of each row a correct run expects over ``seeds`` seeds."""
    geometry = channel.equivalent_key_bits(params, params.p_FA, exact)
    p_fa = chi_square_sf(channel.chi_square_point(geometry.tau, params.F), params.F)
    p_succ = 2.0**geometry.log2_p_succ
    return {
        "false_alarm": seeds * wilson_fail_rate(p_fa, trials),
        "false_alarm_asym": 0.0,
        "attack_success": seeds
        * wilson_fail_rate(
            p_succ,
            trials,
            bound_only=not geometry.radius_over_fit <= 1.0,
            warn=p_succ * trials < 10.0,
        ),
        "estimator_mean": seeds * NOMINAL_RATE,
        "estimator_variance": seeds * NOMINAL_RATE,
    }


def binomial_upper_bound(n: int, rate: float, tail: float = 1e-6) -> int:
    """The least m with P(X > m) <= ``tail`` for X ~ Binomial(n, rate)."""
    above = 1.0
    for m in range(n + 1):
        above -= _binomial_pmf(m, n, rate)
        if above <= tail:
            return m
    return n


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="simulate JSON configs or names of POINTS")
    parser.add_argument("--trials", type=int, default=2048, help="trials per check")
    parser.add_argument("--seeds", type=_seed_range, default=range(1, 301), help="e.g. 1-300")
    parser.add_argument("--exact-threshold", action="store_true")
    args = parser.parse_args()
    limit = binomial_upper_bound(len(args.seeds), NOMINAL_RATE)
    print(
        f"# {args.trials} trials, seeds {args.seeds.start}-{args.seeds.stop - 1}; "
        f"1e-6 bound at the nominal rate: {limit} FAILs"
    )
    for path in args.configs:
        params = POINTS[path] if path in POINTS else load_params(path)
        fails = fail_counts(params, args.trials, args.seeds, args.exact_threshold)
        expected = expected_fails(params, args.trials, len(args.seeds), args.exact_threshold)
        print(path)
        for check, count in fails.items():
            print(f"  {check:<20}{count:>6} FAILs, {expected[check]:8.3f} expected")


if __name__ == "__main__":
    main()
