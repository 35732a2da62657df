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

``--digest`` prints instead, per point and seed, the exit code of
``crpla.cli.main simulate`` (``--jobs 1``) and one sha256 of its exit
code, stdout and stderr.  Two trees give the same bytes at every seed
when the outputs of the two runs do not differ::

    PYTHONPATH=src python tests/verdict_survey.py --digest --trials 16384 \\
        --seeds 1-300 high_snr_f100 high_snr_f1000 sign_rule_f9 > digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from crpla import channel, cli
from crpla.montecarlo import wilson_interval
from crpla.params import (
    SystemParams,
    load_params,
    params_from_config,
    params_to_config,
    read_json_object,
)
from crpla.specfun import chi_square_sf

ROOT = Path(__file__).resolve().parent.parent

# Two-sided normal tail beyond 3 sigma.
NOMINAL_RATE = math.erfc(3.0 / math.sqrt(2.0))

# ``clamp``, ``beyond_fit`` and ``band_f100`` lie beyond the fit radius,
# where the closed form only bounds the attack row.  ``clamp``:
# radius_over_fit 7.85 clamps the bound to 1, and the origin guess
# succeeds at every trial.  ``beyond_fit``:
# radius_over_fit 1.6, a bound of 0.68 over a centre-guess rate of 0.47.
# ``high_snr_f100`` and ``high_snr_f1000``: the shipped point at F = 100
# and F = 1000, the inputs of the Monte Carlo benchmark workloads; the
# attack window lies on the positive side (q = 0.42 and 0.5), so a block
# draws the Binomial(rows, q^F) count of its rows there, almost always 0.
# ``sign_rule_f9``: h_min > 0 with a radius^2 of 0.32 below the gap^2 of
# 1.5625 of a negative coordinate, so the window is the positive half
# (q = 0.5), and about 0.2% of rows still succeed.  ``band_f100``:
# h_min = 0 with a radius of h_max (1.000007), so the window is every
# uniform (q = 1) and the kernel draws every row, though about 2^-232 of
# them succeed.
_HIGH_SNR = read_json_object(str(ROOT / "configs" / "point_high_snr.json"))
POINTS = {
    "clamp": SystemParams(
        n=10, F=100, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=2.0, lambda_T=2.0, h_min=0.0
    ),
    "beyond_fit": SystemParams(
        n=10, F=8, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=5.7, lambda_T=5.7, h_min=0.0
    ),
    "high_snr_f100": params_from_config(dict(_HIGH_SNR, F=100)),
    "high_snr_f1000": params_from_config(dict(_HIGH_SNR, F=1000)),
    "sign_rule_f9": SystemParams(
        n=10, F=9, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=50.0, lambda_T=50.0, h_min=0.5
    ),
    "band_f100": SystemParams(
        n=10, F=100, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=123.26, lambda_T=123.26, h_min=0.0
    ),
}


def fail_counts(params: SystemParams, trials: int, seeds, exact: bool = False) -> dict[str, int]:
    """FAILs of each ``cli.simulate_rows`` row over ``seeds``, by check name."""
    counts: dict[str, int] = {}
    for seed in seeds:
        for check, *_, verdict in cli.simulate_rows(params, trials, seed, exact=exact):
            counts[check] = counts.get(check, 0) + (verdict == "FAIL")
    return counts


def simulate_digests(params: SystemParams, trials: int, seeds, exact: bool = False):
    """(seed, exit code, sha256 of exit code, stdout and stderr) of
    ``cli.main simulate`` at each of ``seeds``, one job each."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "point.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(params_to_config(params), fh)
        for seed in seeds:
            argv = ["simulate", "--config", config, "--trials", str(trials), "--seed", str(seed)]
            argv += ["--jobs", "1"] + (["--exact-threshold"] if exact else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            record = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
            yield seed, code, hashlib.sha256(record).hexdigest()


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
    parser.add_argument(
        "--digest", action="store_true", help="print one output hash per seed, not FAIL counts"
    )
    args = parser.parse_args()
    points = [(name, POINTS.get(name) or load_params(name)) for name in args.configs]
    if args.digest:
        for name, params in points:
            for seed, code, digest in simulate_digests(
                params, args.trials, args.seeds, args.exact_threshold
            ):
                print(f"{name} seed {seed} exit {code} {digest}")
        return
    limit = binomial_upper_bound(len(args.seeds), NOMINAL_RATE)
    print(
        f"# {args.trials} trials, seeds {args.seeds.start}-{args.seeds.stop - 1}; "
        f"1e-6 bound at the nominal rate: {limit} FAILs"
    )
    for name, params in points:
        fails = fail_counts(params, args.trials, args.seeds, args.exact_threshold)
        expected = expected_fails(params, args.trials, len(args.seeds), args.exact_threshold)
        print(name)
        for check, count in fails.items():
            print(f"  {check:<20}{count:>6} FAILs, {expected[check]:8.3f} expected")

if __name__ == "__main__":
    main()
