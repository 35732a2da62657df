"""Command-line front end.

Subcommands: ``analyze`` (single-point report), ``sweep`` (CSV over a
swept variable), ``simulate`` (Monte Carlo validation of the analytic
numbers), and ``optimize`` (grid search over pilots and h_min).

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 a simulate check FAILed its 3-sigma band.  The environment variable
CRPLA_SEED provides the default seed.  Each crpla warning is printed to
stderr as one ``warning: <message>`` line, once per distinct message.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from typing import Sequence

from . import channel, hybrid, montecarlo, sweep
from .errors import ConfigParseError, CrplaError, NumericError, ValidationError
from .errors import InsufficientResolutionWarning, NarrowMarginWarning
from .params import SystemParams, load_params, params_to_config
from .specfun import chi_square_sf, q_function

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; those are config errors here.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigParseError(message)


def _default_seed() -> int:
    raw = os.environ.get("CRPLA_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigParseError(f"CRPLA_SEED must be an integer, got {raw!r}") from exc


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crpla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")
        p.add_argument(
            "--exact-threshold",
            action="store_true",
            help="derive the channel-test threshold from the exact finite-F "
            "chi-square law instead of the asymptotic normal one",
        )

    p_analyze = sub.add_parser("analyze", help="report all mechanisms at one operating point")
    add_common(p_analyze)
    p_analyze.add_argument("--out", help="also write the report as JSON to this path")

    p_sweep = sub.add_parser("sweep", help="evaluate mechanisms along a swept variable")
    add_common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument(
        "--jobs", type=_jobs, default=1, help="accepted for compatibility; sweeps start no workers"
    )

    p_sim = sub.add_parser("simulate", help="Monte Carlo validation of the analytic values")
    add_common(p_sim)
    p_sim.add_argument("--trials", type=int, default=1_000_000, help="trials per check")
    p_sim.add_argument("--seed", type=int, default=None, help="base seed (default: CRPLA_SEED or 0)")
    p_sim.add_argument("--jobs", type=_jobs, default=_default_jobs(), help="worker processes")

    p_opt = sub.add_parser("optimize", help="grid search over pilot count and h_min")
    add_common(p_opt)
    p_opt.add_argument("--grid-csv", help="also dump every evaluated grid cell to this CSV")

    return parser


def _print_report(title: str, report, quiet: bool) -> None:
    if quiet:
        return
    print(
        f"{title:<10} alpha={report.alpha_used:<6.4g} h_min={report.h_min_used:<8.6g} "
        f"b_ch={report.b_ch:16.6f} b_key={report.b_key:16.6f} b_tot={report.b_tot:16.6f}"
    )


def _with_derived(record, name: str) -> dict:
    """The record's fields plus its derived property ``name``; non-finite floats as None."""
    fields = {**dataclasses.asdict(record), name: getattr(record, name)}
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in fields.items()
    }


def _analyze_document(params: SystemParams, evaluations: dict) -> dict:
    reports = {
        name: None if ev is None else _with_derived(ev.report, "b_tot")
        for name, ev in evaluations.items()
    }
    doc = {
        "params": params_to_config(params),
        "reports": reports,
        "cd_rate_report": _with_derived(evaluations["CD"].rates, "b_key"),
    }
    hy = evaluations["HYBRID"]
    if hy is not None:
        doc["channel_geometry"] = _with_derived(hy.geometry, "b_ch")
        doc["hybrid_rate_report"] = _with_derived(hy.rates, "b_key")
    return doc


def cmd_analyze(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    exact = args.exact_threshold
    evaluations = {name: hybrid.evaluate(params, name, exact) for name in ("CH", "CD")}
    hybrid_runs = 1 <= params.pilot_count <= params.n - 1
    evaluations["HYBRID"] = hybrid.evaluate(params, "HYBRID", exact) if hybrid_runs else None
    if not args.quiet:
        print(f"# operating point: {json.dumps(params_to_config(params))}")
        for name, ev in evaluations.items():
            if ev is None:
                print(f"{name:<10} n/a (hybrid needs 1 <= pilot_count <= n-1)")
            else:
                _print_report(name, ev.report, quiet=False)
        hy = evaluations["HYBRID"]
        if hy is not None:
            g, r = hy.geometry, hy.rates
            print(
                f"geometry   tau={g.tau:.6g} sigma_h_sq={g.sigma_h_sq:.6g} "
                f"radius={g.radius:.6g} log2_p_succ={g.log2_p_succ:.6g}"
            )
            print(
                f"rates      i_xy={r.i_xy:.6g} i_xz={r.i_xz:.6g} "
                f"V={r.dispersion:.6g} rate={r.rate:.6g} "
                f"b_key_1={r.b_key_1:.6g} b_key_2={r.b_key_2:.6g}"
            )
    if args.out:
        doc = _analyze_document(params, evaluations)
        sweep.write_atomic(args.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = sweep.load_sweep_spec(args.config)
    rows = sweep.run_sweep(spec, exact_threshold=args.exact_threshold)
    sweep.write_csv(rows, spec.variable, args.out)
    if not args.quiet:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    cells = hybrid.evaluate_grid(params, exact_threshold=args.exact_threshold)
    _print_report("OPTIMUM", cells.best(), args.quiet)
    if args.grid_csv:
        rows = [(cell.h_min_used, cell.mechanism, cell) for cell in cells]
        sweep.write_csv(rows, "h_min", args.grid_csv)
        if not args.quiet:
            print(f"wrote {len(rows)} grid cells to {args.grid_csv}")
    return EXIT_OK


def simulate_rows(
    params: SystemParams, trials: int, seed: int, jobs: int = 1, exact: bool = False
) -> list[tuple[str, float, float, float, float, str]]:
    """(check, analytic, empirical, band_low, band_high, verdict) per check.

    The false-alarm and attack-success rows compare the analytic value
    against the empirical Wilson 3-sigma interval; the estimator rows
    compare the empirical moment against a 3-sigma band around the
    analytic one.  An attack row with no successes and fewer than 10
    expected is WARN and raises ``InsufficientResolutionWarning``.
    """
    if params.pilot_count < 1:
        raise ConfigParseError("simulate needs pilot_count >= 1 for amplitude estimation")
    geometry = channel.equivalent_key_bits(params, params.p_FA, exact)
    tau, sigma_sq = geometry.tau, geometry.sigma_h_sq
    fa = montecarlo.measure_false_alarm(params, tau, trials, seed, jobs)
    fa_exact = chi_square_sf(math.sqrt(2.0 * params.F) * tau + params.F, params.F)
    attack = montecarlo.measure_attack_success(params, tau, trials, seed + 1, jobs)
    p_succ = 2.0 ** geometry.log2_p_succ
    unresolved = attack.successes == 0 and p_succ * trials < 10.0
    if unresolved:
        warnings.warn(
            f"no successes in {trials} trials while the analytic expectation is "
            f"{p_succ * trials:.3g}; increase trials to resolve this setting",
            InsufficientResolutionWarning,
            stacklevel=2,
        )
    moments = montecarlo.simulate_pilot_estimation(
        params.h_max, params.lambda_B, params.pilot_count, trials, seed + 2, jobs
    )
    mean_band = 3.0 * math.sqrt(sigma_sq / trials)
    var_band = 3.0 * math.sqrt(2.0 / (trials - 1)) * sigma_sq
    return [
        _interval_row("false_alarm", fa_exact, fa),
        ("false_alarm_asym", q_function(tau), fa.estimate, float("nan"), float("nan"), "INFO"),
        _interval_row("attack_success", p_succ, attack, "WARN" if unresolved else None),
        _band_row("estimator_mean", params.h_max, moments.mean, mean_band),
        _band_row("estimator_variance", sigma_sq, moments.variance, var_band),
    ]


def _interval_row(check: str, analytic: float, batch, verdict: str | None = None) -> tuple:
    """An analytic probability against the empirical Wilson 3-sigma interval."""
    if verdict is None:
        verdict = "PASS" if batch.contains(analytic) else "FAIL"
    low, high = batch.wilson_3sigma_low, batch.wilson_3sigma_high
    return (check, analytic, batch.estimate, low, high, verdict)


def _band_row(check: str, analytic: float, empirical: float, band: float) -> tuple:
    """An empirical moment against analytic +- band."""
    verdict = "PASS" if abs(empirical - analytic) <= band else "FAIL"
    return (check, analytic, empirical, analytic - band, analytic + band, verdict)


def cmd_simulate(args: argparse.Namespace) -> int:
    params = load_params(args.config)
    if args.trials < 2:  # one draw cannot estimate the estimator variance
        raise ConfigParseError(f"--trials must be >= 2, got {args.trials}")
    seed = args.seed if args.seed is not None else _default_seed()
    rows = simulate_rows(params, args.trials, seed, args.jobs, args.exact_threshold)
    if not args.quiet:
        print(f"# {args.trials} trials per check, seed {seed}")
        print(
            f"{'check':<20}{'analytic':>14}{'empirical':>14}{'band_low':>14}{'band_high':>14}  verdict"
        )
        for name, analytic, empirical, low, high, verdict in rows:
            print(
                f"{name:<20}{analytic:>14.6g}{empirical:>14.6g}{low:>14.6g}{high:>14.6g}  {verdict}"
            )
    failed = any(r[-1] == "FAIL" for r in rows)
    return EXIT_VALIDATION if failed else EXIT_OK


COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
}


def _one_line_warnings(default_format):
    """A ``warnings.formatwarning`` that renders a crpla warning as one
    ``warning: <message>`` line and a repeat of its message as nothing."""
    seen: set[str] = set()

    def format_warning(message, category, filename, lineno, line=None):
        if not issubclass(category, (NarrowMarginWarning, InsufficientResolutionWarning)):
            return default_format(message, category, filename, lineno, line)
        text = str(message)
        if text in seen:
            return ""
        seen.add(text)
        return f"warning: {text}\n"

    return format_warning


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    default_format = warnings.formatwarning
    warnings.formatwarning = _one_line_warnings(default_format)
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (ConfigParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CrplaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
