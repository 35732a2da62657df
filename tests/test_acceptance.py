"""Acceptance suite: end-to-end guarantees at their stated tolerances.

One test per criterion; each prints a ``[criterion N] PASS`` line (visible
with ``pytest -s``) before asserting, so a red run still shows which
guarantees held.  Heavy Monte Carlo runs use pinned seeds on the SFC64
block streams.
"""

import json
import math
import time

import numpy as np
import pytest

from crpla import channel, cli, hybrid, montecarlo
from crpla.params import SystemParams
from crpla.specfun import chi_square_sf, log_gamma, q_function, q_inverse
from quadrature_oracle import uniform_expectation

SEED = 1
DB_GRID = (20.0, 30.0, 50.0)
RATIO_GRID = (0.3, 0.6, 0.9)


def fig_params(db: float, ratio: float, **overrides) -> SystemParams:
    lambda_b = 10.0 ** (db / 10.0)
    base = dict(
        n=10,
        F=100,
        pilot_count=1,
        b_M=600,
        p_FA=1e-7,
        lambda_B=lambda_b,
        lambda_T=ratio * lambda_b,
        h_min=0.9,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def test_criterion_1_geometry_oracle():
    """Analytic attack-success probability vs 1e7-trial Monte Carlo."""
    settings = (
        (1, 1e5),
        (2, 1e4),
        (3, 3e3),
    )
    details = []
    ok = True
    for F, lambda_b in settings:
        tau = channel.threshold_from_pfa(0.05, F)
        params = fig_params(0.0, 1.0, F=F, pilot_count=10, lambda_B=lambda_b,
                            lambda_T=lambda_b, h_min=0.5, p_FA=0.05)
        radius = math.sqrt(
            (math.sqrt(2.0 * F) * tau + F) * channel.sigma_h_sq(params)
        )
        assert radius < 0.1 * (params.h_max - params.h_min)
        geometry = channel.geometry(params, tau, params.pilot_count, params.h_min)
        analytic = 2.0**geometry.log2_p_succ
        start = time.monotonic()
        batch = montecarlo.measure_attack_success(params, geometry.radius, 10_000_000, SEED)
        elapsed = time.monotonic() - start
        hit = batch.contains(analytic)
        ok &= hit and elapsed < 120.0
        details.append(
            f"F={F}: analytic={analytic:.4e} empirical={batch.estimate:.4e} "
            f"wilson=[{batch.wilson_3sigma_low:.4e},{batch.wilson_3sigma_high:.4e}] "
            f"{elapsed:.1f}s"
        )
    report("1", ok, "; ".join(details))
    assert ok


def test_criterion_2_false_alarm():
    """Empirical rejection rate vs the exact chi-square tail at F=100."""
    params = fig_params(30.0, 0.3, pilot_count=10, h_min=0.0)
    tau = q_inverse(0.05)
    exact = chi_square_sf(math.sqrt(200.0) * tau + 100.0, 100)
    start = time.monotonic()
    batch = montecarlo.measure_false_alarm(params, tau, 1_000_000, SEED)
    elapsed = time.monotonic() - start
    in_band = batch.contains(exact)
    # The exact tail is itself 14.4% off the asymptotic 0.05, so the 15%
    # claim is a property of the law; asked of the estimate, it would leave
    # a 1.2-sigma margin at 1e6 trials and fail about one seed in nine.
    near_asymptote = abs(exact - 0.05) / 0.05 < 0.15
    ok = in_band and near_asymptote and elapsed < 60.0
    report(
        "2",
        ok,
        f"exact={exact:.6f} empirical={batch.estimate:.6f} "
        f"wilson=[{batch.wilson_3sigma_low:.6f},{batch.wilson_3sigma_high:.6f}] "
        f"exact_dev_from_0.05={abs(exact - 0.05) / 0.05:.3f} {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_estimator_distribution():
    """Pilot estimator sample moments against the stated law."""
    trials = 1_000_000
    start = time.monotonic()
    moments = montecarlo.simulate_pilot_estimation(1.0, 100.0, 10, trials, SEED)
    elapsed = time.monotonic() - start
    sigma_sq = 1e-3
    mean_band = 3.0 * math.sqrt(sigma_sq / trials)
    var_band = 3.0 * math.sqrt(2.0 / (trials - 1)) * sigma_sq
    mean_ok = abs(moments.mean - 1.0) <= min(mean_band, 1e-4)
    var_ok = abs(moments.variance - sigma_sq) <= var_band
    ok = mean_ok and var_ok and elapsed < 60.0
    report(
        "3",
        ok,
        f"mean={moments.mean:.6f} (band ±{mean_band:.2e}) "
        f"variance={moments.variance:.6e} (band 1e-3 ±{var_band:.2e}) {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_endpoint_behavior():
    """Hybrid at the range endpoints tracks the matching baseline within 10%."""
    ok = True
    details = []
    for db in DB_GRID:
        for ratio in RATIO_GRID:
            near_ch = hybrid.evaluate(
                fig_params(db, ratio, h_min=0.01, pilot_count=9), "HYBRID"
            ).report.b_tot
            anchor = hybrid.evaluate(fig_params(db, ratio), "CH").report.b_tot
            rel = abs(near_ch - anchor) / anchor
            ok &= rel < 0.10
            details.append(f"CH {db:.0f}dB/{ratio}: {rel:.3f}")
    for db in DB_GRID:
        for ratio in RATIO_GRID:
            near_cd = hybrid.evaluate(
                fig_params(db, ratio, h_min=0.999, pilot_count=1), "HYBRID"
            ).report.b_tot
            anchor = hybrid.evaluate(fig_params(db, ratio), "CD").report.b_tot
            if anchor == 0.0:
                good = near_cd == 0.0
            else:
                good = abs(near_cd - anchor) / anchor < 0.10
            ok &= good
            details.append(f"CD {db:.0f}dB/{ratio}: {'ok' if good else 'MISS'}")
    report("4", ok, "; ".join(details))
    assert ok


def test_criterion_5_hybrid_dominance():
    """A high-floor grid point beats both baselines at 50 dB, ratio 0.3."""
    params = fig_params(50.0, 0.3)
    ch = hybrid.evaluate(params, "CH").report.b_tot
    cd = hybrid.evaluate(params, "CD").report.b_tot
    best = None
    for pilots in range(1, 10):
        for h_min in (0.81, 0.85, 0.9, 0.95, 0.99):
            cell = hybrid.evaluate(params.replace(pilot_count=pilots, h_min=h_min), "HYBRID").report
            if best is None or cell.b_tot > best.b_tot:
                best = cell
    ok = best.b_tot > ch and best.b_tot > cd and best.h_min_used > 0.8
    report(
        "5",
        ok,
        f"best={best.b_tot:.2f} (alpha={best.alpha_used}, h_min={best.h_min_used}) "
        f"vs CH={ch:.2f}, CD={cd:.2f}",
    )
    assert ok


def test_criterion_6a_saturation_to_channel_baseline():
    """Optimizer equals the channel-only baseline at high attacker SNR."""
    failures = []
    details = []
    for db in DB_GRID:
        for ratio in (0.6, 0.75, 0.9):
            params = fig_params(db, ratio)
            best = hybrid.optimize(params).b_tot
            anchor = hybrid.evaluate(params, "CH").report.b_tot
            gap = abs(best - anchor)
            details.append(f"{db:.0f}dB/{ratio}: gap={gap:.3g}")
            if gap > 1e-6:
                failures.append(
                    f"{db:.0f}dB/ratio={ratio}: optimizer={best:.6f} "
                    f"channel-only={anchor:.6f} gap={best - anchor:+.3f} bits"
                )
    report("6a", not failures, "; ".join(details))
    assert not failures, (
        "optimizer does not saturate to the channel-only baseline at: "
        + "; ".join(failures)
    )


def test_criterion_6b_approach_to_coding_baseline():
    """The optimizer-vs-coding gap closes monotonically as the SNR drops."""
    ok = True
    details = []
    for ratio in (0.3, 0.45):
        gaps = []
        for db in (50.0, 30.0, 20.0):
            params = fig_params(db, ratio)
            best = hybrid.optimize(params).b_tot
            cd = hybrid.evaluate(params, "CD").report.b_tot
            gaps.append(best - cd)
        strict_at_high = gaps[0] > 0.0
        shrinking = abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
        ok &= strict_at_high and shrinking
        details.append(
            f"ratio={ratio}: gaps(50,30,20dB)=({gaps[0]:+.2f},{gaps[1]:+.2f},{gaps[2]:+.2f})"
        )
    report("6b", ok, "; ".join(details))
    assert ok


def test_criterion_7_special_function_suite():
    """Round trips, exact factorials, and Riemann-sum quadrature anchors."""
    round_trip = max(
        abs(q_function(q_inverse(float(p))) - p) / p for p in np.logspace(-12, math.log10(0.5), 120)
    )
    lgamma_err = max(
        abs(log_gamma(m + 1.0) - math.fsum(math.log(k) for k in range(2, m + 1)))
        / max(1.0, abs(math.fsum(math.log(k) for k in range(2, m + 1))))
        for m in range(2, 171)
    )
    quad_err = 0.0
    for lam in (1e2, 1e3, 1e5):
        for f, g in (
            (lambda h: math.log2(1.0 + lam * h * h), lambda h: np.log2(1.0 + lam * h * h)),
            (lambda h: math.log2(1.0 + lam * h * h) ** 2, lambda h: np.log2(1.0 + lam * h * h) ** 2),
            (lambda h: 1.0 / (1.0 + lam * h * h), lambda h: 1.0 / (1.0 + lam * h * h)),
        ):
            value = uniform_expectation(f, 0.5, 1.0)
            grid = np.linspace(0.5, 1.0, 10_000_000, endpoint=False) + 0.5 / 10_000_000
            oracle = float(np.mean(g(grid)))
            quad_err = max(quad_err, abs(value - oracle) / abs(oracle))
    ok = round_trip < 1e-9 and lgamma_err < 1e-12 and quad_err < 1e-7
    report(
        "7",
        ok,
        f"round_trip={round_trip:.2e} lgamma={lgamma_err:.2e} quadrature={quad_err:.2e}",
    )
    assert ok


def test_criterion_8_determinism(tmp_path, capsys):
    """Byte-identical sweep and simulate outputs across runs and worker counts."""
    spec = {
        "sweep": {"variable": "h_min", "values": [0.0, 0.3, 0.6, 0.9, 1.0]},
        "mechanisms": ["CH", "CD", "HYBRID", "HYBRID_OPT"],
        "params": {
            "n": 10, "F": 100, "alpha": 0.1, "b_M": 600, "p_FA": 1e-7,
            "lambda_B_dB": 50, "lambda_T_over_lambda_B": 0.3, "h_min": 0.0, "h_max": 1.0,
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    csv_bytes = []
    for run, jobs in ((0, 1), (1, 4), (2, 1), (3, 4)):
        out = tmp_path / f"sweep{run}.csv"
        code = cli.main(
            ["sweep", "--config", str(spec_path), "--out", str(out), "--quiet", "--jobs", str(jobs)]
        )
        assert code == 0
        csv_bytes.append(out.read_bytes())
    sweep_ok = len(set(csv_bytes)) == 1

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "n": 10, "F": 2, "alpha": 1.0, "b_M": 0, "p_FA": 0.05,
                "lambda_B_dB": 40, "lambda_T_over_lambda_B": 1.0, "h_min": 0.5, "h_max": 1.0,
            }
        )
    )
    sim_outputs = []
    for jobs in (1, 4, 1):
        code = cli.main(
            ["simulate", "--config", str(sim_cfg), "--trials", "100000", "--seed", "7",
             "--jobs", str(jobs)]
        )
        assert code == 0
        sim_outputs.append(capsys.readouterr().out)
    sim_ok = len(set(sim_outputs)) == 1

    ok = sweep_ok and sim_ok
    report("8", ok, f"sweep_identical={sweep_ok} simulate_identical={sim_ok}")
    assert ok
