"""Do the analytic numbers survive contact with sampled randomness?

Three seeded measurements validate the closed forms: the pilot
estimator's moments, the false-alarm rate of the acceptance test, and
the geometric attack-success probability.  Identical seeds give
identical counts on any worker count, so every number below is
reproducible bit for bit.
"""

import math

from crpla import (
    SystemParams,
    chi_square_sf,
    equivalent_key_bits,
    measure_attack_success,
    measure_false_alarm,
    simulate_pilot_estimation,
    sigma_h_sq,
    threshold_from_pfa,
)

SEED = 2024
TRIALS = 500_000


def main() -> None:
    params = SystemParams(n=10, F=2, pilot_count=10, b_M=0, p_FA=0.05,
                          lambda_B=1e4, lambda_T=1e4, h_min=0.5, h_max=1.0)
    tau = threshold_from_pfa(params.p_FA, params.F)

    moments = simulate_pilot_estimation(1.0, params.lambda_B, 10, TRIALS, SEED)
    print("pilot estimator (h=1, 10 pilots):")
    print(f"  sample mean     {moments.mean:.6f}   (law: 1)")
    print(f"  sample variance {moments.variance:.3e}   (law: {sigma_h_sq(params):.3e})")

    fa = measure_false_alarm(params, tau, TRIALS, SEED + 1)
    exact = chi_square_sf(math.sqrt(2 * params.F) * tau + params.F, params.F)
    print(f"\nfalse alarms at tau={tau:.4f} (F={params.F}):")
    print(f"  empirical {fa.estimate:.5f} in [{fa.wilson_3sigma_low:.5f}, {fa.wilson_3sigma_high:.5f}]")
    print(f"  exact chi-square tail {exact:.5f}; asymptotic target {params.p_FA}")
    print("  (at tiny F the exact tail sits well above the asymptote)")

    attack = measure_attack_success(params, tau, 4 * TRIALS, SEED + 2)
    analytic = 2.0 ** equivalent_key_bits(params, params.p_FA).log2_p_succ
    print(f"\nattack success (guess the signed amplitudes of {params.F} frames):")
    print(f"  empirical {attack.estimate:.3e} in [{attack.wilson_3sigma_low:.3e}, {attack.wilson_3sigma_high:.3e}]")
    print(f"  analytic volume ratio {analytic:.3e}")
    verdict = "agrees" if attack.contains(analytic) else "DISAGREES"
    print(f"  -> analytic value {verdict} with the sampled interval")


if __name__ == "__main__":
    main()
