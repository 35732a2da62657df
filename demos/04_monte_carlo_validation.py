"""Do the analytic numbers survive contact with sampled randomness?

Three seeded measurements validate the closed forms: the pilot
estimator's moments, the false-alarm rate of the acceptance test, and
the geometric attack-success probability.  The rows and their verdicts
are those of ``crpla simulate``; this script only narrates them.
Identical seeds give identical counts on any worker count, so every
number below is reproducible bit for bit.
"""

from crpla import SystemParams
from crpla.cli import simulate_rows

SEED = 2024
TRIALS = 1_000_000

# What each simulate row compares.
NARRATIVE = {
    "false_alarm": "legitimate-traffic rejections against the exact chi-square tail",
    "false_alarm_asym": "the same rejections beside the asymptotic normal target p_FA "
    "(at tiny F the exact tail sits well above it; not judged)",
    "attack_success": "the centre guess landing in the acceptance ball, against the volume ratio",
    "estimator_mean": "the pilot estimator's sample mean against h_max",
    "estimator_variance": "its sample variance against 1 / (lambda_B * pilots)",
}


def main() -> None:
    params = SystemParams(n=10, F=2, pilot_count=10, b_M=0, p_FA=0.05,
                          lambda_B=1e4, lambda_T=1e4, h_min=0.5, h_max=1.0)
    print(f"simulate at F={params.F}, {params.pilot_count} pilots, "
          f"{TRIALS} trials per check, seed {SEED}:")
    for check, analytic, empirical, low, high, verdict in simulate_rows(params, TRIALS, SEED):
        print(f"\n{check}: {NARRATIVE[check]}")
        print(f"  analytic {analytic:.6g}, empirical {empirical:.6g}, "
              f"band [{low:.6g}, {high:.6g}] -> {verdict}")


if __name__ == "__main__":
    main()
