"""Regenerating the headline curves as CSV.

The sweep runner produces one row per (swept value, mechanism) with a
fixed 12-digit format, so the same spec always yields the same bytes.
This demo runs a coarse amplitude-floor sweep in-process and prints the
crossover story; the shipped configs under configs/ carry the full
101-point versions for the command-line tool.
"""

from crpla.params import params_from_config
from crpla.sweep import SweepSpec, run_sweep

PARAMS = {
    "n": 10, "F": 100, "alpha": 0.1, "b_M": 600, "p_FA": 1e-7,
    "lambda_B_dB": 50, "lambda_T_over_lambda_B": 0.3, "h_min": 0.0, "h_max": 1.0,
}


def main() -> None:
    spec = SweepSpec(
        variable="h_min",
        values=tuple(k / 10.0 for k in range(11)),
        mechanisms=("CH", "CD", "HYBRID_OPT"),
        params=params_from_config(PARAMS),
    )
    rows = run_sweep(spec)
    by_value: dict[float, dict[str, float]] = {}
    for value, label, rep in rows:
        by_value.setdefault(value, {})[label] = rep.b_tot

    print("b_tot vs amplitude floor (50 dB, attacker ratio 0.3):")
    print(f"  {'h_min':>6} {'CH':>10} {'CD':>10} {'HYBRID_OPT':>12}")
    for value in spec.values:
        cells = by_value[value]
        print(f"  {value:>6} {cells['CH']:>10.1f} {cells['CD']:>10.1f} {cells['HYBRID_OPT']:>12.1f}")
    print("\n  left edge: the optimized hybrid rides the channel-only value;")
    print("  right edge: it hands over to coding; in between it beats both.")
    print("\nfull-resolution variants:")
    print("  crpla sweep --config configs/sweep_hmin.json --out hmin.csv")
    print("  crpla sweep --config configs/sweep_snr_ratio.json --out ratio.csv")


if __name__ == "__main__":
    main()
