"""How many key bits does wiretap coding buy at finite blocklength?

A shared key rides inside the codeword: the legitimate rate (after the
finite-length back-off) must carry message plus key, and the key part
must stay below what the attacker's channel concedes.  The demo prints
both budgets and where the clamp bites.
"""

from crpla import SystemParams, b_key_cd, eavesdropper_info, q_inverse
from crpla.coding import hybrid_rates

BASE = dict(n=10, F=100, pilot_count=0, b_M=600, p_FA=1e-7,
            lambda_B=1e5, lambda_T=3e4, h_min=1.0, h_max=1.0)


def main() -> None:
    params = SystemParams(**BASE)
    print("fixed top-amplitude channel, 1000 codeword symbols:")
    print(f"  achievable rate  R = {b_key_cd(params, 1e-7).rate:.4f} bits/symbol")
    print(f"  attacker bound   I(x;z) = {eavesdropper_info(params.lambda_T):.4f} bits/symbol")

    print("\nkey budget vs attacker SNR ratio (the secrecy clamp):")
    for ratio in (0.1, 0.3, 0.6, 0.9, 1.0):
        report = b_key_cd(params.replace(lambda_T=ratio * params.lambda_B), 1e-7)
        print(f"  ratio={ratio:<4} b_key_1={report.b_key_1:10.1f} "
              f"b_key_2={report.b_key_2:10.1f} -> b_key={report.b_key:10.1f}")

    print("\nkey budget vs message size (the rate clamp):")
    small = params.replace(lambda_T=10.0)
    for b_m in (0, 600, 6000, 16000):
        report = b_key_cd(small.replace(b_M=b_m), 1e-7)
        print(f"  b_M={b_m:<6} b_key_1={report.b_key_1:10.1f} "
              f"b_key_2={report.b_key_2:10.1f} -> b_key={report.b_key:10.1f}")

    print("\nrandomized amplitude (block fading) pays a dispersion penalty:")
    for h_min in (1.0, 0.9, 0.7, 0.4):
        fading = SystemParams(**{**BASE, "pilot_count": 1, "h_min": h_min})
        report = hybrid_rates(fading, q_inverse(1e-7), fading.pilot_count, h_min)
        print(f"  h in [{h_min},1]: mean info={report.i_xy:.4f} V={report.dispersion:8.4f} "
              f"Rbar={report.rate:.4f} -> b_key={report.b_key:10.1f}")


if __name__ == "__main__":
    main()
