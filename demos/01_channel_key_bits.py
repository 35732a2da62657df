"""How many key bits does the channel check buy?

The verifier randomizes the channel amplitude per frame and tests the
pilot-based estimate against it.  An impersonator must guess a vector
that lands inside the acceptance sphere; the log-volume deficit of that
sphere against the admissible amplitude cubes is the equivalent key
length b_ch.  This demo walks the knobs one at a time.
"""

from crpla import SystemParams, equivalent_key_bits, threshold_from_pfa

BASE = dict(n=10, F=100, pilot_count=10, b_M=600, p_FA=1e-7,
            lambda_B=1e5, lambda_T=3e4, h_min=0.0, h_max=1.0)


def show(label: str, params: SystemParams, p_fa_ch: float) -> None:
    geo = equivalent_key_bits(params, p_fa_ch)
    print(f"  {label:<28} radius={geo.radius:9.3e}  log2(Psucc)={geo.log2_p_succ:12.2f}"
          f"  b_ch={geo.b_ch:9.2f}")


def main() -> None:
    print("threshold: tau = Qinv(p_FA), the asymptotic-normal acceptance cut")
    for p in (0.05, 1e-3, 1e-7):
        print(f"  p_FA={p:<8g} tau={threshold_from_pfa(p, BASE['F']):.4f}")

    print("\nmore pilots -> sharper estimate -> smaller sphere -> more bits")
    for pilots in (1, 2, 5, 10):
        show(f"pilots={pilots}", SystemParams(**{**BASE, "pilot_count": pilots}), 1e-7)

    print("\nmore frames -> higher-dimensional guess -> bits scale with F")
    for frames in (25, 50, 100, 200):
        show(f"F={frames}", SystemParams(**{**BASE, "F": frames}), 1e-7)

    print("\nnarrowing the amplitude range shrinks the attacker's ambiguity")
    for h_min in (0.0, 0.5, 0.9, 1.0):
        show(f"h_min={h_min}", SystemParams(**{**BASE, "h_min": h_min}), 1e-7)
    print("  (at h_min = h_max the challenge has no randomness: b_ch = 0)")


if __name__ == "__main__":
    main()
