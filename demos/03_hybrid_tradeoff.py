"""The hybrid trade-off: pilots vs data, narrow vs wide amplitude range.

Running both checks splits the false-alarm budget in half but adds the
two key lengths.  Pilots feed the channel check and starve the codeword;
a high amplitude floor feeds the codeword and starves the challenge.
The optimizer walks the whole grid; this demo shows the terrain and the
regimes where each mechanism wins.
"""

from crpla import OptimizationGrid, SystemParams, evaluate, optimize


def params_at(db: float, ratio: float) -> SystemParams:
    lam = 10.0 ** (db / 10.0)
    return SystemParams(n=10, F=100, pilot_count=1, b_M=600, p_FA=1e-7,
                        lambda_B=lam, lambda_T=ratio * lam, h_min=0.9, h_max=1.0)


def main() -> None:
    params = params_at(50.0, 0.3)
    ch = evaluate(params, "CH").report.b_tot
    cd = evaluate(params, "CD").report.b_tot
    print(f"strong legitimate link (50 dB), weak attacker (ratio 0.3):")
    print(f"  channel-only  b_tot = {ch:8.1f}")
    print(f"  coding-only   b_tot = {cd:8.1f}")

    print("\nhybrid surface b_tot(pilots, h_min):")
    h_grid = (0.0, 0.5, 0.8, 0.9, 0.95, 1.0)
    print("  pilots\\h_min " + "".join(f"{h:>9}" for h in h_grid))
    for pilots in (1, 2, 5, 9):
        cells = [params.replace(pilot_count=pilots, h_min=h) for h in h_grid]
        row = [evaluate(cell, "HYBRID").report.b_tot for cell in cells]
        print(f"  {pilots:<12}" + "".join(f"{v:9.0f}" for v in row))

    best = optimize(params)
    print(f"\n  optimizer: b_tot={best.b_tot:.1f} at alpha={best.alpha_used}, "
          f"h_min={best.h_min_used} -> beats both baselines")

    print("\nsame search as the attacker's channel improves:")
    for ratio in (0.3, 0.45, 0.6, 0.9):
        point = params_at(50.0, ratio)
        best = optimize(point)
        tag = "hybrid interior" if best.mechanism == "HYBRID" else "channel-only endpoint"
        print(f"  ratio={ratio:<5} optimum={best.b_tot:8.1f} ({tag})")
    print("  once coding stops paying, the search collapses onto the channel-only corner")

    print("\npinning h_min (challenge range fixed by hardware, say) still leaves alpha:")
    pinned = OptimizationGrid(h_min_values=(0.9,), include_channel_only=False)
    for db in (20.0, 30.0, 50.0):
        best = optimize(params_at(db, 0.3), pinned)
        print(f"  {db:.0f} dB: best alpha={best.alpha_used:<4} b_tot={best.b_tot:8.1f}")


if __name__ == "__main__":
    main()
