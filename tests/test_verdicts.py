"""``simulate``'s verdicts on the attack row, and how often a correct run
FAILs a row.

Inside the fit radius the closed form is the centre guess's success rate,
and the attack row is two-sided.  Beyond it, or where it is not finite
(h_min = h_max), the closed form only bounds that rate from above, and
the row FAILs only when its Wilson interval lies wholly above the bound.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from verdict_survey import NOMINAL_RATE, POINTS, binomial_upper_bound, fail_counts

from crpla import channel, cli, montecarlo
from crpla.montecarlo import TrialBatch
from crpla.params import SystemParams, load_params

ROOT = Path(__file__).resolve().parent.parent

# radius_over_fit about 0.5: at F = 2, p_FA 0.05 and one pilot the radius
# squared is 5.29 / lambda_B, and the fit radius at h_min = 0 is h_max.
INSIDE = SystemParams(
    n=10, F=2, pilot_count=1, b_M=0, p_FA=0.05, lambda_B=21.0, lambda_T=21.0, h_min=0.0
)
BEYOND = POINTS["beyond_fit"]


def attack_row(params, trials=2048, seed=1):
    row = cli.simulate_rows(params, trials, seed)[2]
    assert row[0] == "attack_success"
    return row


class TestOneSidedRule:
    """The attack row's verdict on synthetic counts, inside and beyond the
    fit radius."""

    TRIALS = 100_000

    @pytest.mark.parametrize("params", [INSIDE, BEYOND], ids=["inside", "beyond"])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_interval_wholly_on_one_side(self, monkeypatch, params, side):
        geometry = channel.equivalent_key_bits(params, params.p_FA)
        beyond = geometry.radius_over_fit > 1.0
        assert beyond == (params is BEYOND)
        bound = 2.0**geometry.log2_p_succ
        rate = bound / 2.0 if side == "below" else (1.0 + bound) / 2.0
        batch = TrialBatch.from_counts(self.TRIALS, round(rate * self.TRIALS), seed=0)
        assert batch.wilson_3sigma_high < bound or batch.wilson_3sigma_low > bound
        monkeypatch.setattr(montecarlo, "measure_attack_success", lambda *args: batch)
        verdict = attack_row(params)[-1]
        assert verdict == ("PASS" if side == "below" and beyond else "FAIL")

    @pytest.mark.parametrize("params", [INSIDE, BEYOND], ids=["inside", "beyond"])
    def test_interval_holding_the_bound_passes(self, monkeypatch, params):
        bound = 2.0 ** channel.equivalent_key_bits(params, params.p_FA).log2_p_succ
        batch = TrialBatch.from_counts(self.TRIALS, round(bound * self.TRIALS), seed=0)
        monkeypatch.setattr(montecarlo, "measure_attack_success", lambda *args: batch)
        assert attack_row(params)[-1] == "PASS"


def test_centre_guess_beyond_the_fit_radius_passes():
    # The bound 0.679 lies above the whole interval around the centre
    # guess's 0.47, which a two-sided rule would FAIL.
    _, bound, estimate, low, high, verdict = attack_row(BEYOND, trials=20_000)
    assert 0.44 < estimate < 0.49
    assert high < bound
    assert verdict == "PASS"


def test_zero_width_interval_passes_without_traceback(tmp_path):
    # At h_min = h_max the ratio to the fit radius is infinite and the
    # closed form is 1 by convention; the centre guess matches both signs
    # of the tiny ball at a quarter of the trials.
    config = json.loads((ROOT / "configs" / "validate_small_f.json").read_text())
    config["h_min"] = config["h_max"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(config))
    assert math.isinf(channel.equivalent_key_bits(load_params(str(path)), 0.05).radius_over_fit)
    argv = ["simulate", "--config", str(path), "--trials", "20000", "--seed", "1", "--jobs", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "crpla.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    attack = [line.split() for line in result.stdout.splitlines() if "attack_success" in line]
    assert len(attack) == 1
    analytic, estimate, verdict = float(attack[0][1]), float(attack[0][2]), attack[0][-1]
    assert analytic == 1.0 and abs(estimate - 0.25) < 0.02 and verdict == "PASS"


@pytest.mark.parametrize(
    "params",
    [load_params(str(ROOT / "configs" / "validate_small_f.json")), POINTS["clamp"]],
    ids=["validate_small_f", "clamp"],
)
def test_no_row_fails_beyond_the_binomial_bound(params):
    # A correct run FAILs each row at about the nominal 3-sigma rate; a
    # verdict rule that does not hold at a point FAILs at most seeds.
    seeds = range(1, 301)
    fails = fail_counts(params, 2048, seeds)
    assert max(fails.values()) <= binomial_upper_bound(len(seeds), NOMINAL_RATE), fails
