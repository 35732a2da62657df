"""Tests of the benchmark's own logic; they import nothing from crpla.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import CSV_HEADER, check_curve, check_ops, check_simulate  # noqa: E402
from run import end_to_end, quantile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DB_RANGE, MAP_CURVES, RATIO_RANGE, WORKLOADS  # noqa: E402

BASE = {
    "n": 10, "F": 100, "alpha": 0.1, "b_M": 600, "p_FA": 1e-07,
    "lambda_B_dB": 50, "lambda_T_over_lambda_B": 0.3, "h_min": 0.9, "h_max": 1.0,
}  # fmt: skip


class TestPercentile:
    @pytest.mark.parametrize("n", [92, 100, 101, 250])
    def test_p90_has_ten_samples_above_it(self, n):
        samples = [float(i) for i in range(n)]
        p90 = quantile(samples, 0.9)
        assert sum(x > p90 for x in samples) >= 10

    @pytest.mark.parametrize("n", [1, 9, 50, 91])
    def test_fewer_samples_leave_fewer_than_ten_above(self, n):
        samples = [float(i) for i in range(n)]
        assert sum(x > quantile(samples, 0.9) for x in samples) < 10

    def test_quantile_interpolates(self):
        assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
        assert quantile([float(i) for i in range(11)], 0.1) == 1.0
        assert quantile([5.0], 0.9) == 5.0

    def test_run_reports_how_many_calls_lie_above_p90(self):
        row = CSV_HEADER + "\nrow\n"
        ops = [{"s": i / 1000.0, "csv": row, "stdout": ""} for i in range(1, 101)]
        run = {"ops": ops, "peak_rss_mb": 80.0, "setup_s": 0.5}
        metrics, extras = end_to_end(WORKLOADS["opt_map_cold"], [run], run)
        assert metrics["call_ms_p90"] == pytest.approx(90.1)
        assert extras["calls"] == 100 and extras["calls_above_p90"] == 10
        assert extras["rows_per_s"] == pytest.approx(100 / sum(op["s"] for op in ops))


class TestTracer:
    def test_self_time_and_spans_on_a_synthetic_tree(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def step(seconds):
            now[0] += seconds

        def leaf_d():
            step(6)

        def mid_b():
            step(4)
            d()
            step(5)

        def leaf_c():
            step(7)

        def root_a():
            step(1)
            b()
            step(2)
            c()
            step(3)

        d = tracer.wrap("d", leaf_d, span=True)
        b = tracer.wrap("b", mid_b)  # counters only: d's span parent is a
        c = tracer.wrap("c", leaf_c, span=True)
        a = tracer.wrap("a", root_a, span=True)
        tracer.request = "r1"
        a()

        stats = tracer.stats
        assert stats["a"] == {"calls": 1, "total_s": 28.0, "self_s": 6.0}
        assert stats["b"] == {"calls": 1, "total_s": 15.0, "self_s": 9.0}
        assert stats["c"] == {"calls": 1, "total_s": 7.0, "self_s": 7.0}
        assert stats["d"] == {"calls": 1, "total_s": 6.0, "self_s": 6.0}
        assert sum(s["self_s"] for s in stats.values()) == stats["a"]["total_s"]
        spans = {s["name"]: s for s in tracer.spans}
        assert (spans["a"]["start"], spans["a"]["end"]) == (0.0, 28.0)
        assert spans["a"]["parent"] is None
        assert spans["d"]["parent"] == spans["a"]["id"]
        assert spans["c"]["parent"] == spans["a"]["id"]
        assert {s["request"] for s in tracer.spans} == {"r1"}

    def test_self_time_survives_an_exception(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def fail():
            now[0] += 2
            raise RuntimeError("boom")

        def outer():
            now[0] += 1
            with pytest.raises(RuntimeError):
                inner()

        inner = tracer.wrap("inner", fail)
        tracer.wrap("outer", outer)()
        assert tracer.stats["outer"]["self_s"] == 1.0
        assert tracer.stats["inner"]["total_s"] == 2.0


class TestInputs:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_bytes(self, name):
        first = WORKLOADS[name].inputs(7, BASE)
        second = WORKLOADS[name].inputs(7, dict(BASE))
        assert first == second
        assert first.sha256() == second.sha256()
        assert WORKLOADS[name].inputs(8, BASE).sha256() != first.sha256()

    def test_map_is_cold_and_in_range(self):
        inputs = WORKLOADS["opt_map_cold"].inputs(3, BASE)
        specs = [json.loads(text) for text in inputs.files.values()]
        assert len(specs) == len(inputs.calls) == MAP_CURVES
        values = [v for s in specs for v in s["sweep"]["values"]]
        assert len(set(values)) == len(values)  # every optimize misses the moment cache
        assert all(DB_RANGE[0] <= v <= DB_RANGE[1] for v in values)
        ratios = [s["params"]["lambda_T_over_lambda_B"] for s in specs]
        assert all(RATIO_RANGE[0] <= r <= RATIO_RANGE[1] for r in ratios)


SPEC = {
    "sweep": {"variable": "lambda_B_dB", "values": [20.5]},
    "mechanisms": ["CH", "CD", "HYBRID", "HYBRID_OPT"],
    "params": BASE,
}
ROWS = [
    "lambda_B_dB,20.5,CH,1,0,300.5,0,300.5",
    "lambda_B_dB,20.5,CD,0,1,0,900.25,900.25",
    "lambda_B_dB,20.5,HYBRID,0.1,0.9,500,10.5,510.5",
    "lambda_B_dB,20.5,HYBRID_OPT,0.1,0.5,600,20,620",
]
REFERENCE_KEYS = ("value", "mechanism", "alpha_used", "h_min_used", "b_tot")
REFERENCE = [dict(zip(REFERENCE_KEYS, [*row.split(",")[1:5], row.split(",")[7]])) for row in ROWS]


def csv_text(rows):
    return "\n".join([CSV_HEADER, *rows]) + "\n"


class TestCurveCheck:
    def test_correct_curve_passes(self):
        assert check_curve(SPEC, csv_text(ROWS), REFERENCE) == []

    def test_b_tot_not_the_sum(self):
        rows = ROWS[:2] + ["lambda_B_dB,20.5,HYBRID,0.1,0.9,500,10.5,510.6"] + ROWS[3:]
        assert any("b_ch + b_key" in p for p in check_curve(SPEC, csv_text(rows)))

    def test_optimum_below_a_baseline(self):
        rows = ROWS[:3] + ["lambda_B_dB,20.5,HYBRID_OPT,0.1,0.5,200,0,200"]
        problems = check_curve(SPEC, csv_text(rows))
        assert any("< CH" in p for p in problems) and any("< HYBRID" in p for p in problems)

    def test_argmax_differs_from_reference(self):
        rows = ROWS[:3] + ["lambda_B_dB,20.5,HYBRID_OPT,0.2,0.5,600,20,620"]
        assert any("argmax" in p for p in check_curve(SPEC, csv_text(rows), REFERENCE))

    def test_b_tot_differs_from_reference(self):
        rows = ROWS[:3] + ["lambda_B_dB,20.5,HYBRID_OPT,0.1,0.5,600,20.001,620.001"]
        assert any("reference" in p for p in check_curve(SPEC, csv_text(rows), REFERENCE))

    def test_missing_row(self):
        assert check_curve(SPEC, csv_text(ROWS[:3])) == ["3 rows, expected 4"]

    def test_counted_as_failed_operation(self):
        files = {"c.json": json.dumps(SPEC)}
        calls = [("sweep", "--config", "c.json")]
        good = {"index": 0, "rc": 0, "exc": None, "stderr": "", "csv": csv_text(ROWS)}
        wrong_sum = "lambda_B_dB,20.5,HYBRID_OPT,0,0,1,1,5"
        bad = dict(good, index=1, csv=csv_text(ROWS[:3] + [wrong_sum]))
        crashed = dict(good, index=2, rc=None, exc="Traceback ...\nValueError: x\n")
        attempted, failed, problems = check_ops(True, files, calls, [good, bad, crashed])
        assert (attempted, failed) == (3, 2)
        assert any("traceback" in p for p in problems)


TABLE = """# 16384 trials per check, seed 3
check                     analytic     empirical      band_low     band_high  verdict
false_alarm            7.26537e-06             0             0   0.000549015  PASS
false_alarm_asym             1e-07             0           nan           nan  INFO
attack_success        1.73826e-108             0             0   0.000549015  WARN
estimator_mean                   1       1.00001      0.999926       1.00007  PASS
estimator_variance           1e-05   9.96393e-06   9.66853e-06   1.03315e-05  PASS
"""


class TestSimulateCheck:
    def op(self, index, stdout=TABLE, rc=0):
        return {"index": index, "rc": rc, "exc": None, "stdout": stdout, "stderr": ""}

    def test_correct_table_passes(self):
        assert all(p is None for p in check_simulate(TABLE).values())
        assert check_ops(False, {}, [("simulate",)], [self.op(0), self.op(1)]) == (10, 0, [])

    def test_injected_fail_verdict(self):
        table = TABLE.replace("1.00007  PASS", "1.00007  FAIL")
        assert check_simulate(table)["estimator_mean"] == "verdict FAIL"
        attempted, failed, _ = check_ops(False, {}, [("simulate",)], [self.op(0, table, rc=3)])
        assert (attempted, failed) == (5, 1)

    def test_warn_only_on_attack_success(self):
        table = TABLE.replace("0.000549015  PASS", "0.000549015  WARN")
        assert check_simulate(table)["false_alarm"] == "verdict WARN"

    def test_missing_row(self):
        table = TABLE.replace("estimator_variance", "something_else")
        assert check_simulate(table)["estimator_variance"] == "row missing"

    def test_repeat_must_give_the_same_table(self):
        other = TABLE.replace("1.00001", "1.00002")
        _, failed, problems = check_ops(False, {}, [("simulate",)], [self.op(0), self.op(1, other)])
        assert failed == 5 and "differs" in problems[0]
