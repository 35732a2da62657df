"""Hybrid combiner, baselines, and grid-search optimizer tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crpla import channel, coding
from crpla.errors import CrplaError, InvalidPilotCount, InvalidRange
from crpla.hybrid import OptimizationGrid, evaluate, evaluate_grid, evaluate_grids, optimize
from crpla.params import SecurityReport, SystemParams
from crpla.specfun import q_inverse

# Regression anchors, frozen after the first verified computation.
GOLDEN_CD_30DB_R06 = 498.80089782213764
GOLDEN_CD_50DB_R03 = 1499.727633355125


def make(**overrides):
    base = dict(
        n=10,
        F=100,
        pilot_count=1,
        b_M=600,
        p_FA=1e-7,
        lambda_B=1e5,
        lambda_T=3e4,
        h_min=0.9,
        h_max=1.0,
    )
    base.update(overrides)
    return SystemParams(**base)


class TestHybridBits:
    def test_tagged_and_split(self):
        report = evaluate(make(), "HYBRID").report
        assert report.mechanism == "HYBRID"
        assert report.alpha_used == pytest.approx(0.1)
        assert report.h_min_used == 0.9
        geo = channel.equivalent_key_bits(make(), 0.5e-7)
        rates = coding.hybrid_rates(make(), q_inverse(0.5e-7), 1, 0.9)
        assert report.b_ch == geo.b_ch
        assert report.b_key == rates.b_key
        assert report.b_tot == report.b_ch + report.b_key

    def test_degenerate_span_keeps_only_coding(self):
        report = evaluate(make(h_min=1.0), "HYBRID").report
        assert report.b_ch == 0.0
        assert report.b_tot == report.b_key > 0.0

    def test_strong_eavesdropper_keeps_only_channel(self):
        report = evaluate(make(lambda_T=9.9e4), "HYBRID").report
        assert report.b_key == 0.0
        assert report.b_tot == report.b_ch > 0.0

    @pytest.mark.parametrize("pilots", [0, 10])
    def test_interior_pilots_required(self, pilots):
        with pytest.raises(InvalidPilotCount):
            evaluate(make(pilot_count=pilots), "HYBRID")


class TestEvaluate:
    def test_hybrid_carries_both_checks(self):
        ev = evaluate(make(), "HYBRID")
        assert ev.geometry == channel.equivalent_key_bits(make(), 0.5e-7)
        assert ev.rates == coding.hybrid_rates(make(), q_inverse(0.5e-7), 1, 0.9)
        assert ev.report == SecurityReport("HYBRID", ev.geometry.b_ch, ev.rates.b_key, 0.1, 0.9)

    def test_ch_carries_only_geometry(self):
        ev = evaluate(make(), "CH")
        forced = make(pilot_count=10, h_min=0.0)
        assert ev.geometry == channel.equivalent_key_bits(forced, 1e-7)
        assert ev.rates is None
        assert ev.report == SecurityReport("CH", ev.geometry.b_ch, 0.0, 1.0, 0.0)

    def test_cd_carries_only_rates(self):
        ev = evaluate(make(), "CD")
        forced = make(pilot_count=0, h_min=1.0)
        assert ev.rates == coding.b_key_cd(forced, 1e-7)
        assert ev.geometry is None
        assert ev.report == SecurityReport("CD", 0.0, ev.rates.b_key, 0.0, 1.0)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            evaluate(make(), "HYBRID_OPT")


class TestBaselines:
    def test_ch_forces_configuration(self):
        report = evaluate(make(), "CH").report
        assert report.mechanism == "CH"
        assert report.alpha_used == 1.0
        assert report.h_min_used == 0.0
        assert report.b_key == 0.0

    def test_ch_matches_direct_geometry_call(self):
        params = make(lambda_B=1e3)
        forced = params.replace(pilot_count=10, h_min=0.0)
        direct = channel.equivalent_key_bits(forced, params.p_FA)
        assert evaluate(params, "CH").report.b_ch == direct.b_ch

    def test_ch_monotone_in_snr(self):
        low = evaluate(make(lambda_B=1e2, lambda_T=30.0), "CH").report.b_tot
        high = evaluate(make(lambda_B=1e5), "CH").report.b_tot
        assert high > low

    def test_ch_monotone_in_frames(self):
        few = evaluate(make(F=50, lambda_B=1e5), "CH").report.b_tot
        many = evaluate(make(F=200, lambda_B=1e5), "CH").report.b_tot
        assert many > few

    def test_cd_forces_configuration(self):
        report = evaluate(make(), "CD").report
        assert report.mechanism == "CD"
        assert report.alpha_used == 0.0
        assert report.h_min_used == 1.0
        assert report.b_ch == 0.0

    def test_cd_golden_values(self):
        mid = make(lambda_B=1e3, lambda_T=600.0)
        assert evaluate(mid, "CD").report.b_key == pytest.approx(GOLDEN_CD_30DB_R06, rel=1e-12)
        high = make(lambda_B=1e5, lambda_T=3e4)
        assert evaluate(high, "CD").report.b_key == pytest.approx(GOLDEN_CD_50DB_R03, rel=1e-12)

    def test_cd_vanishing_secrecy_gap(self):
        report = evaluate(make(lambda_B=1e3, lambda_T=1e3), "CD").report
        assert report.b_key == 0.0

    def test_cd_oversized_message(self):
        report = evaluate(make(lambda_B=1e3, lambda_T=1.0, b_M=100_000), "CD").report
        assert report.b_key == 0.0


class TestOptimizationGrid:
    def test_defaults_resolve(self):
        pilots, h_values = OptimizationGrid().resolve(make())
        assert pilots == tuple(range(1, 10))
        assert h_values == tuple(i / 100 for i in range(101))

    @pytest.mark.parametrize("h_max", [0.007, 0.013, 0.029])
    def test_default_h_min_grid_ends_at_h_max(self, h_max):
        assert 100 * h_max / 100.0 > h_max  # the unclamped last point
        params = make(h_max=h_max, h_min=0.9 * h_max)
        _, h_values = OptimizationGrid().resolve(params)
        assert h_values[-1] == max(h_values) == h_max
        assert 0.0 <= optimize(params).h_min_used <= h_max

    def test_rejects_bad_pilots(self):
        with pytest.raises(InvalidPilotCount):
            OptimizationGrid(pilot_counts=(0,)).resolve(make())
        with pytest.raises(InvalidPilotCount):
            OptimizationGrid(pilot_counts=()).resolve(make())

    def test_rejects_out_of_range_h(self):
        with pytest.raises(InvalidRange):
            OptimizationGrid(h_min_values=(1.5,)).resolve(make())


class TestOptimize:
    def test_single_cell_identity(self):
        grid = OptimizationGrid(
            pilot_counts=(2,), h_min_values=(0.85,), include_channel_only=False
        )
        best = optimize(make(), grid)
        cell = evaluate(make(pilot_count=2, h_min=0.85), "HYBRID").report
        assert best == cell

    def test_dominates_every_cell(self):
        params = make()
        grid = OptimizationGrid(
            pilot_counts=(1, 3, 5, 9), h_min_values=(0.0, 0.5, 0.9, 1.0)
        )
        best = optimize(params, grid)
        for pilots in grid.pilot_counts:
            for h_min in grid.h_min_values:
                cell = evaluate(params.replace(pilot_count=pilots, h_min=h_min), "HYBRID").report
                assert best.b_tot >= cell.b_tot
        assert best.b_tot >= evaluate(params, "CH").report.b_tot

    def test_order_invariance(self):
        params = make(lambda_B=1e3, lambda_T=900.0)
        pilots = list(range(1, 10))
        h_values = [k / 20.0 for k in range(21)]
        reference = optimize(
            params, OptimizationGrid(tuple(pilots), tuple(h_values))
        )
        rng = random.Random(99)
        for _ in range(3):
            rng.shuffle(pilots)
            rng.shuffle(h_values)
            shuffled = optimize(
                params, OptimizationGrid(tuple(pilots), tuple(h_values))
            )
            assert shuffled == reference

    def test_ties_prefer_fewer_pilots_then_larger_h_min(self):
        # clamped sphere and a stronger attacker: every cell is worth 0 bits
        params = make(lambda_B=1e-6, lambda_T=1.0)
        grid = OptimizationGrid(pilot_counts=(3, 1, 2), h_min_values=(0.2, 0.9, 0.5))
        best = optimize(params, grid)
        assert best.b_tot == 0.0
        assert (best.alpha_used, best.h_min_used) == (0.1, 0.9)

    def test_saturates_to_channel_baseline(self):
        # strong attacker: coding never pays, optimum is the alpha=1 endpoint
        params = make(lambda_T=9e4)
        best = optimize(params)
        assert best == evaluate(params, "CH").report

    def test_channel_candidate_excluded_when_disabled(self):
        params = make(lambda_T=9e4)
        best = optimize(params, OptimizationGrid(include_channel_only=False))
        assert best.mechanism == "HYBRID"
        assert best.b_tot < evaluate(params, "CH").report.b_tot

    def test_headline_point_beats_both_baselines(self):
        params = make()  # 50 dB, ratio 0.3
        best = optimize(params)
        assert best.b_tot > evaluate(params, "CH").report.b_tot
        assert best.b_tot > evaluate(params, "CD").report.b_tot
        assert best.h_min_used > 0.8

    def test_near_endpoint_tracks_channel_baseline(self):
        # interior point right next to the channel-only corner
        for lambda_b in (1e2, 1e3, 1e5):
            params = make(lambda_B=lambda_b, lambda_T=0.3 * lambda_b, h_min=0.01, pilot_count=9)
            near = evaluate(params, "HYBRID").report.b_tot
            anchor = evaluate(params, "CH").report.b_tot
            assert abs(near - anchor) / anchor < 0.1


def _lexicographic_max(reports):
    return max(reports, key=lambda r: (r.b_tot, -r.alpha_used, r.h_min_used))


_db = st.floats(0.0, 60.0)
_ratio = st.floats(0.05, 1.5)
_h_grid = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)


class TestGridMatchesScalarPath:
    """The array grid against scalar ``evaluate`` on the same cells."""

    @given(db=_db, ratio=_ratio, b_m=st.integers(0, 3000), f=st.sampled_from([2, 20, 100]),
           h_values=_h_grid, exact=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_optimize_is_max_of_scalar_cells(self, db, ratio, b_m, f, h_values, exact):
        lambda_b = 10.0 ** (db / 10.0)
        params = make(lambda_B=lambda_b, lambda_T=ratio * lambda_b, b_M=b_m, F=f)
        grid = OptimizationGrid(h_min_values=tuple(h_values))
        scalar = [
            evaluate(params.replace(pilot_count=pilots, h_min=h_min), "HYBRID", exact).report
            for pilots in range(1, params.n)
            for h_min in h_values
        ]
        scalar.append(evaluate(params, "CH", exact).report)
        assert list(evaluate_grid(params, grid, exact)) == scalar
        assert optimize(params, grid, exact) == _lexicographic_max(scalar)

    @given(db=_db, ratios=st.lists(_ratio, min_size=2, max_size=4), h_values=_h_grid)
    @settings(max_examples=25, deadline=None)
    def test_b_tot_does_not_grow_with_attacker_snr(self, db, ratios, h_values):
        lambda_b = 10.0 ** (db / 10.0)
        grid = OptimizationGrid(h_min_values=tuple(h_values))
        cells, optima = [], []
        for ratio in sorted(ratios):
            params = make(lambda_B=lambda_b, lambda_T=ratio * lambda_b)
            cells.append([r.b_tot for r in evaluate_grid(params, grid)])
            optima.append(optimize(params, grid).b_tot)
        for weaker, stronger in zip(cells, cells[1:]):
            assert all(a >= b for a, b in zip(weaker, stronger))
        assert all(a >= b for a, b in zip(optima, optima[1:]))

    @given(db=_db, pilots=st.integers(1, 9), h_values=_h_grid)
    @settings(max_examples=25, deadline=None)
    def test_b_ch_does_not_grow_with_h_min(self, db, pilots, h_values):
        lambda_b = 10.0 ** (db / 10.0)
        params = make(lambda_B=lambda_b, lambda_T=0.3 * lambda_b, pilot_count=pilots)
        h_sorted = sorted(h_values)
        grid = OptimizationGrid(pilot_counts=(pilots,), h_min_values=tuple(h_sorted))
        row = evaluate_grid(params, grid).b_ch[0]
        assert np.all(np.diff(row) <= 0.0)
        scalar = [evaluate(params.replace(h_min=h), "HYBRID").report.b_ch for h in h_sorted]
        assert scalar == row.tolist()


class TestEvaluateGrids:
    """The grids of a group of points, one array computation for all."""

    def test_each_point_as_if_alone(self):
        # at lambda_B = 1e308 the channel-only candidate fails; the others do not
        points = [make(lambda_B=lb, lambda_T=0.3 * lb) for lb in (1e2, 1e308, 1e5)]
        for point, cells in zip(points, evaluate_grids(points)):
            try:
                alone = evaluate_grid(point)
            except CrplaError as exc:
                assert repr(cells) == repr(exc)
            else:
                assert list(cells) == list(alone)
                assert cells.best() == alone.best()

    @given(
        lambdas=st.lists(st.floats(1e-300, 1e307), min_size=1, max_size=4),
        failing_at=st.none() | st.integers(0, 4),
        ratio=st.floats(1e-3, 1.5),
        F=st.sampled_from((1, 2, 100)),
        exact=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_channel_only_is_the_single_point_report(self, lambdas, failing_at, ratio, F, exact):
        # the group's channel-only candidates are one channel evaluation; each
        # must be, by repr, the point's own CH report, or its own error where a
        # point at lambda_B = 1e308 (lambda_B * n overflows) fails the group
        if failing_at is not None:
            lambdas.insert(failing_at, 1e308)
        points = [make(F=F, lambda_B=lb, lambda_T=ratio * lb) for lb in lambdas]
        for point, cells in zip(points, evaluate_grids(points, exact_threshold=exact)):
            try:
                expected = repr(evaluate(point, "CH", exact).report)
            except CrplaError as exc:
                expected = repr(exc)
            got = repr(cells) if isinstance(cells, CrplaError) else repr(cells.channel_only)
            assert got == expected

    def test_points_differ_only_in_the_snrs(self):
        with pytest.raises(ValueError):
            evaluate_grids([make(), make(F=20)])
        with pytest.raises(ValueError):
            evaluate_grids([make(), make(h_min=0.5)])
