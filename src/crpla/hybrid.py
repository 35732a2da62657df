"""Hybrid mechanism: combine the channel check and the coding check, and
optimize the pilot/data split and the amplitude range.

The hybrid runs both checks on every message and halves the false-alarm
budget between them.  Its secret bits are the sum b_ch + b_key.  The two
single-mechanism baselines each run one check and therefore spend the
full false-alarm budget:

* channel-only: every symbol a pilot, amplitude free over [0, h_max];
* coding-only: no pilots, amplitude pinned at h_max.

``optimize`` scans pilot counts 1..n-1 against an h_min grid, evaluated
as one array computation by ``evaluate_grid`` with the same channel and
coding formulas as the single-point ``evaluate``; ``evaluate_grids`` does
the same for the grids of several points that differ only in the SNRs.
The channel-only configuration is the natural alpha = 1 endpoint of that
search (the coding check degenerates, so it keeps the full budget); it is
included as a candidate by default so the optimum saturates exactly to
the channel-only value when coding stops paying.  Disable it when h_min
is externally pinned, since the endpoint lives at h_min = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import channel, coding
from .channel import ChannelGeometry
from .coding import RateReport
from .errors import CrplaError, InvalidPilotCount, InvalidRange, NumericError
from .params import PointGroup, SecurityReport, SystemParams
from .specfun import q_inverse

__all__ = [
    "Evaluation",
    "GridCells",
    "OptimizationGrid",
    "evaluate",
    "optimize",
    "evaluate_grid",
    "evaluate_grids",
]


@dataclass(frozen=True)
class OptimizationGrid:
    """Search space for :func:`optimize`.

    ``pilot_counts`` defaults to every interior count 1..n-1 and
    ``h_min_values`` to the 101 points min(i * h_max / 100, h_max).
    """

    pilot_counts: tuple[int, ...] | None = None
    h_min_values: tuple[float, ...] | None = None
    include_channel_only: bool = True

    def resolve(
        self, params: SystemParams | PointGroup
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        pilots = self.pilot_counts
        if pilots is None:
            pilots = tuple(range(1, params.n))
        if not pilots:
            raise InvalidPilotCount("empty pilot-count grid")
        if any(not 1 <= p <= params.n - 1 for p in pilots):
            raise InvalidPilotCount(f"pilot counts must lie in 1..{params.n - 1}: {pilots}")
        h_values = self.h_min_values
        if h_values is None:
            h_values = tuple(min(i * params.h_max / 100.0, params.h_max) for i in range(101))
        if not h_values:
            raise InvalidRange("empty h_min grid")
        if any(not 0.0 <= h <= params.h_max for h in h_values):
            raise InvalidRange(f"h_min grid must stay within [0, {params.h_max}]")
        return tuple(pilots), tuple(h_values)


@dataclass(frozen=True)
class Evaluation:
    """One mechanism at one operating point: its report and what produced it.

    ``geometry`` is the channel check (None for CD) and ``rates`` the
    coding check (None for CH).
    """

    report: SecurityReport
    geometry: ChannelGeometry | None
    rates: RateReport | None


def _require_finite(mechanism: str, bits) -> None:
    if not np.isfinite(bits).all():
        raise NumericError(f"{mechanism} key bits are not finite at this operating point")


def _hybrid_checks(
    params: SystemParams | PointGroup, pilot_count, h_min, exact_threshold: bool
) -> tuple[ChannelGeometry, RateReport]:
    """Both hybrid checks, each on half the false-alarm budget, at scalar or
    broadcast ``pilot_count`` and ``h_min``, and at each point of a group;
    the coding back-off keeps its own Qinv(p_FA / 2), which the asymptotic
    channel threshold happens to share."""
    p_half = 0.5 * params.p_FA
    q = q_inverse(p_half)
    tau = channel.threshold_from_pfa(p_half, params.F, exact_threshold)
    geometry = channel.geometry(params, tau, pilot_count, h_min)
    rates = coding.hybrid_rates(params, q, pilot_count, h_min)
    _require_finite("HYBRID", geometry.b_ch + rates.b_key)
    return geometry, rates


def evaluate(
    params: SystemParams, mechanism: str, exact_threshold: bool = False
) -> Evaluation:
    """Evaluate CH, CD or HYBRID at the configured operating point.

    CH forces every symbol a pilot and h_min = 0; CD forces no pilots and
    the amplitude pinned at h_max; both spend the full false-alarm budget
    on their one check.  HYBRID requires an interior pilot split
    (1 <= pilots <= n-1) and gives each check half the budget.
    """
    if mechanism == "CH":
        forced = params.replace(pilot_count=params.n, h_min=0.0)
        geometry = channel.equivalent_key_bits(forced, params.p_FA, exact_threshold)
        _require_finite("CH", geometry.b_ch)
        report = SecurityReport("CH", geometry.b_ch, 0.0, alpha_used=1.0, h_min_used=0.0)
        return Evaluation(report, geometry, None)
    if mechanism == "CD":
        rates = coding.b_key_cd(params, params.p_FA)
        _require_finite("CD", rates.b_key)
        report = SecurityReport("CD", 0.0, rates.b_key, alpha_used=0.0, h_min_used=params.h_max)
        return Evaluation(report, None, rates)
    if mechanism != "HYBRID":
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if not 1 <= params.pilot_count <= params.n - 1:
        raise InvalidPilotCount(
            f"hybrid needs 1 <= pilot_count <= n-1, got {params.pilot_count} of n={params.n}"
        )
    checks = _hybrid_checks(params, params.pilot_count, params.h_min, exact_threshold)
    geometry, rates = map(channel.as_floats, checks)
    report = SecurityReport("HYBRID", geometry.b_ch, rates.b_key, params.alpha, params.h_min)
    return Evaluation(report, geometry, rates)


@dataclass(frozen=True)
class GridCells:
    """Every cell of one point's optimizer grid, and the channel-only candidate.

    ``b_ch`` and ``b_key`` are arrays with one row per pilot count and one
    column per h_min value, and ``optimum`` is the (row, column) of the best
    cell.  Iterating yields the report of every cell, pilot-major, then the
    channel-only candidate when there is one; ``report`` gives a sweep every
    row the grid holds.
    """

    params: SystemParams
    pilot_counts: tuple[int, ...]
    h_min_values: tuple[float, ...]
    b_ch: np.ndarray
    b_key: np.ndarray
    channel_only: SecurityReport | None
    optimum: tuple[int, int]

    def _cell(self, i: int, j: int, b_ch: float, b_key: float) -> SecurityReport:
        alpha = self.pilot_counts[i] / self.params.n
        return SecurityReport("HYBRID", b_ch, b_key, alpha, self.h_min_values[j])

    def __iter__(self) -> Iterator[SecurityReport]:
        for i, (b_ch_row, b_key_row) in enumerate(zip(self.b_ch.tolist(), self.b_key.tolist())):
            for j, (b_ch, b_key) in enumerate(zip(b_ch_row, b_key_row)):
                yield self._cell(i, j, b_ch, b_key)
        if self.channel_only is not None:
            yield self.channel_only

    def report(self, mechanism: str) -> SecurityReport | None:
        """The grid's report of ``mechanism`` at its own operating point, or
        None when it holds none: HYBRID_OPT is the optimum, CH the
        channel-only candidate, HYBRID the cell at the configured pilot
        count and h_min, labelled with the configured alpha and h_min."""
        if mechanism == "HYBRID_OPT":
            return self.best()
        if mechanism == "CH":
            return self.channel_only
        p = self.params
        on_grid = p.pilot_count in self.pilot_counts and p.h_min in self.h_min_values
        if mechanism != "HYBRID" or not on_grid:
            return None
        i, j = self.pilot_counts.index(p.pilot_count), self.h_min_values.index(p.h_min)
        b_ch, b_key = float(self.b_ch[i, j]), float(self.b_key[i, j])
        return SecurityReport("HYBRID", b_ch, b_key, p.alpha, p.h_min)

    def best(self) -> SecurityReport:
        """The maximum of (b_tot, -alpha, h_min): ties prefer fewer pilots,
        then a larger h_min, and the channel-only candidate (alpha = 1)
        wins only with strictly more bits."""
        i, j = self.optimum
        cell = self._cell(i, j, float(self.b_ch[i, j]), float(self.b_key[i, j]))
        ch = self.channel_only
        return ch if ch is not None and ch.b_tot > cell.b_tot else cell


def _optima(
    b_tot: np.ndarray, pilots: tuple[int, ...], h_values: tuple[float, ...]
) -> list[tuple[int, int]]:
    """The (row, column) of each point's best cell in ``b_tot`` (points x
    pilot counts x h_min values): the most bits, then the fewest pilots,
    then the largest h_min, then the first in grid order."""
    cells = (1, 2)  # the axes of one point's grid
    best = b_tot == b_tot.max(axis=cells, keepdims=True)
    pilot = np.asarray(pilots)[:, None]
    best &= pilot == np.where(best, pilot, np.inf).min(axis=cells, keepdims=True)
    h = np.asarray(h_values)
    best &= h == np.where(best, h, -np.inf).max(axis=cells, keepdims=True)
    return [divmod(int(k), len(h_values)) for k in best.reshape(len(b_tot), -1).argmax(axis=1)]


def _evaluate_group(
    group: PointGroup, grid: OptimizationGrid, exact_threshold: bool
) -> list[GridCells]:
    pilots, h_values = grid.resolve(group)
    channel_only = [
        evaluate(point, "CH", exact_threshold).report if grid.include_channel_only else None
        for point in group.points
    ]
    column, row = np.array(pilots)[:, None], np.array(h_values)
    geometry, rates = _hybrid_checks(group, column, row, exact_threshold)
    b_ch, b_key = geometry.b_ch, rates.b_key
    optima = _optima(b_ch + b_key, pilots, h_values)
    return [
        GridCells(point, pilots, h_values, b_ch[k], b_key[k], channel_only[k], optima[k])
        for k, point in enumerate(group.points)
    ]


def evaluate_grid(
    params: SystemParams,
    grid: OptimizationGrid = OptimizationGrid(),
    exact_threshold: bool = False,
) -> GridCells:
    """Evaluate every hybrid cell of the grid as one array computation,
    with the same checks as the single-point ``evaluate``: the grids of
    ``evaluate_grids`` at this point alone."""
    return _evaluate_group(PointGroup((params,)), grid, exact_threshold)[0]


def evaluate_grids(
    points: Sequence[SystemParams],
    grid: OptimizationGrid = OptimizationGrid(),
    exact_threshold: bool = False,
) -> list[GridCells | CrplaError]:
    """The grid at each of ``points``, which differ at most in lambda_B and
    lambda_T, evaluated as one array computation with a leading points axis.

    Each entry is what ``evaluate_grid`` returns at that point, or the
    CrplaError it raises there: when the group fails, its points are
    evaluated again one at a time, so that each keeps its own error.
    """
    try:
        return _evaluate_group(PointGroup(tuple(points)), grid, exact_threshold)
    except CrplaError as exc:
        if len(points) == 1:
            return [exc]
        return [evaluate_grids((point,), grid, exact_threshold)[0] for point in points]


def optimize(
    params: SystemParams,
    grid: OptimizationGrid = OptimizationGrid(),
    exact_threshold: bool = False,
) -> SecurityReport:
    """Exhaustive grid search for the (pilot count, h_min) maximizing b_tot.

    Deterministic regardless of grid ordering: the winner is the strict
    lexicographic maximum of (b_tot, -alpha, h_min), so ties prefer fewer
    pilots, then a larger h_min.
    """
    return evaluate_grid(params, grid, exact_threshold).best()
