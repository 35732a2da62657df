"""Parameter sweeps: evaluate mechanisms along one swept variable and
emit deterministic CSV.

A sweep spec is a JSON object::

    {
      "sweep": {"variable": "h_min", "values": [0.0, 0.01, ...]},
      "mechanisms": ["CH", "CD", "HYBRID", "HYBRID_OPT"],
      "params": { ... same schema as a point config ... }
    }

``variable`` is one of h_min, lambda_ratio, lambda_B_dB, F, alpha.
Sweeping lambda_B_dB preserves the configured attacker/legitimate SNR
ratio.  HYBRID rows evaluate the configured pilot split and h_min;
HYBRID_OPT rows run the optimizer per point, with the swept dimension
pinned when it is itself a search dimension (h_min or alpha).  A point
with a HYBRID_OPT row evaluates the optimizer grid once, and every other
row reads the report the grid holds: CH the channel-only candidate, HYBRID
the cell at the configured split, which has the same bits as the
single-point ``hybrid.evaluate`` (``TestGridMatchesScalarPath`` in
tests/test_hybrid.py).  Any other row is a single-point evaluation.

The points of a lambda_B_dB or lambda_ratio sweep differ only in lambda_B
and lambda_T, so the grids of all of them are one array computation with
a leading points axis (``hybrid.evaluate_grids``); the points of any other
sweep each evaluate their own grid.  Either way the rows, and the error of
a failing point, are those of the values swept one at a time.

CSV rows appear in (value, mechanism) input order with columns
swept_var, value, mechanism, alpha_used, h_min_used, b_ch, b_key, b_tot;
floats carry 12 significant digits and lines end with a bare newline, so
output is byte-stable across runs.  A sweep runs in a single process.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import hybrid
from .errors import ConfigParseError, CrplaError
from .params import (
    SecurityReport,
    SystemParams,
    db_to_linear,
    lambda_t_from_ratio,
    params_from_config,
    read_json_object,
)

__all__ = ["SweepSpec", "load_sweep_spec", "run_sweep", "write_csv", "write_atomic", "CSV_COLUMNS"]

SWEEP_VARIABLES = ("h_min", "lambda_ratio", "lambda_B_dB", "F", "alpha")
SWEEP_MECHANISMS = ("CH", "CD", "HYBRID", "HYBRID_OPT")
CSV_COLUMNS = ("swept_var", "value", "mechanism", "alpha_used", "h_min_used", "b_ch", "b_key", "b_tot")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple[float, ...]
    mechanisms: tuple[str, ...]
    params: SystemParams

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigParseError(
                f"swept variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not self.values:
            raise ConfigParseError("sweep value list must not be empty")
        if not self.mechanisms:
            raise ConfigParseError("mechanism list must not be empty")
        unknown = set(self.mechanisms) - set(SWEEP_MECHANISMS)
        if unknown:
            raise ConfigParseError(f"unknown mechanisms: {sorted(unknown)}")


def load_sweep_spec(path: str) -> SweepSpec:
    raw = read_json_object(path)
    unknown = set(raw) - {"sweep", "mechanisms", "params"}
    if unknown:
        raise ConfigParseError(f"unknown top-level keys in sweep spec: {sorted(unknown)}")
    for key in ("sweep", "mechanisms", "params"):
        if key not in raw:
            raise ConfigParseError(f"sweep spec missing key {key!r}")
    sweep_block = raw["sweep"]
    if not isinstance(sweep_block, Mapping) or set(sweep_block) != {"variable", "values"}:
        raise ConfigParseError("'sweep' must be an object with keys 'variable' and 'values'")
    values = sweep_block["values"]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    ):
        raise ConfigParseError("'sweep.values' must be a list of finite numbers")
    mechanisms = raw["mechanisms"]
    if not isinstance(mechanisms, list) or not all(isinstance(m, str) for m in mechanisms):
        raise ConfigParseError("'mechanisms' must be a list of mechanism names")
    if not isinstance(raw["params"], Mapping):
        raise ConfigParseError("'params' must be an object")
    return SweepSpec(
        variable=sweep_block["variable"],
        values=tuple(float(v) for v in values),
        mechanisms=tuple(mechanisms),
        params=params_from_config(raw["params"]),
    )


def apply_swept_value(params: SystemParams, variable: str, value: float) -> SystemParams:
    """Base parameters with one swept variable replaced."""
    if variable == "h_min":
        return params.replace(h_min=value)
    if variable == "lambda_ratio":
        lambda_t = lambda_t_from_ratio(value, params.lambda_B, variable, value)
        return params.replace(lambda_T=lambda_t)
    if variable == "lambda_B_dB":
        lambda_b = db_to_linear(value)
        ratio = params.lambda_T / params.lambda_B
        lambda_t = lambda_t_from_ratio(ratio, lambda_b, variable, value)
        return params.replace(lambda_B=lambda_b, lambda_T=lambda_t)
    if variable == "F":
        if value != int(value):
            raise ConfigParseError(f"F sweep values must be integers, got {value!r}")
        return params.replace(F=int(value))
    if variable == "alpha":
        return params.with_alpha(value)
    raise ConfigParseError(f"unknown swept variable {variable!r}")


def _opt_grid(params: SystemParams, variable: str) -> hybrid.OptimizationGrid:
    # A swept search dimension stays pinned at the swept value; the
    # channel-only endpoint only belongs to the fully free search.
    if variable == "h_min":
        return hybrid.OptimizationGrid(h_min_values=(params.h_min,), include_channel_only=False)
    if variable == "alpha":
        return hybrid.OptimizationGrid(pilot_counts=(params.pilot_count,), include_channel_only=False)
    return hybrid.OptimizationGrid()


# The points of these sweeps differ only in lambda_B and lambda_T.
_SNR_VARIABLES = ("lambda_ratio", "lambda_B_dB")


def run_sweep(
    spec: SweepSpec, exact_threshold: bool = False
) -> list[tuple[float, str, SecurityReport]]:
    """Evaluate the whole sweep; rows come back in (value, mechanism) input
    order, labelled with the requested mechanism even where the HYBRID_OPT
    optimum saturates to a baseline report.

    With HYBRID_OPT requested, the optimizer grids are evaluated before the
    rows: all points of a lambda_B_dB or lambda_ratio sweep as one array
    computation (``hybrid.evaluate_grids``), the points of any other sweep
    one at a time.  Each row takes ``GridCells.report`` when its grid holds
    one.  A value that cannot be applied, or a point whose grid fails, is
    held and raised where evaluating the rows one by one, in order, would
    first raise: the grid's error at the point's HYBRID_OPT row.
    """
    points: list[SystemParams] = []
    failure: CrplaError | None = None
    for value in spec.values:
        try:
            points.append(apply_swept_value(spec.params, spec.variable, value))
        except CrplaError as exc:  # no later value is evaluated
            failure = exc
            break
    grids: list[hybrid.GridCells | CrplaError | None] = [None] * len(points)
    if "HYBRID_OPT" in spec.mechanisms:
        snr_sweep = spec.variable in _SNR_VARIABLES and points
        groups = [points] if snr_sweep else [[point] for point in points]
        grids = [
            cells
            for group in groups
            for cells in hybrid.evaluate_grids(
                group, _opt_grid(group[0], spec.variable), exact_threshold
            )
        ]
    rows: list[tuple[float, str, SecurityReport]] = []
    for value, point, cells in zip(spec.values, points, grids):
        for mechanism in spec.mechanisms:
            if mechanism == "HYBRID_OPT" and isinstance(cells, CrplaError):
                raise cells
            report = cells.report(mechanism) if isinstance(cells, hybrid.GridCells) else None
            report = report or hybrid.evaluate(point, mechanism, exact_threshold).report
            rows.append((value, mechanism, report))
    if failure is not None:
        raise failure
    return rows


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def report_row(variable: str, value: float, label: str, report: SecurityReport) -> str:
    numbers = (report.alpha_used, report.h_min_used, report.b_ch, report.b_key, report.b_tot)
    return ",".join((variable, _fmt(value), label, *map(_fmt, numbers)))


def write_csv(
    rows: Sequence[tuple[float, str, SecurityReport]], variable: str, path: str
) -> None:
    """Write the CSV header and rows through :func:`write_atomic`."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [report_row(variable, value, label, report) for value, label, report in rows]
    write_atomic(path, "\n".join(lines) + "\n")


def write_atomic(path: str, payload: str) -> None:
    """Write ``payload`` so the target file appears complete or not at all.

    Any OSError (missing or unwritable directory, full disk) is reported
    as a ConfigParseError naming ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".crpla-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise ConfigParseError(f"cannot write {path}: {exc.strerror or exc}") from exc
