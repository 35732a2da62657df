"""Scenario parameters and security report types.

A scenario is a frame structure (F frames of n symbols, ``pilot_count``
pilots per frame), a message size, an overall false-alarm budget, the two
link SNR scales and the admissible channel-amplitude interval.  All
analysis modules consume the same immutable :class:`SystemParams` value.

Both checks see the amplitudes only through the SNR lambda_B * h^2 and
amplitude ratios, so the analysis reads the peak SNR S = lambda_B * h_max^2
(:attr:`SystemParams.S`) and the floor g = h_min / h_max; h_max enters only
the absolute quantities a report prints.  A power-of-two twin (c h_min,
c h_max, lambda_B / c^2) reads the same S and g whenever S is a normal
float, so it gives the same bits.

JSON configs use dB for the legitimate SNR and a ratio for the attacker
SNR; conversion to linear scale happens exactly once, at parse time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigParseError,
    InvalidPilotCount,
    InvalidProbability,
    InvalidRange,
    NonPositiveSnr,
)

__all__ = [
    "SystemParams",
    "PointGroup",
    "SecurityReport",
    "MECHANISMS",
    "validate",
    "params_from_config",
    "params_to_config",
    "db_to_linear",
    "lambda_t_from_ratio",
    "read_json_object",
    "load_params",
]

MECHANISMS = ("CH", "CD", "HYBRID")


@dataclass(frozen=True)
class SystemParams:
    """Immutable description of one authentication scenario.

    The pilot fraction alpha is stored as an integer ``pilot_count`` out of
    ``n`` so that alpha * n is an integer by construction.  ``lambda_B`` and
    ``lambda_T`` are linear (not dB) SNR scales.
    """

    n: int
    F: int
    pilot_count: int
    b_M: int
    p_FA: float
    lambda_B: float
    lambda_T: float
    h_min: float
    h_max: float = 1.0

    def __post_init__(self) -> None:
        validate(self)

    @property
    def alpha(self) -> float:
        """Pilot fraction alpha = pilot_count / n."""
        return self.pilot_count / self.n

    def with_alpha(self, alpha: float) -> "SystemParams":
        """Return a copy with the pilot count set from a fractional alpha."""
        return replace(self, pilot_count=_pilots_from_alpha(alpha, self.n))

    def replace(self, **changes: Any) -> "SystemParams":
        return replace(self, **changes)

    @property
    def S(self) -> float:
        """The peak amplitude SNR lambda_B * h_max^2, as (lambda_B * h_max) * h_max."""
        return self.lambda_B * self.h_max * self.h_max

    @property
    def points(self) -> tuple["SystemParams", ...]:
        """This point alone, as a :class:`PointGroup` lists its points."""
        return (self,)

    def stack(self, values: Sequence[Any], *cells: Any) -> Any:
        """The only entry of ``values``: one point has no points axis."""
        return values[0]


@dataclass(frozen=True)
class PointGroup:
    """Operating points that differ at most in lambda_B and lambda_T, so in S.

    ``channel.geometry``, ``channel.equivalent_key_bits`` and
    ``coding.hybrid_rates`` take a group wherever they take one SystemParams
    and evaluate all its points as one array computation, in which every
    per-point value gains a leading points axis (see :meth:`stack`).  The
    fields the points share read as on a SystemParams.
    """

    points: tuple[SystemParams, ...]

    def __post_init__(self) -> None:
        shared = {(p.n, p.F, p.pilot_count, p.b_M, p.p_FA, p.h_min, p.h_max) for p in self.points}
        if len(shared) != 1:
            raise ValueError("a point group needs points that differ only in the SNRs")

    n = property(lambda self: self.points[0].n)
    F = property(lambda self: self.points[0].F)
    pilot_count = property(lambda self: self.points[0].pilot_count)
    b_M = property(lambda self: self.points[0].b_M)
    p_FA = property(lambda self: self.points[0].p_FA)
    h_min = property(lambda self: self.points[0].h_min)
    h_max = property(lambda self: self.points[0].h_max)

    def replace(self, **changes: Any) -> "PointGroup":
        """The group of every point with the same fields replaced."""
        return PointGroup(tuple(p.replace(**changes) for p in self.points))

    def stack(self, values: Sequence[Any], *cells: Any) -> np.ndarray:
        """``values``, one per point, stacked on a leading points axis and
        followed by unit axes, so that the stack broadcasts against the
        arrays ``cells`` and leads all their axes: against a column of
        pilot counts and a row of h_min values, a value per point gives
        shape (points, 1, 1), and an h_min row per point (points, 1, h_min)."""
        stacked = np.array(values)
        padding = (1,) * (max(map(np.ndim, cells)) + 1 - stacked.ndim)
        return stacked.reshape(stacked.shape[:1] + padding + stacked.shape[1:])


def validate(params: SystemParams) -> SystemParams:
    """Check every invariant; return the value unchanged when all hold."""
    if not isinstance(params.n, int) or params.n < 1:
        raise InvalidPilotCount(f"n must be a positive integer, got {params.n!r}")
    if not isinstance(params.F, int) or params.F < 1:
        raise InvalidRange(f"F must be a positive integer, got {params.F!r}")
    if not isinstance(params.pilot_count, int) or not 0 <= params.pilot_count <= params.n:
        raise InvalidPilotCount(
            f"pilot_count must be an integer in [0, n={params.n}], got {params.pilot_count!r}"
        )
    if not isinstance(params.b_M, int) or params.b_M < 0:
        raise InvalidRange(f"b_M must be a non-negative integer, got {params.b_M!r}")
    if not (0.0 < params.p_FA < 1.0):
        raise InvalidProbability(f"p_FA must lie strictly inside (0, 1), got {params.p_FA!r}")
    for name in ("lambda_B", "lambda_T"):
        value = getattr(params, name)
        if not (math.isfinite(value) and value > 0.0):
            raise NonPositiveSnr(f"{name} must be finite and > 0, got {value!r}")
    if not (math.isfinite(params.h_min) and math.isfinite(params.h_max)):
        raise InvalidRange("h_min and h_max must be finite")
    if params.h_min < 0.0 or params.h_min > params.h_max:
        raise InvalidRange(
            f"need 0 <= h_min <= h_max, got h_min={params.h_min!r}, h_max={params.h_max!r}"
        )
    return params


@dataclass(frozen=True)
class SecurityReport:
    """Secret-bit accounting for one mechanism at one operating point.

    ``b_tot`` is always the sum of the two addends; it is derived, never
    stored.  A CH report carries no coding bits and a CD report no channel
    bits.
    """

    mechanism: str
    b_ch: float
    b_key: float
    alpha_used: float
    h_min_used: float

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.b_ch < 0 or self.b_key < 0:
            raise ValueError("secret-bit counts must be non-negative")
        if self.mechanism == "CH" and self.b_key != 0.0:
            raise ValueError("CH reports must have b_key = 0")
        if self.mechanism == "CD" and self.b_ch != 0.0:
            raise ValueError("CD reports must have b_ch = 0")

    @property
    def b_tot(self) -> float:
        return self.b_ch + self.b_key


def _pilots_from_alpha(alpha: float, n: int) -> int:
    if not 0.0 <= alpha <= 1.0:
        raise InvalidPilotCount(f"alpha must lie in [0, 1], got {alpha!r}")
    pilots = alpha * n
    rounded = round(pilots)
    if abs(pilots - rounded) > 1e-9:
        raise InvalidPilotCount(f"alpha * n = {pilots} is not an integer (n={n})")
    return int(rounded)


def db_to_linear(db: float) -> float:
    """Linear SNR scale 10**(dB / 10); a dB value whose scale overflows a
    float, or underflows to 0, is a config error."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError as exc:
        raise ConfigParseError(f"lambda_B_dB = {db!r} overflows the linear scale") from exc
    if linear == 0.0:
        raise ConfigParseError(f"lambda_B_dB = {db!r} underflows the linear scale")
    return linear


def lambda_t_from_ratio(ratio: float, lambda_b: float, key: str, value: float) -> float:
    """lambda_T = ratio * lambda_B, set by the input ``key`` = ``value``.  A
    product of finite positive factors that under- or overflows is a config
    error that names that input, not lambda_T, which the user did not set."""
    lambda_t = ratio * lambda_b
    if lambda_t in (0.0, math.inf) and 0.0 < ratio < math.inf and 0.0 < lambda_b < math.inf:
        flow = "underflows" if lambda_t == 0.0 else "overflows"
        raise ConfigParseError(
            f"{key} = {value!r} {flow} lambda_T = {ratio!r} * {lambda_b!r} to {lambda_t:g}"
        )
    return lambda_t


def _require(config: Mapping[str, Any], key: str) -> Any:
    if key not in config:
        raise ConfigParseError(f"missing required key {key!r}")
    return config[key]


def _exactly_one(config: Mapping[str, Any], *keys: str) -> str:
    present = [k for k in keys if k in config]
    if len(present) != 1:
        raise ConfigParseError(f"exactly one of {keys} must be given, found {present or 'none'}")
    return present[0]


def _as_number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParseError(f"key {key!r} must be a number, got {value!r}")
    return float(value)


def _as_int(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigParseError(f"key {key!r} must be an integer, got {value!r}")
    return value


_KNOWN_KEYS = frozenset(
    {
        "n",
        "F",
        "alpha",
        "pilot_count",
        "b_M",
        "p_FA",
        "lambda_B_dB",
        "lambda_B",
        "lambda_T_over_lambda_B",
        "lambda_T",
        "h_min",
        "h_max",
    }
)


def params_from_config(config: Mapping[str, Any]) -> SystemParams:
    """Build :class:`SystemParams` from a parsed JSON mapping.

    Accepted keys: n, F, alpha (or pilot_count), b_M, p_FA, lambda_B_dB
    (or linear lambda_B), lambda_T_over_lambda_B (or linear lambda_T),
    h_min, and optional h_max (default 1.0).  dB inputs convert as
    lambda = 10**(dB / 10).
    """
    unknown = set(config) - _KNOWN_KEYS
    if unknown:
        raise ConfigParseError(f"unknown keys in parameter config: {sorted(unknown)}")

    n = _as_int(_require(config, "n"), "n")

    alpha_key = _exactly_one(config, "alpha", "pilot_count")
    if alpha_key == "alpha":
        pilot_count = _pilots_from_alpha(_as_number(config["alpha"], "alpha"), n)
    else:
        pilot_count = _as_int(config["pilot_count"], "pilot_count")

    snr_key = _exactly_one(config, "lambda_B_dB", "lambda_B")
    if snr_key == "lambda_B_dB":
        lambda_b = db_to_linear(_as_number(config["lambda_B_dB"], "lambda_B_dB"))
    else:
        lambda_b = _as_number(config["lambda_B"], "lambda_B")

    atk_key = _exactly_one(config, "lambda_T_over_lambda_B", "lambda_T")
    if atk_key == "lambda_T_over_lambda_B":
        ratio = _as_number(config[atk_key], atk_key)
        lambda_t = lambda_t_from_ratio(ratio, lambda_b, atk_key, ratio)
    else:
        lambda_t = _as_number(config["lambda_T"], "lambda_T")

    try:
        return SystemParams(
            n=n,
            F=_as_int(_require(config, "F"), "F"),
            pilot_count=pilot_count,
            b_M=_as_int(_require(config, "b_M"), "b_M"),
            p_FA=_as_number(_require(config, "p_FA"), "p_FA"),
            lambda_B=lambda_b,
            lambda_T=lambda_t,
            h_min=_as_number(_require(config, "h_min"), "h_min"),
            h_max=_as_number(config.get("h_max", 1.0), "h_max"),
        )
    except TypeError as exc:
        raise ConfigParseError(str(exc)) from exc


def params_to_config(params: SystemParams) -> dict[str, Any]:
    """Emit the canonical JSON mapping for ``params``.

    Linear SNR keys are written rather than dB: the dB <-> linear maps are
    not mutually invertible at double precision, and a round trip through
    this mapping must reproduce the value bit-exactly.
    """
    return asdict(params)


def read_json_object(path: str) -> dict[str, Any]:
    """Read a JSON config file whose top-level value must be an object.

    The non-standard constants NaN, Infinity and -Infinity are rejected.
    """

    def reject_constant(name: str) -> Any:
        raise ConfigParseError(f"{path}: non-finite number {name} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top-level JSON value must be an object")
    return raw


def load_params(path: str) -> SystemParams:
    """Read and validate a parameter config file."""
    return params_from_config(read_json_object(path))
