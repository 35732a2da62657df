"""Security analysis for hybrid challenge-response physical-layer
authentication: channel-geometry key bits, finite-blocklength coding key
bits, their hybrid combination, and Monte Carlo validation of all three.

The Monte Carlo names (``TrialBatch``, ``measure_false_alarm``, ...) are
resolved on first use, so ``import crpla`` loads numpy's random module
only when one of them is first looked up.
"""

from .channel import (
    ChannelGeometry,
    equivalent_key_bits,
    sigma_h_sq,
    threshold_from_pfa,
)
from .coding import (
    RateReport,
    b_key_cd,
    eavesdropper_info,
    mutual_info_fixed,
)
from .hybrid import (
    Evaluation,
    OptimizationGrid,
    evaluate,
    optimize,
)
from .params import (
    MECHANISMS,
    SecurityReport,
    SystemParams,
    load_params,
    params_from_config,
    params_to_config,
    validate,
)
from .specfun import (
    chi_square_sf,
    log_gamma,
    q_function,
    q_inverse,
)

__version__ = "0.1.0"

_MONTECARLO_EXPORTS = frozenset(
    {
        "EstimatorMoments",
        "TrialBatch",
        "measure_attack_success",
        "measure_false_alarm",
        "simulate_pilot_estimation",
    }
)


def __getattr__(name: str):
    if name in _MONTECARLO_EXPORTS:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ChannelGeometry",
    "EstimatorMoments",
    "Evaluation",
    "MECHANISMS",
    "OptimizationGrid",
    "RateReport",
    "SecurityReport",
    "SystemParams",
    "TrialBatch",
    "b_key_cd",
    "chi_square_sf",
    "eavesdropper_info",
    "equivalent_key_bits",
    "evaluate",
    "load_params",
    "log_gamma",
    "measure_attack_success",
    "measure_false_alarm",
    "mutual_info_fixed",
    "optimize",
    "params_from_config",
    "params_to_config",
    "q_function",
    "q_inverse",
    "sigma_h_sq",
    "simulate_pilot_estimation",
    "threshold_from_pfa",
    "validate",
]
