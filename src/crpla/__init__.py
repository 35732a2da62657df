"""Security analysis for hybrid challenge-response physical-layer
authentication: channel-geometry key bits, finite-blocklength coding key
bits, their hybrid combination, and Monte Carlo validation of all three.
"""

from .channel import (
    ChannelGeometry,
    equivalent_key_bits,
    sigma_h_sq,
    test_statistic,
    threshold_from_pfa,
    threshold_from_pfa_exact,
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
from .montecarlo import (
    EstimatorMoments,
    TrialBatch,
    measure_attack_success,
    measure_false_alarm,
    simulate_pilot_estimation,
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
    "test_statistic",
    "threshold_from_pfa",
    "threshold_from_pfa_exact",
    "validate",
]
