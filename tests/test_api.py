"""Public API surface: every exported name resolves, and the package's
exports are pinned, so adding or dropping one is a deliberate edit here."""

import importlib
import pkgutil

import pytest

import crpla

MODULES = sorted(info.name for info in pkgutil.iter_modules(crpla.__path__, "crpla."))

PACKAGE_ALL = [
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
    "validate",
]


def test_package_exports_are_pinned():
    assert sorted(crpla.__all__) == PACKAGE_ALL
    assert len(set(crpla.__all__)) == len(crpla.__all__)


@pytest.mark.parametrize("name", ["crpla", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(set(exports)) == len(exports)
