"""Public API surface: every exported name resolves, the package's
exports are pinned, so adding or dropping one is a deliberate edit here,
importing the package loads no Monte Carlo code, and the runtime needs
no scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import crpla

ROOT = Path(__file__).resolve().parents[1]

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


# Modules no import of the package may load: numpy.random waits for the
# first Monte Carlo name, and the quadrature's nodes are literals.
UNLOADED = ("crpla.montecarlo", "numpy.random", "numpy.polynomial")

_LAZY_EXPORTS = """
from crpla import TrialBatch
import crpla
print(TrialBatch.__module__, crpla.measure_false_alarm.__module__)
"""


@pytest.mark.parametrize("module", ["crpla", "crpla.cli"])
def test_import_leaves_monte_carlo_unloaded(tmp_path, module):
    code = f"import sys, {module}\nprint([m for m in {UNLOADED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code + _LAZY_EXPORTS],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "crpla.montecarlo crpla.montecarlo"]


# A fresh interpreter in which any import of scipy fails, as if it were not
# installed; scipy stays a test-only oracle.
_NO_SCIPY = textwrap.dedent(
    """
    import sys

    class _BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, _BlockScipy())
    """
)


def _run_without_scipy(tmp_path, code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", _NO_SCIPY + textwrap.dedent(code)]
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)


class TestRuntimeWithoutScipy:
    def test_the_block_holds(self, tmp_path):
        result = _run_without_scipy(tmp_path, "import scipy.special")
        assert result.returncode == 1
        assert "ImportError: scipy is blocked" in result.stderr

    def test_import_cli(self, tmp_path):
        result = _run_without_scipy(tmp_path, "import crpla.cli")
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--config", "point_high_snr.json", "--exact-threshold"],
            ["simulate", "--config", "validate_small_f.json", "--trials", "2000", "--jobs", "1"],
        ],
        ids=["analyze_exact", "simulate"],
    )
    def test_cli_command(self, tmp_path, argv):
        argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
        code = f"""
        import sys
        from crpla import cli
        sys.exit(cli.main({argv!r}))
        """
        result = _run_without_scipy(tmp_path, code)
        assert result.returncode == 0, result.stderr
