"""The public surface: the package exports exactly its modules' ``__all__`` lists.

``stokes_isolas/__init__.py`` star-imports each module, so a name enters or
leaves the API only through its module's list.  These tests pin that list
of names, so that no name is exported by accident.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import stokes_isolas

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("asymptotics", "beta", "dispersion", "errors", "isola", "resonance", "stokes_coefficients")
PUBLIC = [
    "AsymptoticModel", "BetaBreakdown", "BetaTermId", "DEEP_WATER_GROUPS", "DegenerateFitError", "IsolaGeometry",
    "IsolaParams", "LEADING_MODELS", "OracleError", "ResonanceData", "ScanRow", "SingularityError", "SolverError",
    "StokesCoefficients", "StokesIsolasError", "WAVENUMBER_MODELS", "band_endpoints", "beta1", "beta1_breakdown",
    "beta_scan", "beta_term_ids", "build_resonance_data", "discriminant", "eigenvalue_branch", "eigenvalue_pair",
    "ellipse_points", "find_beta_zeros", "fit_remainder_rate", "isola_geometry", "leading_term", "neumaier_sum",
    "omega_disp", "omega_star", "phase_speed", "resonance_residual", "solve_wavenumber", "stokes_coefficients",
    "t_ratio", "wavenumber_asymptote",
]


def home_modules():
    return [importlib.import_module(f"stokes_isolas.{name}") for name in MODULES]


def test_public_names():
    assert sorted(stokes_isolas.__all__) == PUBLIC


def test_all_is_the_modules_lists_in_turn():
    assert stokes_isolas.__all__ == [name for module in home_modules() for name in module.__all__]
    assert len(set(stokes_isolas.__all__)) == len(stokes_isolas.__all__)


def test_each_name_is_its_home_modules_object():
    for module in home_modules():
        for name in module.__all__:
            assert getattr(stokes_isolas, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stokes_isolas import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_stokes_coefficients_is_the_function():
    # the package attribute of that name is the function, not the module it comes from
    module = sys.modules["stokes_isolas.stokes_coefficients"]
    assert stokes_isolas.stokes_coefficients is module.stokes_coefficients


def test_version():
    assert stokes_isolas.__version__ == "0.1.0"


def test_import_loads_neither_the_oracle_nor_mpmath():
    code = "import sys, stokes_isolas; print(sorted({'stokes_isolas.oracle', 'mpmath'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
