"""The package namespace offers one name per operation, and importing it
loads no more of scipy than ``scipy.fft``."""

import os
import subprocess
import sys
import types
from pathlib import Path

import maxreg_lab

REMOVED = (
    "apply_operator",
    "weighted_maxreg_check",
    "nlhe_existence_experiment",
    "ns_existence_experiment",
    "nlhe_law",
    "ns_law",
    "two_route_solutions",
    "weighted_bochner_norm",
    "heat_multiplier",
    "identity_multiplier",
    "fractional_laplacian_apply",
    "gradient",
    "dealias",
    "SeparableGaussianProfile",
    "estimate_lipschitz_M",
)

MODULES = ("spectral", "norms", "maxreg", "picard", "problems", "harness")

#: names a module exports that the package namespace does not repeat
MODULE_ONLY = {"MaxRegMember", "ExistenceEntry", "Segment", "check_config"}


def _public_objects():
    return {
        name: getattr(maxreg_lab, name)
        for name in dir(maxreg_lab)
        if not name.startswith("_")
        and not isinstance(getattr(maxreg_lab, name), types.ModuleType)
    }


def test_no_public_name_is_an_alias():
    names_by_object = {}
    for name, obj in _public_objects().items():
        names_by_object.setdefault(id(obj), []).append(name)
    aliases = [sorted(names) for names in names_by_object.values() if len(names) > 1]
    assert aliases == []


def test_folded_names_are_gone():
    modules = [maxreg_lab] + [getattr(maxreg_lab, name) for name in MODULES]
    assert [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)] == []


def test_module_exports_exist_and_reach_the_package():
    """Every name in a module's ``__all__`` exists there, and the package
    exports it unless it is listed as module-only: a deleted function
    cannot linger in either list."""
    missing, unexported = [], []
    for name in MODULES:
        module = getattr(maxreg_lab, name)
        missing += [(name, n) for n in module.__all__ if not hasattr(module, n)]
        unexported += [
            (name, n)
            for n in module.__all__
            if n not in MODULE_ONLY and getattr(maxreg_lab, n, None) is not getattr(module, n, None)
        ]
    assert missing == [] and unexported == []


def test_import_loads_no_quadrature():
    src = str(Path(maxreg_lab.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, maxreg_lab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
