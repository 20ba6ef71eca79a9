import ast
import importlib
import inspect
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest

import cgsur
from cgsur import errors, fem, field, inference, predict, vobs

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE_DIR = Path(cgsur.__file__).parent


def layout_modules():
    """Module names listed as '- name[, name...]: description' in the docstring."""
    names = []
    for line in cgsur.__doc__.splitlines():
        m = re.match(r"- ([\w, ]+):", line)
        if m:
            names += [name.strip() for name in m.group(1).split(",")]
    return names


def test_layout_docstring_lists_modules():
    assert "inference" in layout_modules()


@pytest.mark.parametrize("name", layout_modules())
def test_layout_module_imports(name):
    importlib.import_module(f"cgsur.{name}")


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{script} -> {target} is not callable"


def raised_names():
    """Names X of every `raise X` or `raise X(...)` in the package source."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    defined = {
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.CgsurError) and obj is not errors.CgsurError
    }
    assert defined, "errors.py defines no error types"
    assert sorted(defined - raised_names()) == []


def imported_modules(path):
    """Dotted names of every module `path` imports, and of every name it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def importers(module):
    """Stems of the package's modules that import `module` or a name from it."""
    parts = module.split(".")
    return [
        path.stem
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if any(name.split(".")[: len(parts)] == parts for name in imported_modules(path))
    ]


def test_only_fem_imports_scipy_sparse():
    # the band and CSR formats stay behind one module
    assert importers("scipy.sparse") == ["fem"]


def test_only_inference_imports_json():
    # the checkpoint format stays behind one module
    assert importers("json") == ["inference"]


NAN = float("nan")


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: vobs.GammaPosterior(NAN, 1.0), ValueError),
        (lambda: vobs.GammaPosterior(1.0, NAN), ValueError),
        (lambda: inference.update_precision_gamma([NAN, 1.0], 4), ValueError),
        (lambda: inference.update_precision_gamma([np.inf, 1.0], 4), ValueError),
        (lambda: field.GrfSpec(grid_size=4, std=NAN), ValueError),
        (lambda: field.GrfSpec(grid_size=4, length_scale=NAN), ValueError),
        (lambda: vobs.EnergyObservable(system=None, tau=NAN), ValueError),
        (
            lambda: vobs.build_randomized(
                fem.build_mesh(2), np.ones(4), field.BoundaryCoeffs(0, 0, 1, 1),
                count=1, scale=NAN,
            ),
            ValueError,
        ),
        (
            lambda: predict.logscore(np.zeros(2), np.zeros(2), np.array([1.0, NAN])),
            errors.NonPositiveVariance,
        ),
        (lambda: inference.TrainConfig(iterations=-3), ValueError),
    ],
    ids=[
        "gamma-alpha", "gamma-beta", "precision-moment-nan", "precision-moment-inf",
        "grf-std", "grf-length-scale", "energy-tau", "randomized-scale",
        "logscore-variance", "train-iterations",
    ],
)
def test_nan_fails_positivity_checks(call, error):
    with pytest.raises(error):
        call()
