import importlib
import re
import tomllib
from pathlib import Path

import pytest

import cgsur

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
