"""`compare` of tools/trajectory.py, the bit-identity check between two records."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = load_tool()


def record():
    return {"train/x": np.linspace(0.0, 1.0, 5), "uq/y": np.arange(3.0)}


def test_equal_records_are_identical(capsys):
    assert trajectory.compare(record(), record())
    assert "2 of 2 arrays bit-identical" in capsys.readouterr().out


def test_one_ulp_is_a_difference(capsys):
    new = record()
    new["train/x"][2] = np.nextafter(new["train/x"][2], np.inf)
    assert not trajectory.compare(new, record())
    out = capsys.readouterr().out
    assert "train/x: max abs diff" in out
    assert "uq/y" not in out
    assert "1 of 2 arrays bit-identical" in out


def test_missing_key_is_a_difference(capsys):
    new = record()
    del new["uq/y"]
    assert not trajectory.compare(new, record())
    assert "uq/y: only in REF" in capsys.readouterr().out
