"""`compare` of tools/trajectory.py: bit-identity between two records by
default, or a tolerance relative to each reference array's max abs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


def test_signed_zero_is_a_difference(capsys):
    # equal in value, not byte for byte: only a tolerance lets it pass
    new, ref = {"x": np.array([-0.0])}, {"x": np.array([0.0])}
    assert not trajectory.compare(new, ref)
    assert "0 of 1 arrays bit-identical" in capsys.readouterr().out
    assert trajectory.compare(new, ref, rtol=1e-12)


def test_missing_key_is_a_difference(capsys):
    new = record()
    del new["uq/y"]
    assert not trajectory.compare(new, record())
    assert "uq/y: only in REF" in capsys.readouterr().out


def test_one_ulp_passes_a_relative_tolerance(capsys):
    new = record()
    new["train/x"][2] = np.nextafter(new["train/x"][2], np.inf)
    assert trajectory.compare(new, record(), rtol=1e-12)
    out = capsys.readouterr().out
    assert "train/x: max abs diff" in out and "within rtol 1e-12" in out
    assert "1 more within rtol 1e-12" in out


def test_relative_change_above_tolerance_fails(capsys):
    new = record()
    new["uq/y"][1] *= 1.0 + 1e-6
    assert not trajectory.compare(new, record(), rtol=1e-12)
    assert "0 more within rtol 1e-12" in capsys.readouterr().out


def test_tolerance_does_not_excuse_a_missing_key():
    new = record()
    del new["uq/y"]
    assert not trajectory.compare(new, record(), rtol=1.0)


@pytest.mark.parametrize("rtol", ["-1", "nan"])
def test_invalid_tolerance_rejected_before_recording(rtol, capsys):
    with pytest.raises(SystemExit) as exc:
        trajectory.main(["new.npz", "ref.npz", "--rtol", rtol])
    assert exc.value.code == 2
    assert "--rtol must be >= 0" in capsys.readouterr().err
