"""tools/quality.py on a tiny configuration: the record's schema, and a gate
that fails when semi-supervised training loses or drifts from a reference."""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("quality", ROOT / "tools" / "quality.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


quality = load_tool()


@pytest.fixture(scope="module")
def record():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        return quality.run(data_seeds=(1,), train_seeds=(7,), iterations=3, n_valid=2, k=4)


def test_tiny_run_records_every_score(record):
    assert record["protocol"] == {
        "data_seeds": [1], "train_seeds": [7], "model_seed": 11, "iterations": 3,
        "n_valid": 2, "k": 4, "infer_z_steps": 400,
    }
    keys = {(r["model"], r["scenario"]) for r in record["runs"]}
    assert keys == {(m, s) for m in quality.MODELS for s in quality.SCENARIOS}
    assert len(record["runs"]) == len(keys)
    for r in record["runs"]:
        assert (r["data_seed"], r["train_seed"], r["inputs"]) == (1, 7, 2)
        assert np.isfinite([r["r2"], r["logscore"], r["train_s"]]).all()
        assert 0 <= r["infer_z_warnings"] <= r["inputs"]
    assert len(quality.table(record).splitlines()) == 1 + len(quality.SCENARIOS)


def test_gate_fails_on_a_loss_or_a_drift(record):
    rec = copy.deepcopy(record)
    for r in rec["runs"]:
        r["r2"], r["logscore"] = (0.9, 400.0) if r["model"] == "semi" else (0.8, 300.0)
    assert quality.gate(rec) == []
    assert quality.gate(rec, rec) == []
    ref = copy.deepcopy(rec)
    semi = next(r for r in ref["runs"] if r["model"] == "semi" and r["scenario"] == "uniform")
    semi["r2"] += 1.5 * quality.R2_BOUND
    assert len(quality.gate(rec, ref)) == 1
    lab = next(r for r in rec["runs"] if r["model"] == "labeled" and r["scenario"] == "uniform")
    lab["logscore"] = 500.0
    assert len(quality.gate(rec)) == 1
    # scenario D is not gated
    lab_d = next(r for r in rec["runs"] if r["model"] == "labeled" and r["scenario"] == "D")
    lab_d["r2"] = 1.0
    assert len(quality.gate(rec)) == 1
