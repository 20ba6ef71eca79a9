"""tools/abtest.py's verdict logic on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("abtest", ROOT / "tools" / "abtest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abtest = load_tool()


BOUND = 0.24


def test_ten_pairs_lower_by_more_than_the_iqr_is_a_gain():
    ref = [10.0, 12.0, 9.0, 11.0, 10.0, 8.0, 10.0, 11.0, 9.0, 10.0]
    new = [0.8 * v for v in ref]
    m = abtest.compare(ref, new, BOUND)
    assert m["verdict"] == "lower" and m["lower"] == 10
    assert m["ref_median"] == 10.0 and m["new_median"] == pytest.approx(8.0)
    assert m["ref_iqr"] == pytest.approx(1.5)  # 10.75 - 9.25, numpy's default quartiles
    assert m["new_iqr"] == pytest.approx(1.2)
    assert m["interval"] == pytest.approx([0.8, 0.8])
    assert m["coverage"] == pytest.approx(1.0 - 2.0**-9)


def test_nine_of_ten_lower_is_a_gain_eight_is_not():
    ref = [10.0, 11.0] * 5
    nine = [7.0] * 9 + [12.0]
    assert abtest.compare(ref, nine, BOUND)["verdict"] == "lower"
    eight = [7.0] * 8 + [12.0, 12.0]
    m = abtest.compare(ref, eight, BOUND)
    assert m["lower"] == 8 and m["verdict"] == "not resolved"
    # a tie counts for neither side
    tie = [7.0] * 8 + [12.0, ref[-1]]
    m = abtest.compare(ref, tie, BOUND)
    assert m["lower"] == 8 and m["verdict"] == "not resolved"


def test_every_pair_lower_within_the_iqr_is_not_resolved():
    # lower in 10 of 10, but the medians are 0.2 apart and REF's IQR is 4.0
    ref = [8.0, 12.0] * 5
    m = abtest.compare(ref, [v - 0.2 for v in ref], BOUND)
    assert m["lower"] == 10 and m["ref_iqr"] == pytest.approx(4.0)
    assert m["verdict"] == "not resolved"


def test_fewer_than_ten_pairs_show_no_gain():
    m = abtest.compare([10.0] * 9, [5.0] * 9, BOUND)
    assert m["lower"] == 9 and m["verdict"] == "not resolved"
    assert abtest.compare([10.0], [5.0], BOUND)["verdict"] == "not resolved"


def test_higher_only_past_the_bound():
    ref = [100.0] * 6
    # every pair higher, as an A/A run of peak RSS can read, but inside the bound
    m = abtest.compare(ref, [100.5] * 6, 0.1)
    assert m["lower"] == 0 and m["interval"] == pytest.approx([1.005, 1.005])
    assert m["verdict"] == "not resolved"
    assert abtest.compare(ref, [110.0] * 6, 0.1)["verdict"] == "not resolved"
    assert abtest.compare(ref, [110.5] * 6, 0.1)["verdict"] == "higher"
    # the medians decide, not single pairs
    assert abtest.compare(ref, [200.0] + [100.0] * 5, 0.1)["verdict"] == "not resolved"


def record(value, failed=0, correct=True):
    return {
        "correct": correct, "attempted": 5, "failed": failed,
        "metrics": {"op_ms": {"value": value, "unit": "ms"}},
    }


def test_summary_drops_incomplete_pairs_and_counts_failures():
    runs = {
        "ref": [record(10.0), None, record(10.0), record(10.0, correct=False)],
        "new": [record(9.0, failed=2), record(1.0), record(9.5), record(9.8)],
    }
    s = abtest.summarize(runs, {"op_ms": BOUND})
    assert s["pairs"] == 3
    assert s["metrics"]["op_ms"]["ratios"] == pytest.approx([0.9, 0.95, 0.98])
    assert s["metrics"]["op_ms"]["verdict"] == "not resolved"  # 3 pairs show no gain
    assert s["ref"] == {
        "runs_without_record": 1, "attempted": 15, "failed_operations": 0, "failed_checks": 1,
    }
    assert s["new"] == {
        "runs_without_record": 0, "attempted": 20, "failed_operations": 2, "failed_checks": 0,
    }
