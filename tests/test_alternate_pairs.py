import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "alternate_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("alternate_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(rate, rss, failed=0, attempted=10):
    metrics = {"norm_samples_per_s": {"value": rate, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_summary_of_hand_made_pairs(tool):
    pairs = [
        {"seed": 0, "first": "parent", "parent": run(100.0, 50.0), "change": run(110.0, 49.0)},
        {"seed": 1, "first": "change", "parent": run(104.0, 50.0), "change": run(101.0, 50.0, attempted=12)},
        {"seed": 2, "first": "parent", "parent": run(102.0, 51.0, failed=1), "change": run(120.0, 52.0)},
        {"seed": 3, "first": "change", "parent": run(106.0, 50.0), "change": run(106.0, 48.0)},
    ]
    summary = tool.summarize(pairs, {"norm_samples_per_s": "higher", "peak_rss_mb": "lower"})
    rate = summary["norm_samples_per_s"]
    assert rate["pairs"] == 4 and rate["better"] == "higher"
    # parent 100, 102, 104, 106: linear quartiles at positions 0.75, 1.5, 2.25
    assert (rate["parent_q1"], rate["parent_median"], rate["parent_q3"]) == (101.5, 103.0, 104.5)
    assert (rate["change_q1"], rate["change_median"], rate["change_q3"]) == (104.75, 108.0, 112.5)
    assert rate["change_better_pairs"] == 2  # the tie in pair 3 counts for neither side
    rss = summary["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["change_better_pairs"] == 2
    assert summary["failed"] == {"parent": 1, "change": 0, "parent_attempted": 40, "change_attempted": 42}
