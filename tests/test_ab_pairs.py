import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "macro_f1", "unit": "%", "better": "higher", "bound": 0.1}]


def run(train_s, macro_f1, correct=True):
    return {"correct": correct, "attempted": 3, "failed": 0,
            "metrics": {"train_s": {"value": train_s, "unit": "s"},
                        "macro_f1": {"value": macro_f1, "unit": "%"}}}


def canned():
    """Four cora-sweep pairs, the change faster in three and tied in one, and
    one sbm-8k pair whose change run failed."""
    parent = [(0.40, 78.0), (0.30, 79.0), (0.50, 77.0), (0.20, 80.0)]
    change = [(0.30, 78.0), (0.20, 79.5), (0.50, 76.0), (0.10, 80.0)]
    results = [{"workload": "cora-sweep", "seed": seed, "parent": run(*p), "change": run(*c)}
               for seed, p, c in zip((21, 22, 23, 24), parent, change)]
    results.append({"workload": "sbm-8k", "seed": 21, "parent": run(1.0, 33.0),
                    "change": {"correct": False, "metrics": {}}})
    return results


def test_summary_counts_wins_by_the_metrics_direction_and_ties_for_neither():
    pairs = canned()[:4]
    lower = ab_pairs.summarize(pairs, END_TO_END[0])
    assert lower["parent"] == [0.40, 0.30, 0.50, 0.20]
    assert lower["ratios"] == pytest.approx([0.75, 2 / 3, 1.0, 0.5])
    assert (lower["won"], lower["lost"]) == (3, 0)
    higher = ab_pairs.summarize(pairs, END_TO_END[1])
    assert (higher["won"], higher["lost"]) == (1, 1)


def test_quartiles_interpolate_between_samples():
    # parent train_s sorted 0.2, 0.3, 0.4, 0.5: quartiles at 0.275, 0.35, 0.425
    lower = ab_pairs.summarize(canned()[:4], END_TO_END[0])
    assert lower["parent_quartiles"] == pytest.approx((0.275, 0.35, 0.425))
    assert lower["change_quartiles"] == pytest.approx((0.175, 0.25, 0.35))
    # the medians differ by 0.10, less than the parent's IQR of 0.15
    assert not lower["beyond_iqr"]
    assert ab_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_report_names_each_metric_and_every_pair():
    text = ab_pairs.report(canned(), END_TO_END)
    assert "cora-sweep: 4 pairs, seeds 21 22 23 24; 0 runs not correct" in text
    assert ("train_s (s, lower is better): median 0.35 -> 0.25, quartiles "
            "[0.275, 0.425] -> [0.175, 0.35]; change won 3, lost 0 of 4; medians "
            "differ by no more than the parent's IQR") in text
    assert "0.4/0.3 (0.750), 0.3/0.2 (0.667), 0.5/0.5 (1.000), 0.2/0.1 (0.500)" in text
    assert "macro_f1 (%, higher is better)" in text
    # a pair with a failed run is counted but has no metrics to compare
    assert "sbm-8k: 1 pairs, seeds 21; 1 runs not correct" in text
    assert text.count("train_s") == 1


def test_a_run_that_is_not_correct_fails_the_series():
    results = canned()
    assert not ab_pairs.all_correct(results)
    assert ab_pairs.all_correct(results[:4])
    results[0]["parent"]["correct"] = False
    assert not ab_pairs.all_correct(results[:4])
