import csv
import importlib.util
import json
import os
import shutil

import pytest

from pugraph.cli import main

from conftest import small_manifest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "compare_runs.py")
_spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two train runs, two sweeps and an eval of the first run, all of one config."""
    root = tmp_path_factory.mktemp("runs")
    config = root / "config.json"
    config.write_text(json.dumps({"dataset": small_manifest(), "label_ratio": 0.02,
                                  "loss": {"delta": 2, "k": 5}, "train": {"epochs": 3}}))
    for run in "ab":
        assert main(["train", "--config", str(config), "--out", str(root / f"train-{run}")]) == 0
        assert main(["sweep", "main", "--config", str(config), "--seeds", "1", "--ratios",
                     "0.02", "--out", str(root / f"sweep-{run}")]) == 0
    assert main(["eval", "--config", str(config), "--checkpoint",
                 str(root / "train-a" / "checkpoint.bin"), "--out", str(root / "eval.json")]) == 0
    return root


def changed_copy(runs, tmp_path, name, edit):
    """A copy of runs/name-b whose files `edit` has changed; returns its path."""
    copy = tmp_path / f"{name}-b"
    shutil.copytree(runs / f"{name}-b", copy)
    edit(copy)
    return str(copy)


def fails(argv) -> str:
    """The message compare_runs exits with; fails the test if it exits 0."""
    with pytest.raises(SystemExit) as exc:
        compare_runs.main(argv)
    assert isinstance(exc.value.code, str)  # sys.exit(message) exits 1
    return exc.value.code


@pytest.mark.parametrize("name", ["train", "sweep"])
def test_two_runs_of_one_config_agree(runs, name):
    # their wall-time fields differ, and nothing else does
    assert compare_runs.main([str(runs / f"{name}-a"), str(runs / f"{name}-b")]) == 0


def test_the_eval_of_the_first_run_agrees(runs):
    assert compare_runs.main([str(runs / "train-a"), str(runs / "train-b"),
                              str(runs / "eval.json")]) == 0


def test_a_changed_train_macro_f1_fails(runs, tmp_path):
    def edit(run):
        result = json.loads((run / "result.json").read_text())
        result["macro_f1"] += 1.0
        (run / "result.json").write_text(json.dumps(result))

    other = changed_copy(runs, tmp_path, "train", edit)
    assert "result.json differs" in fails([str(runs / "train-a"), other])


def rewrite_runs_csv(run, edit_row):
    with open(run / "runs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit_row(rows[0])
    with open(run / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_a_changed_sweep_macro_f1_fails(runs, tmp_path):
    other = changed_copy(runs, tmp_path, "sweep", lambda run: rewrite_runs_csv(
        run, lambda row: row.update(macro_f1=str(float(row["macro_f1"]) + 1.0))))
    assert "runs.csv is empty or differs" in fails([str(runs / "sweep-a"), other])


def test_a_changed_sweep_wall_time_passes(runs, tmp_path):
    other = changed_copy(runs, tmp_path, "sweep", lambda run: rewrite_runs_csv(
        run, lambda row: row.update(wall_time="1e9")))
    assert compare_runs.main([str(runs / "sweep-a"), other]) == 0


def test_a_changed_aggregate_fails(runs, tmp_path):
    def edit(run):
        with open(run / "aggregate.json", "a", encoding="utf-8") as fh:
            fh.write(" ")

    other = changed_copy(runs, tmp_path, "sweep", edit)
    assert "aggregate.json differs" in fails([str(runs / "sweep-a"), other])


def test_an_eval_with_another_macro_f1_fails(runs, tmp_path):
    evaluated = json.loads((runs / "eval.json").read_text())
    evaluated["macro_f1"] += 1.0
    (tmp_path / "eval.json").write_text(json.dumps(evaluated))
    message = fails([str(runs / "train-a"), str(runs / "train-b"), str(tmp_path / "eval.json")])
    assert "does not reproduce the macro_f1" in message


def test_a_sweep_with_an_eval_json_is_a_usage_error(runs):
    assert "not a sweep" in fails([str(runs / "sweep-a"), str(runs / "sweep-b"),
                                   str(runs / "eval.json")])
